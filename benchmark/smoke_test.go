package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// smokeSizing runs every workload end to end in about a second each:
// the smallest world worldsim generates (it needs more than 41 days).
var smokeSizing = sizing{
	BatchScale: 0.01, BatchStart: "2004-01-01", BatchEnd: "2004-02-14", MinPasses: 2, TracedPasses: 1,
	ServeScale: 0.01, ServeStart: "2004-01-01", ServeEnd: "2004-02-14",
	Clients: 2, WorkingSet: 200, CacheSize: 16,
	MixASN: 70, MixSeries: 20, MixTaxonomy: 10, MissPermille: 30,
	Ranges: 2, Replicas: 2, SampleEvery: 8, SweepRequests: 500,
	SetupRepeats: 1,
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json the same
// list: a metric added to one and not the other would be measured and
// never judged, or judged and never measured.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", spec.RunSeconds, runSeconds)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, spec.go says %+v", i, got, w)
		}
	}
	check := func(kind string, got []specMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d = %+v, spec.go says %+v", kind, i, g, m)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from spec.go's %v", m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd, true)
	check("per-layer", spec.PerLayer, perLayer, false)
}

// TestSmokeAllWorkloads runs the four workloads, untraced and traced, at
// smoke size, and checks that each emits exactly the metrics
// BENCHMARK.json names for that mode, with their units, and that every
// output was correct.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name, want, seconds := wl.Name+"/end_to_end", spec.EndToEnd, 0.2
			if traced {
				name, want = wl.Name+"/per_layer", spec.PerLayer
				if wl.Name == wlServeDirect || wl.Name == wlServeRouted {
					// Long enough for the traced windows to hold the thousand
					// samples a p99 needs, on a busy box too.
					seconds = 2 * slowdown
				}
			}
			t.Run(name, func(t *testing.T) {
				res, _, tr, err := measure(context.Background(), wl.Name, 1, seconds, traced, smokeSizing, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if traced != (tr != nil) {
					t.Errorf("traced %v but tracer %v", traced, tr)
				}
				if traced && res.Metrics["trace.spans"].Value < 1 {
					t.Error("the traced run recorded no span")
				}
			})
		}
	}
}
