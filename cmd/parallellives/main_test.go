package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/pipeline"
	"parallellives/internal/stream"
	"parallellives/internal/worldsim"
)

// syncBuffer is a bytes.Buffer a verb's goroutines may write while the
// test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestEveryVerbAnswersHelp(t *testing.T) {
	for _, v := range verbs {
		for _, args := range [][]string{{v.name, "-h"}, {"help", v.name}} {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), args, &stdout, &stderr)
			if !errors.Is(err, flag.ErrHelp) {
				t.Errorf("%v: err = %v, want flag.ErrHelp", args, err)
			}
			if got := stderr.String(); !strings.HasPrefix(got, v.usage) || !strings.Contains(got, "\nFlags:\n  -") {
				t.Errorf("%v: stderr is not the verb's usage followed by its flags:\n%s", args, got)
			}
		}
	}
}

func TestUnknownVerbListsVerbs(t *testing.T) {
	for _, args := range [][]string{nil, {"no-such-verb"}, {"-scale", "0.01"}} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want errUsage", args, err)
		}
		for _, v := range verbs {
			if !strings.Contains(stderr.String(), "\n  "+v.name+" ") {
				t.Errorf("%v: verb list on stderr lacks %q:\n%s", args, v.name, stderr.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"help"}, &stdout, &stderr); err != nil || !strings.Contains(stdout.String(), "\n  mrtdump ") {
		t.Errorf("help: err = %v, stdout:\n%s", err, stdout.String())
	}
	if err := run(context.Background(), []string{"run", "-no-such-flag"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("run -no-such-flag: err = %v, want errUsage", err)
	}
	if err := run(context.Background(), []string{"delegdump"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("delegdump with no file: err = %v, want errUsage", err)
	}
}

// TestSharedFlagsMeanOneThing walks every verb's flag set: a flag of a
// shared group must carry the same usage and default under every verb
// that has it, which holds only while one line of code registers it.
func TestSharedFlagsMeanOneThing(t *testing.T) {
	shared := map[string]int{ // name -> verbs expected to register it
		"scale": 5, "start": 5, "end": 5, // run, serve, watch, tail, feed
		"wire": 4, "visibility": 4, "workers": 4,
		"fault-policy": 4, "chaos": 4, "chaos-seed": 4,
		"listen": 3, "exemplars": 3, // serve, route, tail
		"drain": 2, "max-inflight": 2, "request-timeout": 2, // serve, route
		"cache":    1, // route
		"tail-dir": 2, // tail, feed
	}
	usage := map[string]string{}
	seen := map[string]int{}
	for _, v := range verbs {
		fs := flag.NewFlagSet(v.name, flag.ContinueOnError)
		v.flags(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if _, ok := shared[f.Name]; !ok {
				return
			}
			seen[f.Name]++
			def := f.DefValue
			if f.Name == "listen" {
				def = "" // the one default that differs: route listens on :8080
			}
			sig := f.Usage + " | " + def
			if prev, ok := usage[f.Name]; ok && prev != sig {
				t.Errorf("-%s under %s: %q, elsewhere %q", f.Name, v.name, sig, prev)
			}
			usage[f.Name] = sig
		})
	}
	for name, want := range shared {
		if seen[name] != want {
			t.Errorf("-%s registered by %d verbs, want %d", name, seen[name], want)
		}
	}
}

// TestPipelineFlagsOneMeaning: one argument list means one
// pipeline.Options under every dataset-building verb (tail then forces
// Wire on in its body); -chaos injects on the wire and leaves the fault
// policy as given; no arguments mean pipeline.DefaultOptions().
func TestPipelineFlagsOneMeaning(t *testing.T) {
	pipelineVerbs := map[string]func(*flag.FlagSet, *pipelineFlags) verbBody{
		"run": runVerb, "serve": serveVerb, "watch": watchVerb, "tail": tailVerb,
	}
	parse := func(verb string, args ...string) pipeline.Options {
		t.Helper()
		fs := flag.NewFlagSet(verb, flag.ContinueOnError)
		pf := addPipelineFlags(fs)
		pipelineVerbs[verb](fs, pf)
		if verb == "serve" {
			args = append([]string{"-build"}, args...)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s %v: %v", verb, args, err)
		}
		return pf.options()
	}
	full := []string{"-scale", "0.01", "-seed", "7", "-start", "2006-01-01", "-end", "2006-04-01",
		"-timeout", "50", "-visibility", "3", "-workers", "2",
		"-fault-policy", "degrade", "-chaos", "-chaos-seed", "9"}
	for verb := range pipelineVerbs {
		if got, want := parse(verb), pipeline.DefaultOptions(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s with no arguments: %+v, want pipeline.DefaultOptions() %+v", verb, got, want)
		}
		if got, want := parse(verb, full...), parse("run", full...); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v: %+v, under run: %+v", verb, full, got, want)
		}
		got := parse(verb, "-chaos")
		if got.Inject == nil || !got.Wire || got.FaultPolicy != faults.FailFast {
			t.Errorf("%s -chaos: inject=%v wire=%v policy=%s, want a plan, wire on, failfast as given",
				verb, got.Inject != nil, got.Wire, got.FaultPolicy)
		}
	}
	got := parse("run", full...)
	if got.World.Scale != 0.01 || got.World.Seed != 7 || got.World.Start.String() != "2006-01-01" ||
		got.World.End.String() != "2006-04-01" || got.Timeout != 50 || got.Visibility != 3 ||
		got.Workers != 2 || got.FaultPolicy != faults.Degrade || got.Inject == nil || got.Inject.Seed != 9 {
		t.Errorf("run %v parsed to %+v", full, got)
	}
}

// TestMistakesTheFlagPackageCannotSee pins the command-line mistakes
// that only show once every flag is parsed: they are usage errors (exit
// 2, explained before the usage), found before any dataset is built.
func TestMistakesTheFlagPackageCannotSee(t *testing.T) {
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"run", "-scale", "0.005", "-experiments", "table1,tabel2"}, `unknown experiment "tabel2": want all, none, or any of table1, figure3,`},
		{[]string{"run", "-start", "2010-01-10", "-end", "2010-01-01"}, "-end 2010-01-01 is before -start 2010-01-10\n"},
		{[]string{"feed", "-tail-dir", t.TempDir(), "-end", "2003-01-01"}, "-end 2003-01-01 is before -start 2003-10-09\n"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), tc.args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("%v: err = %v, want errUsage", tc.args, err)
		}
		if got := stderr.String(); !strings.HasPrefix(got, tc.says) || !strings.Contains(got, "\nFlags:\n") || strings.Contains(got, "building dataset") {
			t.Errorf("%v: stderr should explain the mistake, print the usage and build nothing:\n%s", tc.args, got)
		}
	}

	// The shortest windows are not mistakes: one day, and less than the
	// simulator's anomaly planters like to have.
	for _, end := range []string{"2010-01-01", "2010-01-10"} {
		var stdout, stderr bytes.Buffer
		args := []string{"run", "-scale", "0.005", "-start", "2010-01-01", "-end", end, "-experiments", "table3, health"}
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Table 3: ") || !strings.Contains(stdout.String(), "Fault policy") {
			t.Errorf("%v: stdout lacks the two selected experiments:\n%s", args, stdout.String())
		}
	}
}

// TestExportMRTIsADayDirectory: run -export-mrt writes the layout the
// tail verb reads, so a DirSource over the output yields the day, with
// the collector's archives byte for byte in scan order.
func TestExportMRTIsADayDirectory(t *testing.T) {
	dir := t.TempDir()
	day := dates.MustParse("2006-01-15")
	args := []string{"run", "-scale", "0.005", "-start", "2006-01-01", "-end", "2006-01-31",
		"-experiments", "none", "-export-mrt", day.String(), "-out", dir}
	var stderr bytes.Buffer
	if err := run(context.Background(), args, io.Discard, &stderr); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}

	cfg := worldsim.DefaultConfig()
	cfg.Scale, cfg.Start, cfg.End = 0.005, dates.MustParse("2006-01-01"), dates.MustParse("2006-01-31")
	it := collector.New(worldsim.Generate(cfg)).IterRange(day, day)
	if !it.Next() {
		t.Fatal("reference iterator yielded no day")
	}
	ribs, upds, err := it.MRT()
	if err != nil {
		t.Fatal(err)
	}
	want := append(ribs, upds...)

	src := stream.NewDirSource(dir, stream.DirOptions{ReadTimeout: time.Second})
	defer src.Close()
	got, err := src.Next(context.Background(), day.AddDays(-1))
	if err != nil {
		t.Fatalf("DirSource over the export: %v", err)
	}
	if got.Day != day || len(got.Archives) != len(want) {
		t.Fatalf("DirSource yielded %s with %d archives, want %s with %d", got.Day, len(got.Archives), day, len(want))
	}
	for i, ar := range got.Archives {
		if !bytes.Equal(ar.Data, want[i]) {
			t.Errorf("archive %d (%s %s) differs from Iter.MRT", i, ar.Collector, ar.Kind)
		}
	}
}

// TestRoundTrip drives the glue no package test covers: run writes a
// snapshot, shard cuts and verifies it, serve binds, answers, and drains
// cleanly when the shutdown context is cancelled.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "lives.snap")
	must := func(args ...string) {
		t.Helper()
		var stderr bytes.Buffer
		if err := run(context.Background(), args, io.Discard, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
	}
	must("run", "-scale", "0.005", "-start", "2006-01-01", "-end", "2006-04-01", "-experiments", "none", "-snapshot-out", snap)
	must("shard", "-snapshot", snap, "-shards", "2", "-out", filepath.Join(dir, "lives.%d.snap"), "-verify")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-listen", "127.0.0.1:0", "-snapshot", filepath.Join(dir, "lives.0.snap")}, io.Discard, &stderr)
	}()
	bound := regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+)\n`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := bound.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("serve never announced its address:\n%s", stderr.String())
		}
	}
	resp, err := http.Get("http://" + addr + "/v1/taxonomy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/taxonomy = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain after cancel")
	}
	if !strings.Contains(stderr.String(), "shut down after drain") {
		t.Errorf("no drain message:\n%s", stderr.String())
	}
}
