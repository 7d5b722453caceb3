package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's runs at the parent (a) and at the change
// (b). worse is the share of the parent's median by which the change's
// median is worse (negative when it is better). Where either side's
// spread is wider than the bound and the two sides' runs overlap, the
// runs cannot tell a regression from noise: unresolved.
func judge(m metric, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	overlap := slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
	switch {
	case max(spread(a), spread(b)) > m.Bound && overlap:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func loadResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// sameBox reports what makes two results files incomparable: different
// hardware, toolchain, run length or sizing. Commit and seed may differ;
// comparing those is the point.
func sameBox(a, b envBlock) error {
	a.Commit, a.Dirty, a.Seed = b.Commit, b.Dirty, b.Seed
	if a != b {
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		return fmt.Errorf("env differs:\n  %s\n  %s", ja, jb)
	}
	return nil
}

// values gathers a metric's value from every matching run.
func (f *resultsFile) values(wl, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == wl && r.Traced == traced {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compareMain prints, per workload and metric, both files' medians with
// quartiles and the change against the bound. It exits 1 when any
// end-to-end metric regressed and 2 when the files cannot be compared.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare PARENT.json CHANGE.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := loadResults(args[1])
	if err != nil {
		return fail(err)
	}
	if err := sameBox(a.Env, b.Env); err != nil {
		return fail(err)
	}
	if compareFiles(a, b, stdout) {
		return 1
	}
	return 0
}

func compareFiles(a, b *resultsFile, w io.Writer) (regressed bool) {
	row := func(wl string, m metric, traced bool) {
		va, vb := a.values(wl, m.Name, traced), b.values(wl, m.Name, traced)
		if len(va) == 0 || len(vb) == 0 || (median(va) == 0 && median(vb) == 0) {
			return // not measured, or a layer this workload never calls
		}
		a1, a3 := quartiles(va)
		b1, b3 := quartiles(vb)
		worse, verdict := judge(m, va, vb)
		bound := fmt.Sprintf("bound %4.1f%%", m.Bound*100)
		if traced {
			bound, verdict = "", "" // layers explain a change; they do not gate it
		}
		if verdict == verdictRegressed {
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-26s %-5s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g]  worse %+6.1f%%  %s  %s\n",
			wl, m.Name, m.Unit, median(va), a1, a3, median(vb), b1, b3, worse*100, bound, verdict)
	}
	fmt.Fprintf(w, "parent %s (seed %d, %d runs)  change %s (seed %d, %d runs)\n",
		a.Env.Commit, a.Env.Seed, len(a.Runs), b.Env.Commit, b.Env.Seed, len(b.Runs))
	for _, wl := range workloads {
		for _, m := range endToEnd {
			row(wl.Name, m, false)
		}
	}
	for _, wl := range workloads {
		for _, m := range perLayer {
			row(wl.Name, m, true)
		}
	}
	return regressed
}
