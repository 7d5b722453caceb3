package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// value is one reported number, as the driver's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome collects what a run measured before it is checked against the
// metric lists.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	// notes are the human-readable lines printed beside the metrics:
	// pass counts, quartiles, sample counts.
	notes []string
	err   error
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// set records a metric once; a second value for the same name is a bug
// in the harness and fails the run.
func (o *outcome) set(name string, v float64) {
	if _, dup := o.values[name]; dup && o.err == nil {
		o.err = fmt.Errorf("metric %s reported twice", name)
	}
	o.values[name] = v
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result checks the outcome against the mode's metric list — every
// end-to-end metric must have been measured and be non-zero; a layer a
// workload never calls reads 0 — and builds the result line. Any metric
// outside the list is an error.
func (o *outcome) result(traced bool) (*result, error) {
	if o.err != nil {
		return nil, o.err
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]value)}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	known := make(map[string]bool, len(list))
	for _, m := range list {
		known[m.Name] = true
		v, ok := o.values[m.Name]
		if !traced && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for name := range o.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return res, nil
}

// print writes every metric by name with its unit, then the notes, then
// the result line the driver reads.
func (res *result) print(w io.Writer, traced bool, notes []string) error {
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		fmt.Fprintf(w, "%-28s %16s %s\n", m.Name, strconv.FormatFloat(res.Metrics[m.Name].Value, 'g', 8, 64), m.Unit)
	}
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "%-28s %16s ratio (%d of %d)\n", "failed_share", strconv.FormatFloat(share, 'g', 8, 64), res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Fprintln(w, "#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
