// Package obs is the repository's observability core: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms, all with
// label support and lock-free hot paths), a lightweight span tracer with
// a pluggable clock, and exposition helpers (Prometheus text format, a
// JSON span summary, and a per-stage text table).
//
// The package deliberately imports nothing from the rest of the
// repository, so every layer — parsers, the pipeline, the snapshot
// store, the HTTP service and the commands — can instrument itself
// without import cycles. The conventions it enforces:
//
//   - metric names follow parallellives_<subsystem>_<name>_<unit>
//     (Prometheus naming rules are validated at registration time and
//     violations panic, because a bad name is a programmer error);
//   - label sets are fixed per metric family and must stay low
//     cardinality (endpoints, stages, registries, error classes — never
//     ASNs, days or paths);
//   - snapshots (Gather) are deterministic: families sort by name,
//     series by label values, so exposition output is testable byte for
//     byte.
//
// Instrument handles (Counter, Gauge, Histogram) are resolved once —
// at registration or via a Vec lookup — and then updated with pure
// atomics; no lock is taken on the update path.
package obs

import "regexp"

// Obs bundles the two halves of one run's observability: the metrics
// registry and the span tracer. Commands create one and thread it into
// the subsystems they drive.
type Obs struct {
	Registry *Registry
	Tracer   *Tracer
}

// New returns an Obs with a fresh registry and a wall-clock tracer.
func New() *Obs {
	return &Obs{Registry: NewRegistry(), Tracer: NewTracer()}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// checkName panics on an invalid Prometheus metric name.
func checkName(name string) {
	if !nameRe.MatchString(name) {
		panic("obs: invalid metric name " + name)
	}
}

// checkLabels panics on an invalid Prometheus label name.
func checkLabels(labels []string) {
	for _, l := range labels {
		if !labelRe.MatchString(l) {
			panic("obs: invalid label name " + l)
		}
	}
}
