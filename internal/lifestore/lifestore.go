// Package lifestore persists a computed dual-lens dataset — the
// administrative and operational lives of every ASN, their joint
// taxonomy, the daily alive series, per-RIR coverage and the pipeline
// health report — in a versioned, checksummed binary snapshot.
//
// A snapshot turns a batch pipeline run into a servable artifact: the
// expensive 17-year computation happens once (Save), and any number of
// later processes answer per-ASN queries from the file (Open) without
// recomputing anything. The file carries a sorted per-ASN index so a
// single-ASN lookup decodes only that ASN's block; everything else —
// metadata, health, taxonomy, series — is small and loaded eagerly.
//
// See DESIGN.md §7 for the file layout, versioning rules and checksum
// policy.
package lifestore

import (
	"context"
	"fmt"
	"reflect"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/intervals"
)

// Meta identifies a snapshot: the format version it was written with,
// the run configuration it captures, and the dataset's headline counts.
type Meta struct {
	FormatVersion uint16
	// Start and End bound the observation window.
	Start, End dates.Day
	// Timeout, Visibility, Policy and Wire echo the pipeline options of
	// the run.
	Timeout    int
	Visibility int
	Policy     faults.FaultPolicy
	Wire       bool
	// Scale and Seed identify the simulated world.
	Scale             float64
	Seed              int64
	Collectors        int
	PeersPerCollector int
	// Chaos records whether deterministic faults were injected.
	Chaos bool
	// Dataset sizes.
	ASNCount   int
	AdminLives int
	OpLives    int
}

// AdminLife is one administrative life as stored: the §4.1 lifetime plus
// its joint-taxonomy category.
type AdminLife struct {
	RIR         asn.RIR
	CC          string
	OpaqueID    string
	RegDate     dates.Day
	Span        intervals.Interval
	Open        bool
	Transferred bool
	Pieces      int
	Category    core.Category
}

// OpLife is one operational life as stored.
type OpLife struct {
	Span     intervals.Interval
	Category core.Category
}

// ASNLives is one ASN's block: both dimensions in chronological order.
type ASNLives struct {
	ASN   asn.ASN
	Admin []AdminLife
	Op    []OpLife
}

// Snapshot is the fully decoded in-memory form of a snapshot file.
type Snapshot struct {
	Meta     Meta
	Health   faults.Health
	Taxonomy core.TaxonomyCounts
	Series   *core.AliveSeries
	// Shard identifies a sharded snapshot's cut; nil for unsharded.
	Shard *ShardInfo
	// Lives is sorted by ASN.
	Lives []ASNLives
}

// Pinned by benchmark/README.md: Capture returns ds.Snapshot(), which
// is what everything else calls.
func Capture(ds interface{ Snapshot() *Snapshot }) *Snapshot { return ds.Snapshot() }

// Lookup returns one ASN's lives from the in-memory snapshot.
func (s *Snapshot) Lookup(a asn.ASN) (ASNLives, bool) {
	i := sort.Search(len(s.Lives), func(i int) bool { return s.Lives[i].ASN >= a })
	if i < len(s.Lives) && s.Lives[i].ASN == a {
		return s.Lives[i], true
	}
	return ASNLives{}, false
}

// InMemory adapts a Snapshot to the same query surface a Store offers,
// so a freshly computed dataset can be served without touching disk (and
// so tests can compare served responses against the in-memory truth).
type InMemory struct{ snap *Snapshot }

// NewInMemory wraps a snapshot.
func NewInMemory(s *Snapshot) *InMemory { return &InMemory{snap: s} }

// Meta returns the snapshot metadata.
func (m *InMemory) Meta() Meta { return m.snap.Meta }

// Health returns the captured pipeline health report.
func (m *InMemory) Health() faults.Health { return m.snap.Health }

// Taxonomy returns the Table-3 counts.
func (m *InMemory) Taxonomy() core.TaxonomyCounts { return m.snap.Taxonomy }

// Series returns the daily alive series.
func (m *InMemory) Series() *core.AliveSeries { return m.snap.Series }

// Shard returns the shard identity, or nil for an unsharded snapshot.
func (m *InMemory) Shard() *ShardInfo { return m.snap.Shard }

// Lookup returns one ASN's lives.
func (m *InMemory) Lookup(a asn.ASN) (ASNLives, bool, error) {
	l, ok := m.snap.Lookup(a)
	return l, ok, nil
}

// LookupContext is Lookup honouring request cancellation, matching the
// Store's context-aware surface so servers treat both sources alike.
func (m *InMemory) LookupContext(ctx context.Context, a asn.ASN) (ASNLives, bool, error) {
	if err := ctx.Err(); err != nil {
		return ASNLives{}, false, err
	}
	return m.Lookup(a)
}

// ASNCount returns the number of distinct ASNs with at least one life.
func (m *InMemory) ASNCount() int { return len(m.snap.Lives) }

// Diff compares two snapshots and describes every difference, one string
// per divergent component or ASN. An empty result means the snapshots
// are identical — the property Save/Open round-trip tests assert.
func Diff(a, b *Snapshot) []string {
	var out []string
	if a.Meta != b.Meta {
		out = append(out, fmt.Sprintf("meta differs: %+v vs %+v", a.Meta, b.Meta))
	}
	if !reflect.DeepEqual(a.Health, b.Health) {
		out = append(out, fmt.Sprintf("health differs: %+v vs %+v", a.Health, b.Health))
	}
	if a.Taxonomy != b.Taxonomy {
		out = append(out, fmt.Sprintf("taxonomy differs: %+v vs %+v", a.Taxonomy, b.Taxonomy))
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		out = append(out, "alive series differs")
	}
	if !reflect.DeepEqual(a.Shard, b.Shard) {
		out = append(out, fmt.Sprintf("shard identity differs: %v vs %v", a.Shard, b.Shard))
	}
	i, j := 0, 0
	for i < len(a.Lives) || j < len(b.Lives) {
		switch {
		case j >= len(b.Lives) || (i < len(a.Lives) && a.Lives[i].ASN < b.Lives[j].ASN):
			out = append(out, fmt.Sprintf("AS%s only in first snapshot", a.Lives[i].ASN))
			i++
		case i >= len(a.Lives) || a.Lives[i].ASN > b.Lives[j].ASN:
			out = append(out, fmt.Sprintf("AS%s only in second snapshot", b.Lives[j].ASN))
			j++
		default:
			if !reflect.DeepEqual(a.Lives[i], b.Lives[j]) {
				out = append(out, fmt.Sprintf("AS%s lives differ", a.Lives[i].ASN))
			}
			i++
			j++
		}
	}
	return out
}
