package collector

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/worldsim"
)

// TestIterArenaRecyclingPreservesObservations pins the day-arena
// contract: within a day, every observation handed out by a
// continuously-advanced iterator (whose path arena and noise buffers are
// recycled day over day) must match what a fresh iterator advanced to
// the same day produces. Divergence would mean the arena reuse corrupts
// or cross-links the observations it backs.
func TestIterArenaRecyclingPreservesObservations(t *testing.T) {
	w := testWorld()
	inf := New(w)

	cont := inf.Iter()
	for day := 0; day < 10 && cont.Next(); day++ {
		fresh := inf.Iter()
		for i := 0; i <= day; i++ {
			if !fresh.Next() {
				t.Fatalf("fresh iterator exhausted at day %d", i)
			}
		}
		if cont.Day() != fresh.Day() {
			t.Fatalf("day %d: %v != %v", day, cont.Day(), fresh.Day())
		}
		got, want := cont.Observations(), fresh.Observations()
		if len(got) != len(want) {
			t.Fatalf("day %v: %d observations, want %d", cont.Day(), len(got), len(want))
		}
		for i := range got {
			if !equalObservation(got[i], want[i]) {
				t.Fatalf("day %v obs %d: %+v != %+v", cont.Day(), i, got[i], want[i])
			}
		}
	}
}

func equalObservation(a, b Observation) bool {
	if a.Collector != b.Collector || a.Peer != b.Peer ||
		len(a.Prefixes) != len(b.Prefixes) || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// TestMRTArchivesDoNotAliasEncoderScratch pins rule 3 for Iter.MRT: the
// archives returned for a day are the caller's. They must be unchanged
// after the iterator has moved on and encoded the next day, and after
// every byte of the encoder's recycled scratch has been scribbled over.
func TestMRTArchivesDoNotAliasEncoderScratch(t *testing.T) {
	inf := New(testWorld())
	it := inf.Iter()
	if !it.Next() {
		t.Fatal("no days")
	}
	ribs, updates, err := it.MRT()
	if err != nil {
		t.Fatal(err)
	}
	kept := append(append([][]byte(nil), ribs...), updates...)
	want := make([][]byte, len(kept))
	for i, a := range kept {
		want[i] = append([]byte(nil), a...)
	}
	check := func(when string) {
		t.Helper()
		for i := range kept {
			if !bytes.Equal(kept[i], want[i]) {
				t.Fatalf("archive %d changed %s", i, when)
			}
		}
	}

	if !it.Next() {
		t.Fatal("one-day window")
	}
	if _, _, err := it.MRT(); err != nil {
		t.Fatal(err)
	}
	check("after the next day was encoded")

	// Every scratch field, that is: the prefix table is state the iterator
	// keeps across days, not scratch, and stays as it is.
	e := &it.enc
	for _, b := range [][]byte{e.attrs[:cap(e.attrs)], e.msg[:cap(e.msg)]} {
		for i := range b {
			b[i] ^= 0xa5
		}
	}
	for _, entry := range e.entries[:cap(e.entries)] {
		for i := range entry.Attrs {
			entry.Attrs[i] ^= 0xa5
		}
	}
	for _, ints := range [][]int32{e.attrAt[:cap(e.attrAt)], e.route[:cap(e.route)], e.order[:cap(e.order)]} {
		for i := range ints {
			ints[i] = 0x5a5a5a5a
		}
	}
	for i := range e.touched[:cap(e.touched)] {
		e.touched[:cap(e.touched)][i] = true
	}
	for i := range e.losers[:cap(e.losers)] {
		e.losers[:cap(e.losers)][i] = loser{id: -1, peer: -1, obs: -1}
	}
	check("after the encoder scratch was scribbled")

	// The scribbled scratch is reset, not trusted, by the next call.
	again, _, err := it.MRT()
	if err != nil {
		t.Fatal(err)
	}
	fresh := inf.IterRange(it.Day(), it.Day())
	fresh.Next()
	wantAgain, _, err := fresh.MRT()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range again {
		if !bytes.Equal(again[ci], wantAgain[ci]) {
			t.Fatalf("collector %d: RIB encoded over scribbled scratch differs from a fresh iterator's", ci)
		}
	}
}

// TestAppendMRTReusesAndMatchesMRT pins AppendMRT's half of rule 3: over
// 60 days an iterator that is handed back the previous day's archives
// returns the bytes a second iterator's MRT does, in the memory it was
// handed once that has grown to a day's size; a buffer handed in longer
// than today's archive and full of junk leaves no stale tail; and what
// MRT returned before the recycling began is untouched by it.
func TestAppendMRTReusesAndMatchesMRT(t *testing.T) {
	inf := New(testWorld())
	rec, ref := inf.Iter(), inf.Iter()
	rec.Next()
	ref.Next()
	keptRibs, keptUpdates, err := rec.MRT()
	if err != nil {
		t.Fatal(err)
	}
	wantKeptRibs, wantKeptUpdates, err := ref.MRT()
	if err != nil {
		t.Fatal(err)
	}

	var ribs, updates [][]byte
	reused := 0
	for day := 1; day < 60 && rec.Next() && ref.Next(); day++ {
		if day%10 == 0 {
			for _, set := range [][][]byte{ribs, updates} {
				for i, a := range set {
					a = append(a[:cap(a)], make([]byte, 512)...)
					for j := range a {
						a[j] = 0xff
					}
					set[i] = a
				}
			}
		}
		handed := append(append([][]byte(nil), ribs...), updates...)
		if ribs, updates, err = rec.AppendMRT(ribs, updates); err != nil {
			t.Fatal(err)
		}
		wantRibs, wantUpdates, err := ref.MRT()
		if err != nil {
			t.Fatal(err)
		}
		got, want := append(append([][]byte(nil), ribs...), updates...), append(wantRibs, wantUpdates...)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%v archive %d: recycled buffers hold %d bytes that differ from MRT's %d", rec.Day(), i, len(got[i]), len(want[i]))
			}
			if i < len(handed) && cap(handed[i]) > 0 && &got[i][:1][0] == &handed[i][:1][0] {
				reused++
			}
		}
	}
	if floor := 50 * 2 * len(inf.Collectors()); reused < floor {
		t.Errorf("%d archives were encoded in place, want at least %d", reused, floor)
	}
	for ci := range keptRibs {
		if !bytes.Equal(keptRibs[ci], wantKeptRibs[ci]) || !bytes.Equal(keptUpdates[ci], wantKeptUpdates[ci]) {
			t.Errorf("collector %d: the first day's MRT() archives changed under later AppendMRT calls", ci)
		}
	}
}

// TestMRTSteadyStateAllocations bounds what a steady-state MRT call
// allocates to the memory it returns — one buffer per archive plus the
// slice of archives — and an AppendMRT call over the previous archives to
// nothing, so that a per-entry or per-record allocation creeping back
// into the encoder fails here, not in a benchmark.
func TestMRTSteadyStateAllocations(t *testing.T) {
	inf := New(testWorld())
	it := inf.Iter()
	it.Next()
	ribs, updates, err := it.MRT() // sizes the scratch and the buffers
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := it.MRT(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(1 + 2*len(inf.Collectors())); allocs > limit {
		t.Errorf("MRT allocates %.0f times per call, want at most %.0f (one per archive + the result slice)", allocs, limit)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if ribs, updates, err = it.AppendMRT(ribs, updates); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMRT over the previous call's archives allocates %.0f times per call, want 0", allocs)
	}
}

// TestColdRunGrowsByDoubling pins DESIGN.md §15.1 rule 4 for the
// iterator's arenas, its prefix table, the encoder scratch and the
// archives AppendMRT is handed back: over a cold run whose routing table
// grows every day, each capacity that changes at least doubles.
func TestColdRunGrowsByDoubling(t *testing.T) {
	const days, perDay = 40, 25 // segments starting each day
	cfg := worldsim.DefaultConfig()
	cfg.Start = dates.MustParse("2004-01-01")
	cfg.End = cfg.Start.AddDays(days - 1)
	w := &worldsim.World{Config: cfg}
	for i := 0; i < 16; i++ {
		w.TransitASNs = append(w.TransitASNs, asn.ASN(100+i))
	}
	for i := 0; i < days*perDay; i++ {
		w.Segments = append(w.Segments, worldsim.Segment{
			ASN: asn.ASN(1000 + i), Span: intervals.New(cfg.Start.AddDays(i/perDay), cfg.End),
			Kind: worldsim.SegNormal, Upstream: 100, PrefixCount: 1 + i%3,
		})
	}
	it := New(w).Iter()
	var ribs, updates [][]byte
	caps := map[string][]int{}
	for it.Next() {
		var err error
		if ribs, updates, err = it.AppendMRT(ribs, updates); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]int{
			"obs": cap(it.obs), "pathArena": cap(it.pathArena),
			"table.prefixes": cap(it.table.prefixes), "table.keys": cap(it.table.keys), "table.order": cap(it.table.order),
			"enc.attrs": cap(it.enc.attrs), "enc.attrAt": cap(it.enc.attrAt), "enc.route": cap(it.enc.route),
		} {
			caps[name] = append(caps[name], c)
		}
		for ci := range ribs {
			rib, upd := fmt.Sprint("rib ", ci), fmt.Sprint("updates ", ci)
			caps[rib] = append(caps[rib], cap(ribs[ci]))
			caps[upd] = append(caps[upd], cap(updates[ci]))
		}
	}
	for name, cs := range caps {
		moves := 0
		for i := 1; i < len(cs); i++ {
			if cs[i] != cs[i-1] {
				moves++
				if cs[i] < 2*cs[i-1] {
					t.Errorf("%s: capacity %d → %d on day %d", name, cs[i-1], cs[i], i)
				}
			}
		}
		if name == "obs" && moves < 3 {
			t.Errorf("obs reallocated %d times over the run: the routing table did not grow enough to test", moves)
		}
	}
}

// TestConcurrentItersShareNoScratch pins rule 1 for the encoder scratch:
// iterators over one Infrastructure, each driven by its own goroutine the
// way pipeline's day-sharded scan drives them, encode the same archives a
// single sequential iterator does. Under -race it is what would catch
// encoder state leaking out of the Iter into the shared Infrastructure.
// The one thing the iterators do share is the Infrastructure's outage
// schedules: the shards start on an Infrastructure no iterator has
// walked, so they race to derive the schedules of the segments they all
// render, and each must come out as the one its segment alone determines.
func TestConcurrentItersShareNoScratch(t *testing.T) {
	w := testWorld()
	inf := New(w)
	const shards, daysPerShard = 4, 5
	start := inf.world.Config.Start

	var want [shards * daysPerShard][][]byte
	seqIt := New(w).IterRange(start, start.AddDays(shards*daysPerShard-1))
	for d := 0; seqIt.Next(); d++ {
		ribs, updates, err := seqIt.MRT()
		if err != nil {
			t.Fatal(err)
		}
		want[d] = append(ribs, updates...)
	}

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			it := inf.IterRange(start.AddDays(s*daysPerShard), start.AddDays((s+1)*daysPerShard-1))
			for d := s * daysPerShard; it.Next(); d++ {
				ribs, updates, err := it.MRT()
				if err != nil {
					t.Error(err)
					return
				}
				for i, a := range append(ribs, updates...) {
					if !bytes.Equal(a, want[d][i]) {
						t.Errorf("shard %d, %v, archive %d differs from the sequential iterator's", s, it.Day(), i)
					}
				}
			}
		}(s)
	}
	wg.Wait()

	derived := 0
	for si := range inf.outages {
		c := &inf.outages[si]
		untouched := false
		c.once.Do(func() { untouched = true }) // runs only where no shard derived the schedule
		if untouched {
			continue
		}
		derived++
		if want := inf.outageSchedule(&inf.segments[si], rand.New(rand.NewSource(1))); !slices.Equal(c.set, want) {
			t.Errorf("segment %d: shared outage schedule %v, want %v", si, c.set, want)
		}
	}
	if derived == 0 {
		t.Error("no outage schedule was derived through the shared Infrastructure")
	}
}
