package collector

import (
	"bytes"
	"sync"
	"testing"
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
	clear(e.attrAt[:cap(e.attrAt)])
	clear(e.route[:cap(e.route)])
	clear(e.order[:cap(e.order)])
	clear(e.prefixes[:cap(e.prefixes)])
	clear(e.losers[:cap(e.losers)])
	clear(e.slotOf)
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

// TestMRTSteadyStateAllocations bounds what a steady-state MRT call
// allocates to the memory it returns — one buffer per archive plus the
// slice of archives — so that a per-entry or per-record allocation
// creeping back into the encoder fails here, not in a benchmark.
func TestMRTSteadyStateAllocations(t *testing.T) {
	inf := New(testWorld())
	it := inf.Iter()
	it.Next()
	if _, _, err := it.MRT(); err != nil { // sizes the scratch and the buffers
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
}

// TestConcurrentItersShareNoScratch pins rule 1 for the encoder scratch:
// iterators over one Infrastructure, each driven by its own goroutine the
// way pipeline's day-sharded scan drives them, encode the same archives a
// single sequential iterator does. Under -race it is what would catch
// encoder state leaking out of the Iter into the shared Infrastructure.
func TestConcurrentItersShareNoScratch(t *testing.T) {
	inf := New(testWorld())
	const shards, daysPerShard = 4, 5
	start := inf.world.Config.Start

	var want [shards * daysPerShard][][]byte
	seqIt := inf.IterRange(start, start.AddDays(shards*daysPerShard-1))
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
}
