package obs

import (
	"sort"
	"sync"
	"testing"
)

func TestExemplarRingSlowest(t *testing.T) {
	r := NewExemplarRing(4)
	// Offer 1..10ms in shuffled order; the ring must keep 7,8,9,10.
	for _, ms := range []int64{3, 9, 1, 7, 5, 10, 2, 8, 4, 6} {
		r.OfferLazy(Exemplar{Endpoint: "asn", DurationNs: ms * 1e6, Status: 200}, nil)
	}
	snap := r.Snapshot()
	if snap.Capacity != 4 || snap.Seen != 10 {
		t.Fatalf("snapshot meta = %+v", snap)
	}
	var got []int64
	for _, e := range snap.Slowest {
		got = append(got, e.DurationNs/1e6)
	}
	want := []int64{10, 9, 8, 7}
	if len(got) != len(want) {
		t.Fatalf("slowest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slowest = %v, want %v (descending)", got, want)
		}
	}
	if len(snap.Errors) != 0 {
		t.Fatalf("no errors were offered, got %d", len(snap.Errors))
	}
}

func TestExemplarRingErrors(t *testing.T) {
	r := NewExemplarRing(3)
	for i := 1; i <= 5; i++ {
		r.OfferLazy(Exemplar{Status: 500, DurationNs: int64(i)}, nil)
	}
	snap := r.Snapshot()
	var got []int64
	for _, e := range snap.Errors {
		got = append(got, e.DurationNs)
	}
	// Last 3 errors, newest first.
	want := []int64{5, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("errors = %v, want %v", got, want)
		}
	}
	// Errors also compete on the slow side.
	if len(snap.Slowest) != 3 || snap.Slowest[0].DurationNs != 5 {
		t.Fatalf("slowest = %+v", snap.Slowest)
	}
}

func TestExemplarRingDisabled(t *testing.T) {
	r := NewExemplarRing(0)
	if r != nil {
		t.Fatalf("capacity 0 must return a nil ring")
	}
	r.OfferLazy(Exemplar{DurationNs: 1}, nil) // must not panic
	snap := r.Snapshot()
	if snap.Capacity != 0 || snap.Slowest != nil || snap.Errors != nil {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestExemplarRingRace hammers Offer and Snapshot from many goroutines
// under -race, then checks the ring still holds exactly the global
// slowest-N of everything offered.
func TestExemplarRingRace(t *testing.T) {
	const (
		workers = 16
		perG    = 2000
		cap     = 32
	)
	r := NewExemplarRing(cap)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Deterministic per-goroutine LCG so the expected top-N is
			// computable without coordination.
			x := uint64(g)*2654435761 + 1
			for i := 0; i < perG; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				d := int64(x%1_000_000) + 1
				status := 200
				if d%97 == 0 {
					status = 503
				}
				r.OfferLazy(Exemplar{Endpoint: "asn", DurationNs: d, Status: status}, nil)
				if i%257 == 0 {
					snap := r.Snapshot()
					if len(snap.Slowest) > cap || len(snap.Errors) > cap {
						panic("ring exceeded capacity")
					}
					for j := 1; j < len(snap.Slowest); j++ {
						if snap.Slowest[j].DurationNs > snap.Slowest[j-1].DurationNs {
							panic("slowest not sorted descending")
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Recompute the expected global slowest-N.
	var all []int64
	for g := 0; g < workers; g++ {
		x := uint64(g)*2654435761 + 1
		for i := 0; i < perG; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			all = append(all, int64(x%1_000_000)+1)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	snap := r.Snapshot()
	if snap.Seen != workers*perG {
		t.Fatalf("seen = %d, want %d", snap.Seen, workers*perG)
	}
	if len(snap.Slowest) != cap {
		t.Fatalf("kept %d slowest, want %d", len(snap.Slowest), cap)
	}
	for i := 0; i < cap; i++ {
		if snap.Slowest[i].DurationNs != all[i] {
			t.Fatalf("slowest[%d] = %d, want %d", i, snap.Slowest[i].DurationNs, all[i])
		}
	}
}
