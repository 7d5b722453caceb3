package worldsim

import (
	"math/rand"
	"testing"
	"unsafe"

	"parallellives/internal/asn"
	"parallellives/internal/intervals"
)

// TestReuseQueueDoublesAndRecycles pins DESIGN.md §15.1 rules 2 and 4
// for the reuse queue. Over a cold run of deallocations, each array the
// queue moves to is at least twice the one it replaces; and once its
// two arrays are large enough, a day's sweep allocates nothing.
func TestReuseQueueDoublesAndRecycles(t *testing.T) {
	cfg := DefaultConfig()
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(1)), models: models(), world: &World{Config: cfg}}
	live := map[*reuseCandidate]int{} // the queue's arrays and their capacities
	note := func() {
		now := map[*reuseCandidate]int{}
		for _, q := range [][]reuseCandidate{g.reuseQueue, g.reuseSpare} {
			if cap(q) > 0 {
				now[unsafe.SliceData(q)] = cap(q)
			}
		}
		for p, c := range now {
			if _, ok := live[p]; ok {
				continue
			}
			for old, oc := range live {
				if _, ok := now[old]; !ok && c < 2*oc {
					t.Errorf("the queue moved from %d to %d candidates of capacity", oc, c)
				}
			}
		}
		live = now
	}
	d := cfg.Start
	for day := 0; day < 60; day++ {
		for i := 0; i < 150; i++ {
			// A tenth become available at once, so the sweep both
			// reallocates and keeps.
			l := Life{ASN: asn.ASN(1 + day*150 + i), RIR: asn.ARIN, CC: "US",
				Alloc: intervals.New(d.AddDays(-30), d), QuarantineDays: 400}
			if i%10 == 0 {
				l.QuarantineDays = 0
			}
			g.maybeScheduleReuse(&l)
			note()
		}
		g.serviceReuseQueue(d)
		note()
		d = d.AddDays(1)
	}
	if len(g.reuseQueue) < 1000 || len(g.world.Lives) == 0 {
		t.Fatalf("%d candidates queued, %d reallocated: too few to test", len(g.reuseQueue), len(g.world.Lives))
	}
	// A day before every candidate's quarantine ends keeps them all and
	// draws nothing.
	early := cfg.Start.AddDays(-1)
	g.serviceReuseQueue(early)
	if allocs := testing.AllocsPerRun(10, func() { g.serviceReuseQueue(early) }); allocs != 0 {
		t.Errorf("a warm sweep allocates %.0f times", allocs)
	}
}
