package serve

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRU drives the shared response cache through scripted sequences
// and checks every Get's answer plus the final exact counters.
func TestLRU(t *testing.T) {
	const miss = -1
	type op struct {
		do  string // "put", "get" or "flush"
		key string
		val int // put: the value stored; get: the value expected, or miss
	}
	cases := []struct {
		name         string
		capacity     int
		ops          []op
		hits, misses uint64
		size         int
	}{
		{"evicts least recently used", 2, []op{
			{"put", "a", 1}, {"put", "b", 2},
			{"get", "a", 1}, // a is now fresher than b
			{"put", "c", 3}, // evicts b
			{"get", "b", miss}, {"get", "a", 1}, {"get", "c", 3},
		}, 3, 1, 2},
		{"update in place keeps size and refreshes", 2, []op{
			{"put", "a", 1}, {"put", "b", 2},
			{"put", "a", 10}, // no eviction, a moves to the front
			{"put", "c", 3},  // evicts b, not a
			{"get", "a", 10}, {"get", "b", miss}, {"get", "c", 3},
		}, 2, 1, 2},
		{"flush keeps the counters", 4, []op{
			{"put", "a", 1}, {"get", "a", 1}, {"get", "x", miss},
			{"flush", "", 0}, {"get", "a", miss},
			{"put", "a", 2}, {"get", "a", 2},
		}, 2, 2, 1},
		{"capacity zero stores nothing", 0, []op{
			{"put", "a", 1}, {"get", "a", miss}, {"flush", "", 0},
		}, 0, 1, 0},
		{"negative capacity stores nothing", -1, []op{
			{"put", "a", 1}, {"put", "b", 2}, {"get", "a", miss}, {"get", "b", miss},
		}, 0, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU[int](tc.capacity)
			var gets uint64
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					c.Put(o.key, o.val)
				case "flush":
					c.Flush()
				case "get":
					gets++
					if got, ok := c.Get(o.key); ok != (o.val != miss) || (ok && got != o.val) {
						t.Fatalf("op %d: Get(%q) = %d, %v; want %d (%d = miss)", i, o.key, got, ok, o.val, miss)
					}
				}
			}
			hits, misses, size, capacity := c.Stats()
			if hits != tc.hits || misses != tc.misses || size != tc.size || capacity != tc.capacity {
				t.Fatalf("Stats() = hits %d, misses %d, size %d, capacity %d; want %d, %d, %d, %d",
					hits, misses, size, capacity, tc.hits, tc.misses, tc.size, tc.capacity)
			}
			if hits+misses != gets {
				t.Fatalf("hits %d + misses %d != gets %d", hits, misses, gets)
			}
		})
	}
}

// TestLRUConcurrentCountersExact hammers one cache from 16 goroutines
// (run under -race) and requires the hit and miss counters to equal
// exactly what the callers saw.
func TestLRUConcurrentCountersExact(t *testing.T) {
	const workers, rounds, capacity, keys = 16, 2000, 8, 24 // more keys than slots: evictions throughout
	c := NewLRU[int](capacity)
	var sawHits, sawMisses, wrong atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// One key per round of eight ops — gets (a miss unless the
				// key survived eviction or another worker stored it), put,
				// gets — so hits and misses both occur however the
				// goroutines interleave.
				k := (w + i/8*5) % keys
				key := strconv.Itoa(k)
				switch {
				case i%8 == 2:
					c.Put(key, k)
				case i%200 == 3:
					c.Flush()
				default:
					if v, ok := c.Get(key); !ok {
						sawMisses.Add(1)
					} else {
						sawHits.Add(1)
						if v != k {
							wrong.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, size, _ := c.Stats()
	if hits != sawHits.Load() || misses != sawMisses.Load() {
		t.Fatalf("counters drifted: cache says %d hits, %d misses; callers saw %d, %d",
			hits, misses, sawHits.Load(), sawMisses.Load())
	}
	if hits == 0 || misses == 0 || wrong.Load() != 0 || size > capacity {
		t.Fatalf("want hits %d and misses %d > 0, Gets that returned another key's value %d == 0, final size %d <= %d",
			hits, misses, wrong.Load(), size, capacity)
	}
}
