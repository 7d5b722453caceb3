// Package parallel provides the static sharding and bounded worker pool
// that the scan's day shards and restoration's per-registry reads run
// on (lifestore also cuts snapshots with Shards). The design contract,
// shared by every helper here, is that parallel execution must be
// *invisible in the output*: a computation split into shards with these
// primitives produces bit-for-bit the result of the sequential run, for
// any worker count and any goroutine schedule. The primitives therefore
// fix everything the scheduler could otherwise make nondeterministic —
// shard boundaries (a function of the counts alone), result order
// (index-addressed) and error selection (lowest failing index wins).
package parallel

import (
	"context"
	"errors"
	"sync"
)

// Range is one contiguous shard [Lo, Hi) of an indexed workload.
type Range struct {
	Lo, Hi int
}

// Len returns the number of items in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Shards splits n items into at most workers contiguous near-equal
// ranges, in order. Fewer ranges are returned when n < workers; zero or
// negative n yields nil. The first n%workers shards are one item longer,
// so shard sizes differ by at most one — the balanced static partition
// that suits uniform per-item cost (days of a scan, lives of a
// snapshot).
func Shards(n, workers int) []Range {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]Range, 0, workers)
	base, extra := n/workers, n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// ForEach runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers < 1 means 1; workers == 1 runs inline with no
// goroutines). The context passed to fn is cancelled as soon as any call
// returns an error or the caller's ctx ends; ForEach always waits for
// every started call to return before it does.
//
// Error selection is deterministic: when several shards fail, the error
// of the lowest failing index is returned, independent of which
// goroutine failed first on the clock. A caller's cancelled ctx returns
// ctx.Err() only when no shard error outranks it.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	caller := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var (
		next int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	// claim hands out indices in ascending order and refuses once ctx is
	// done. The check sits under the mutex so that a claimed index always
	// runs: every index below a failing one was claimed before it, hence
	// a lower failing index cannot be skipped by the cancellation a
	// higher one triggers.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	// Prefer the lowest-indexed real failure: shards that merely observed
	// the cancellation triggered by another shard's error must not mask
	// it, whatever order the scheduler ran them in.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if err := caller.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
