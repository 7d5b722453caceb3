// Package parallel provides the bounded worker-pool and deterministic
// ordered-merge primitives the pipeline's sharded stages are built on.
// The design contract, shared by every helper here, is that parallel
// execution must be *invisible in the output*: a computation split into
// shards and recombined with these primitives produces bit-for-bit the
// result of the sequential run, for any worker count and any goroutine
// schedule. The primitives therefore fix everything the scheduler could
// otherwise make nondeterministic — result order (index-addressed),
// error selection (lowest failing index wins), and merge tie-breaking
// (lower-indexed input first).
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
// that suits uniform per-item cost (days of a scan, ASN groups of a
// segmentation).
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

// MergeSorted k-way merges already-sorted slices into one sorted slice.
// The merge is stable across inputs: on ties, the element from the
// lower-indexed part comes first. Combined with a stable per-part sort,
// this reproduces exactly what a sequential concatenate-then-stable-sort
// over the same parts would produce — the property the restore stage's
// by-ASN run merge relies on for byte-identical output.
func MergeSorted[T any](less func(a, b T) bool, parts ...[]T) []T {
	total := 0
	nonEmpty := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		for _, p := range parts {
			if len(p) > 0 {
				return append(make([]T, 0, len(p)), p...)
			}
		}
	}
	out := make([]T, 0, total)
	heads := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			// Strict less keeps ties on the lower-indexed part.
			if best == -1 || less(p[heads[i]], parts[best][heads[best]]) {
				best = i
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}
