package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestShardsPartition(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		want       int // shard count
	}{
		{0, 4, 0}, {-3, 4, 0}, {1, 4, 1}, {4, 4, 4}, {5, 4, 4},
		{10, 3, 3}, {10, 1, 1}, {7, 0, 1}, {100, 8, 8},
	} {
		got := Shards(tc.n, tc.workers)
		if len(got) != tc.want {
			t.Fatalf("Shards(%d,%d): %d shards, want %d", tc.n, tc.workers, len(got), tc.want)
		}
		// Contiguous cover, sizes within one of each other.
		lo := 0
		minSize, maxSize := 1<<31, 0
		for _, r := range got {
			if r.Lo != lo {
				t.Fatalf("Shards(%d,%d): gap at %d (got Lo=%d)", tc.n, tc.workers, lo, r.Lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("Shards(%d,%d): empty shard %+v", tc.n, tc.workers, r)
			}
			if r.Len() < minSize {
				minSize = r.Len()
			}
			if r.Len() > maxSize {
				maxSize = r.Len()
			}
			lo = r.Hi
		}
		if tc.want > 0 {
			if lo != tc.n {
				t.Fatalf("Shards(%d,%d): cover ends at %d", tc.n, tc.workers, lo)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("Shards(%d,%d): unbalanced sizes %d..%d", tc.n, tc.workers, minSize, maxSize)
			}
		}
	}
}

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var hits [100]atomic.Int32
		err := ForEach(context.Background(), len(hits), workers, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachLowestErrorWins(t *testing.T) {
	// Whatever the schedule, the error of the lowest failing index must
	// come back — run many rounds to shake out timing luck.
	failAt := map[int]bool{7: true, 23: true, 61: true}
	for round := 0; round < 500; round++ {
		err := ForEach(context.Background(), 64, 8, func(_ context.Context, i int) error {
			if failAt[i] {
				return fmt.Errorf("shard %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 7 failed" {
			t.Fatalf("round %d: got %v, want shard 7 failed", round, err)
		}
	}

	// The low failing index is the slow one: index 7 does not return
	// until index 23 has failed and cancelled the run, and still wins.
	for round := 0; round < 500; round++ {
		highFailed := make(chan struct{})
		err := ForEach(context.Background(), 64, 8, func(_ context.Context, i int) error {
			switch i {
			case 7:
				<-highFailed
				return errors.New("shard 7 failed")
			case 23:
				close(highFailed)
				return errors.New("shard 23 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "shard 7 failed" {
			t.Fatalf("slow low index, round %d: got %v, want shard 7 failed", round, err)
		}
	}
}

func TestForEachCancelPropagates(t *testing.T) {
	var after atomic.Int32
	err := ForEach(context.Background(), 1000, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			return errors.New("boom")
		}
		if ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
	// Not asserting a count — just that cancellation was observable and
	// did not panic or deadlock.
}

func TestForEachCallerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 10, 4, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
