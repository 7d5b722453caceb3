package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestReconnectorBackoffLadder checks the deterministic doubling and
// the exhaustion bound.
func TestReconnectorBackoffLadder(t *testing.T) {
	var waits []time.Duration
	r := NewReconnector(RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		Sleep:       func(d time.Duration) { waits = append(waits, d) },
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := r.Wait(ctx); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("got %d waits, want %d", len(waits), len(want))
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait %d = %v, want %v", i, waits[i], want[i])
		}
	}
	if err := r.Wait(ctx); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("4th Wait = %v, want ErrRetriesExhausted", err)
	}
	st := r.Stats()
	if st.Retries != 3 || st.Abandoned != 1 {
		t.Errorf("stats = %+v, want 3 retries / 1 abandoned", st)
	}
}

// TestReconnectorReset proves a success restarts both the ladder and
// the attempt budget.
func TestReconnectorReset(t *testing.T) {
	var waits []time.Duration
	r := NewReconnector(RetryPolicy{
		MaxAttempts: 2,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  time.Second,
		Sleep:       func(d time.Duration) { waits = append(waits, d) },
	})
	ctx := context.Background()
	r.Wait(ctx)
	r.Wait(ctx)
	r.Reset()
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("Wait after Reset: %v", err)
	}
	if last := waits[len(waits)-1]; last != 5*time.Millisecond {
		t.Errorf("backoff after Reset = %v, want base again", last)
	}
}

// TestReconnectorCancel proves a real (no injected Sleep) wait honours
// ctx cancellation promptly.
func TestReconnectorCancel(t *testing.T) {
	r := NewReconnector(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Minute, MaxBackoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	start := time.Now()
	err := r.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled Wait blocked for the full backoff")
	}
}
