package faults

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"testing"
)

// erroringReader fails exactly one Read call (failOn, 1-based) with a
// transient error, passing everything else through.
type erroringReader struct {
	r      io.Reader
	calls  int
	failOn int
}

func (e *erroringReader) Read(p []byte) (int, error) {
	e.calls++
	if e.calls == e.failOn {
		return 0, fmt.Errorf("%w: interrupted", ErrTransient)
	}
	return e.r.Read(p)
}

// readFragments drains r through a FlakyReader with the given plan and
// salt, recording each Read's size. It returns the reassembled bytes
// and the fragment-size sequence.
func readFragments(t *testing.T, plan Plan, salt uint64, r io.Reader) ([]byte, []int) {
	t.Helper()
	fr := NewInjector(plan).WrapReader(salt, r)
	var out bytes.Buffer
	var frags []int
	buf := make([]byte, 64)
	for {
		n, err := fr.Read(buf)
		if n > 0 {
			frags = append(frags, n)
			out.Write(buf[:n])
		}
		if err == io.EOF {
			return out.Bytes(), frags
		}
		if err != nil {
			t.Fatalf("unexpected read error: %v", err)
		}
	}
}

// TestFlakyReaderSeekAfterErrorDeterminism pins that injection decisions
// are a pure function of (seed, salt, position): after an underlying
// transient error, seeking the stream back to the start and re-reading
// through a fresh wrapper reproduces the clean run's fragmentation and
// bytes exactly. Remote-mirror consumers rely on this to resume a
// failed transfer and still exercise identical fault sequences.
func TestFlakyReaderSeekAfterErrorDeterminism(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	plan := Plan{Seed: 11, ShortReadRate: 0.5}

	cleanBytes, cleanFrags := readFragments(t, plan, 3, bytes.NewReader(data))
	if !bytes.Equal(cleanBytes, data) {
		t.Fatal("FlakyReader changed the byte stream")
	}
	againBytes, againFrags := readFragments(t, plan, 3, bytes.NewReader(data))
	if !bytes.Equal(againBytes, cleanBytes) || len(againFrags) != len(cleanFrags) {
		t.Fatal("two identical runs fragmented differently")
	}
	for i := range cleanFrags {
		if cleanFrags[i] != againFrags[i] {
			t.Fatalf("fragment %d: %d vs %d across identical runs", i, cleanFrags[i], againFrags[i])
		}
	}

	// A mid-stream underlying error surfaces through the wrapper...
	under := &erroringReader{r: bytes.NewReader(data), failOn: 5}
	fr := NewInjector(plan).WrapReader(3, under)
	buf := make([]byte, 64)
	var sawErr bool
	for i := 0; i < 64; i++ {
		if _, err := fr.Read(buf); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("underlying error class changed in transit: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("planted underlying error never surfaced")
	}
	// ...and "seek to zero, rewrap, retry" — the remote-mirror resume
	// idiom — replays the identical fragment sequence.
	resumeBytes, resumeFrags := readFragments(t, plan, 3, bytes.NewReader(data))
	if !bytes.Equal(resumeBytes, data) {
		t.Fatal("resumed read changed the byte stream")
	}
	if len(resumeFrags) != len(cleanFrags) {
		t.Fatalf("resumed run fragmented into %d reads, clean run %d", len(resumeFrags), len(cleanFrags))
	}
	for i := range cleanFrags {
		if resumeFrags[i] != cleanFrags[i] {
			t.Fatalf("fragment %d: resumed %d vs clean %d", i, resumeFrags[i], cleanFrags[i])
		}
	}
}

// TestFlakyReaderAtFaultClasses drives the random-access injector over
// every outcome class and pins determinism per (offset, length).
func TestFlakyReaderAtFaultClasses(t *testing.T) {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	in := NewInjector(Plan{Seed: 21, ReadAtErrorRate: 0.3, ReadAtFlipRate: 0.3})
	fra := in.WrapReaderAt(9, bytes.NewReader(data))

	type outcome struct {
		errored bool
		flipped bool
	}
	reads := []struct{ off, n int }{{0, 100}, {64, 64}, {500, 256}, {1000, 1}, {4096, 2048}, {8000, 192}}
	first := make([]outcome, len(reads))
	var errs, flips int
	for round := 0; round < 3; round++ {
		for i, rd := range reads {
			buf := make([]byte, rd.n)
			var o outcome
			_, err := fra.ReadAt(buf, int64(rd.off))
			switch {
			case err != nil:
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("ReadAt error not ErrTransient-classified: %v", err)
				}
				o.errored = true
			default:
				diff := 0
				for j := range buf {
					diff += bits.OnesCount8(buf[j] ^ data[rd.off+j])
				}
				if diff > 1 {
					t.Fatalf("read [%d,%d): %d bits differ, want at most one flipped", rd.off, rd.off+rd.n, diff)
				}
				o.flipped = diff == 1
			}
			if round == 0 {
				first[i] = o
				if o.errored {
					errs++
				}
				if o.flipped {
					flips++
				}
			} else if o != first[i] {
				t.Fatalf("read [%d,%d): outcome %+v on round %d, %+v on round 0", rd.off, rd.off+rd.n, o, round, first[i])
			}
		}
	}
	if errs == 0 && flips == 0 {
		t.Fatal("no faults injected at 30%+30% over six reads; seed choice is broken")
	}
	if got := fra.Errs() + fra.Flips(); got == 0 {
		t.Error("fault counters stayed zero")
	}

	fra.SetEnabled(false)
	for _, rd := range reads {
		buf := make([]byte, rd.n)
		if _, err := fra.ReadAt(buf, int64(rd.off)); err != nil {
			t.Fatalf("disabled injector errored: %v", err)
		}
		if !bytes.Equal(buf, data[rd.off:rd.off+rd.n]) {
			t.Fatal("disabled injector corrupted a read")
		}
	}
}

// TestFlakyReaderAtConcurrent hammers one wrapper from many goroutines;
// under -race this is the concurrency contract check.
func TestFlakyReaderAtConcurrent(t *testing.T) {
	data := make([]byte, 4096)
	in := NewInjector(Plan{Seed: 3, ReadAtErrorRate: 0.5, ReadAtFlipRate: 0.5})
	fra := in.WrapReaderAt(1, bytes.NewReader(data))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := 0; i < 200; i++ {
				if g%4 == 0 && i == 100 {
					fra.SetEnabled(i%2 == 0)
				}
				_, _ = fra.ReadAt(buf, int64((g*37+i*13)%3968))
			}
		}(g)
	}
	wg.Wait()
}
