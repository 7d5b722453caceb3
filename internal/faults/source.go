package faults

import (
	"bytes"
	"errors"
	"fmt"

	"parallellives/internal/asn"
	"parallellives/internal/delegation"
)

// ErrTransient marks a source failure that a retry may recover from —
// the class the Retrier exists for.
var ErrTransient = errors.New("faults: transient source error")

// FallibleSource is a delegation.Source whose reads can fail. A failed
// Next leaves the pending snapshot in place, so a retry re-reads the
// same day; Abandon gives up on it, yielding the day as missing — the
// remote-archive semantics a Retrier needs.
type FallibleSource interface {
	Registry() asn.RIR
	// Next returns the next snapshot; ok is false at end of stream. On
	// error, the read can be retried (same day) or Abandoned.
	Next() (delegation.Snapshot, bool, error)
	// Abandon consumes the pending (failing) snapshot as a lost day.
	Abandon() (delegation.Snapshot, bool)
}

// SourceInjector wraps a delegation.Source, injecting transient read
// errors, dropped days and bit-flip corruption. It does not implement
// delegation.Source itself (its Next can fail); wrap it in a Retrier to
// feed the restoration pipeline.
type SourceInjector struct {
	in  *Injector
	src delegation.Source

	// One-snapshot lookahead: the window's final day is never content-
	// mangled, so injected faults cannot silently truncate the archive
	// window itself (which would shift every OpenAtEnd decision rather
	// than exercising degrade paths).
	peek   delegation.Snapshot
	peekOK bool
	primed bool

	held     delegation.Snapshot
	heldOK   bool
	heldLast bool
	failLeft int
	pos      uint64
}

// WrapSource wraps src with the injector's delegation-side faults.
func (in *Injector) WrapSource(src delegation.Source) *SourceInjector {
	return &SourceInjector{in: in, src: src}
}

// Registry implements FallibleSource.
func (s *SourceInjector) Registry() asn.RIR { return s.src.Registry() }

// pull fetches the next underlying snapshot, maintaining the lookahead.
func (s *SourceInjector) pull() (snap delegation.Snapshot, isLast, ok bool) {
	if !s.primed {
		s.peek, s.peekOK = s.src.Next()
		s.primed = true
	}
	if !s.peekOK {
		return delegation.Snapshot{}, false, false
	}
	snap = s.peek
	// The inner Next may parse into the very files snap points to (they
	// are valid only until then), so the held day takes its own copies.
	snap.Regular, snap.Extended = snap.Regular.Clone(), snap.Extended.Clone()
	s.peek, s.peekOK = s.src.Next()
	return snap, !s.peekOK, true
}

// Next returns the next snapshot or a transient error. After an error
// the same snapshot stays pending: a successful retry returns the real
// data. Drop and corruption faults are applied on successful reads.
func (s *SourceInjector) Next() (delegation.Snapshot, bool, error) {
	if !s.heldOK {
		snap, isLast, ok := s.pull()
		if !ok {
			return delegation.Snapshot{}, false, nil
		}
		s.held, s.heldLast, s.heldOK = snap, isLast, true
		s.pos++
		if s.in.coin(s.in.plan.TransientRate, saltTransient, rirKey(s.src), s.pos) {
			burst := s.in.plan.TransientBurst
			if burst <= 0 {
				burst = 2
			}
			s.failLeft = burst
		}
	}
	if s.failLeft > 0 {
		s.failLeft--
		s.in.rep.transientErrs.Add(1)
		return delegation.Snapshot{}, false, fmt.Errorf("%w: %s day %s",
			ErrTransient, s.src.Registry().Token(), s.held.Day)
	}
	snap := s.held
	s.heldOK = false
	if !s.heldLast {
		snap = s.mangle(snap)
	}
	return snap, true, nil
}

// Abandon consumes the pending snapshot after repeated failures,
// returning it with its files dropped — the day is lost, but the stream
// continues. ok is false when nothing is pending.
func (s *SourceInjector) Abandon() (delegation.Snapshot, bool) {
	if !s.heldOK {
		return delegation.Snapshot{}, false
	}
	s.heldOK = false
	s.failLeft = 0
	return delegation.Snapshot{Day: s.held.Day}, true
}

// mangle applies drop and corruption faults to one snapshot. Days that
// are already damaged (missing or corrupt upstream) are left untouched,
// so each injected fault maps to exactly one newly damaged day.
func (s *SourceInjector) mangle(snap delegation.Snapshot) delegation.Snapshot {
	if snap.Regular == nil && snap.Extended == nil {
		return snap
	}
	if snap.RegularCorrupt || snap.ExtendedCorrupt {
		return snap
	}
	day := uint64(uint32(snap.Day))
	rir := rirKey(s.src)
	if s.in.coin(s.in.plan.DropDayRate, saltDrop, rir, day) {
		snap.Regular, snap.Extended = nil, nil
		s.in.rep.droppedDays.Add(1)
		return snap
	}
	if s.in.coin(s.in.plan.CorruptDayRate, saltCorrupt, rir, day) {
		if snap.Regular != nil {
			snap.Regular = corruptFile(snap.Regular)
			snap.RegularCorrupt = snap.Regular == nil
		}
		if snap.Extended != nil {
			snap.Extended = corruptFile(snap.Extended)
			snap.ExtendedCorrupt = snap.Extended == nil
		}
		s.in.rep.corruptDays.Add(1)
	}
	return snap
}

// corruptFile serializes the file, flips bits across its header line and
// re-parses leniently — the same damage shape real mirrors serve
// (mangled separators, chopped lines). The header damage makes the file
// unusable, so the result is nil in practice; the lenient re-parse keeps
// the byte-level contract honest rather than assuming.
func corruptFile(f *delegation.File) *delegation.File {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return nil
	}
	b := buf.Bytes()
	n := len(b)
	if n > 48 {
		n = 48
	}
	for i := 0; i < n; i++ {
		b[i] ^= 0x10 // flips '|' field separators and digits alike
	}
	parsed, _ := delegation.ParseLenient(bytes.NewReader(b))
	if parsed == nil || (len(parsed.ASNs) == 0 && len(parsed.Other) == 0) {
		return nil
	}
	return parsed
}

// rirKey derives a stable per-registry hash key.
func rirKey(src delegation.Source) uint64 { return uint64(src.Registry()) }
