// Package faults is a seeded, deterministic fault injector for the
// ingest layer. Real archival inputs exhibit a small set of recurring
// failure classes — truncated MRT records, interrupted transfers that cut
// an archive mid-record, bit-flipped delegation files, missing days,
// transient I/O errors, short reads and stalls (§3.1 of the paper
// catalogues the delegation side; RouteViews/RIS mirrors exhibit the MRT
// side) — and this package re-creates all of them on demand so the
// pipeline's degrade behaviour is testable bit-for-bit reproducibly.
//
// Every injection decision is a pure function of (Plan.Seed, stable
// identifiers of the item), never of shared RNG state, so injection is
// order-independent and two runs over the same inputs mangle exactly the
// same bytes. The Injector counts everything it injects in a Report, by
// class, which lets tests assert that the pipeline's Health report
// accounts for every planted fault.
package faults

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"parallellives/internal/mrt"
)

// Plan configures which fault classes the injector produces and at what
// rates. The zero value injects nothing.
type Plan struct {
	// Seed drives every injection decision; equal plans over equal
	// inputs inject identical faults.
	Seed int64

	// TruncateRecordRate is the fraction of MRT route records (RIB and
	// BGP4MP update records; never PEER_INDEX_TABLE) whose body is cut
	// in half with the framing length rewritten to match — the record
	// decodes as truncated while the rest of the stream stays readable.
	TruncateRecordRate float64
	// TailChopRate is the fraction of MRT archives whose final record's
	// body is emitted only partially with the framing left claiming the
	// full length — the interrupted-transfer shape, which breaks the
	// stream's framing at the point of the cut.
	TailChopRate float64

	// CorruptDayRate is the fraction of delegation file-days whose bytes
	// are bit-flipped until unparseable (both formats of the day).
	CorruptDayRate float64
	// DropDayRate is the fraction of delegation file-days dropped
	// entirely, as if the archive never stored them.
	DropDayRate float64

	// TransientRate is the fraction of snapshot reads that start a
	// transient-error episode: TransientBurst consecutive reads fail
	// before the data comes through, modelling flaky transport.
	TransientRate float64
	// TransientBurst is the episode length (default 2). Keep it below
	// the retrier's attempt budget for faults that recover.
	TransientBurst int

	// ShortReadRate is the fraction of FlakyReader reads served
	// partially; StallRate the fraction preceded by a recorded stall of
	// StallDuration (default 50ms of virtual time).
	ShortReadRate float64
	StallRate     float64
	StallDuration time.Duration

	// ReadAtErrorRate is the fraction of FlakyReaderAt reads that fail
	// with a transient error; ReadAtFlipRate the fraction served with a
	// single bit flipped — the random-access fault classes a snapshot
	// store's checksum and retry layers must absorb. Counted on the
	// FlakyReaderAt itself (see its doc), not in the Report.
	ReadAtErrorRate float64
	ReadAtFlipRate  float64
}

// DefaultStorm is the acceptance-level fault storm: well above the
// paper's observed archive dirt on every class, yet fully recoverable by
// a Degrade-mode run.
func DefaultStorm(seed int64) Plan {
	return Plan{
		Seed:               seed,
		TruncateRecordRate: 0.08,
		TailChopRate:       0.05,
		CorruptDayRate:     0.03,
		DropDayRate:        0.02,
		TransientRate:      0.02,
		TransientBurst:     2,
	}
}

// Report counts every fault injected, by class.
type Report struct {
	TruncatedRecords int64 // MRT record bodies cut with framing rewritten
	TailChops        int64 // MRT archives cut mid-record at the end
	CorruptDays      int64 // delegation file-days bit-flipped unparseable
	DroppedDays      int64 // delegation file-days removed outright
	TransientErrs    int64 // failed snapshot reads (pre-retry)
	ShortReads       int64 // partial reads served by FlakyReader
	Stalls           int64 // stalls recorded by FlakyReader
}

// Total returns the number of injected faults across all classes.
func (r Report) Total() int64 {
	return r.TruncatedRecords + r.TailChops + r.CorruptDays +
		r.DroppedDays + r.TransientErrs + r.ShortReads + r.Stalls
}

// Injector plants the Plan's faults into streams and sources. Every
// injection decision is a pure function of identity-derived salts, so
// one injector may be shared by concurrently running shards: the only
// mutable state is the report tallies, which are atomic. (Derived
// per-stream wrappers — SourceInjector, FlakyReader — carry their own
// single-stream state and stay one-goroutine-per-stream.)
type Injector struct {
	plan Plan
	rep  reportCounters
}

// reportCounters is the Report held as atomics — the merge-safe form the
// day-sharded scan increments from several goroutines at once.
type reportCounters struct {
	truncatedRecords atomic.Int64
	tailChops        atomic.Int64
	corruptDays      atomic.Int64
	droppedDays      atomic.Int64
	transientErrs    atomic.Int64
	shortReads       atomic.Int64
	stalls           atomic.Int64
}

// NewInjector returns an injector for the plan.
func NewInjector(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the injector's configuration.
func (in *Injector) Plan() Plan { return in.plan }

// Report returns the faults injected so far.
func (in *Injector) Report() Report {
	return Report{
		TruncatedRecords: in.rep.truncatedRecords.Load(),
		TailChops:        in.rep.tailChops.Load(),
		CorruptDays:      in.rep.corruptDays.Load(),
		DroppedDays:      in.rep.droppedDays.Load(),
		TransientErrs:    in.rep.transientErrs.Load(),
		ShortReads:       in.rep.shortReads.Load(),
		Stalls:           in.rep.stalls.Load(),
	}
}

// Per-class hash salts keep decision streams independent.
const (
	saltTruncate uint64 = iota + 1
	saltTail
	saltCorrupt
	saltDrop
	saltTransient
	saltShortRead
	saltStall
	saltReadAtErr
	saltReadAtFlip
)

// hash is seeded FNV-1a over the keys, the same shared-state-free idiom
// the collector uses for outage jitter.
func (in *Injector) hash(keys ...uint64) uint64 {
	h := uint64(14695981039346656037) ^ uint64(in.plan.Seed)
	h *= 1099511628211
	for _, k := range keys {
		for i := 0; i < 8; i++ {
			h ^= k & 0xff
			h *= 1099511628211
			k >>= 8
		}
	}
	return h
}

// coin returns true with probability rate, deterministically in the keys.
func (in *Injector) coin(rate float64, keys ...uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(in.hash(keys...)>>11)/(1<<53) < rate
}

// mrtRouteRecord reports whether an MRT record carries route data the
// scanner quarantines individually. PEER_INDEX_TABLE records are never
// mangled: losing one invalidates every RIB record that follows, which
// would smear a single injected fault across the whole archive and make
// per-class accounting meaningless.
func mrtRouteRecord(typ mrt.Type, subtype uint16) bool {
	switch typ {
	case mrt.TypeTableDumpV2:
		return subtype == mrt.SubtypeRIBIPv4Unicast || subtype == mrt.SubtypeRIBIPv6Unicast
	case mrt.TypeBGP4MP, mrt.TypeBGP4MPET:
		return subtype == mrt.SubtypeBGP4MPMessage || subtype == mrt.SubtypeBGP4MPMessageAS4
	}
	return false
}

const mrtHeaderLen = 12

// MangleMRT applies the plan's MRT faults to one archive and returns
// the bytes together with what it injected into them (only the MRT
// classes are ever set); the same counts are also added to the
// injector's running Report. salt must be stable and unique per archive
// (e.g. a hash of day, collector and rib/update kind) so rerunning the
// pipeline mangles identically. The input slice is never modified; when
// no fault hits, it is returned as-is.
func (in *Injector) MangleMRT(salt uint64, data []byte) ([]byte, Report) {
	var rep Report
	if in.plan.TruncateRecordRate <= 0 && in.plan.TailChopRate <= 0 {
		return data, rep
	}
	type recInfo struct {
		off, bodyLen int
		eligible     bool
	}
	var recs []recInfo
	for off := 0; off+mrtHeaderLen <= len(data); {
		typ := mrt.Type(binary.BigEndian.Uint16(data[off+4 : off+6]))
		subtype := binary.BigEndian.Uint16(data[off+6 : off+8])
		bodyLen := int(binary.BigEndian.Uint32(data[off+8 : off+12]))
		if off+mrtHeaderLen+bodyLen > len(data) {
			return data, rep // already truncated upstream; nothing to add
		}
		recs = append(recs, recInfo{off, bodyLen, mrtRouteRecord(typ, subtype) && bodyLen >= 16})
		off += mrtHeaderLen + bodyLen
	}
	if len(recs) == 0 {
		return data, rep
	}
	out := make([]byte, 0, len(data))
	last := len(recs) - 1
	for i, rc := range recs {
		hdr := data[rc.off : rc.off+mrtHeaderLen]
		body := data[rc.off+mrtHeaderLen : rc.off+mrtHeaderLen+rc.bodyLen]
		if i == last {
			// The final record is reserved for the interrupted-transfer
			// fault (and excluded from body truncation, so each archive
			// observes at most one framing-level fault).
			if rc.bodyLen >= 4 && in.coin(in.plan.TailChopRate, saltTail, salt) {
				out = append(out, hdr...)
				out = append(out, body[:rc.bodyLen/2]...)
				in.rep.tailChops.Add(1)
				rep.TailChops = 1
				return out, rep
			}
		} else if rc.eligible && in.coin(in.plan.TruncateRecordRate, saltTruncate, salt, uint64(i)) {
			cut := rc.bodyLen / 2
			var h2 [mrtHeaderLen]byte
			copy(h2[:], hdr)
			binary.BigEndian.PutUint32(h2[8:12], uint32(cut))
			out = append(out, h2[:]...)
			out = append(out, body[:cut]...)
			in.rep.truncatedRecords.Add(1)
			rep.TruncatedRecords++
			continue
		}
		out = append(out, hdr...)
		out = append(out, body...)
	}
	return out, rep
}
