package faults

import (
	"bytes"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/bgp"
	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/mrt"
	"parallellives/internal/registry"
)

func d(s string) dates.Day { return dates.MustParse(s) }

// buildRIBArchive encodes a PEER_INDEX_TABLE plus n RIB records, two
// peers each — the minimal archive the scanner fully accepts.
func buildRIBArchive(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	tbl := mrt.PeerIndexTable{
		Peers: []mrt.Peer{
			{Addr: netip.MustParseAddr("192.0.2.1"), AS: 64500},
			{Addr: netip.MustParseAddr("192.0.2.2"), AS: 64501},
		},
	}
	if err := w.WriteRecord(0, mrt.TypeTableDumpV2, mrt.SubtypePeerIndexTable, tbl.Marshal()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		u := bgp.Update{
			Path: []bgp.Segment{{Type: bgp.SegmentSequence,
				ASNs: []asn.ASN{64500, asn.ASN(65000 + i)}}},
			NextHop:   netip.AddrFrom4([4]byte{192, 0, 2, 254}),
			HasOrigin: true,
		}
		rec := mrt.RIBRecord{
			Seq:    uint32(i),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			Entries: []mrt.RIBEntry{
				{PeerIndex: 0, Attrs: u.AppendAttrs(nil, true)},
				{PeerIndex: 1, Attrs: u.AppendAttrs(nil, true)},
			},
		}
		body, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(0, mrt.TypeTableDumpV2, rec.Subtype(), body); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// scanArchive runs one archive through a quarantining scanner.
func scanArchive(t *testing.T, data []byte) bgpscan.Stats {
	t.Helper()
	s := bgpscan.NewScanner()
	s.Quarantine = true
	if err := s.BeginDay(d("2010-01-01")); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveMRT(data); err != nil {
		t.Fatalf("quarantining scan failed: %v", err)
	}
	if err := s.EndDay(); err != nil {
		t.Fatal(err)
	}
	return s.Finish().Stats
}

func TestMangleMRTDeterministic(t *testing.T) {
	data := buildRIBArchive(t, 50)
	plan := Plan{Seed: 3, TruncateRecordRate: 0.3, TailChopRate: 1}
	a, _ := NewInjector(plan).MangleMRT(7, data)
	b, _ := NewInjector(plan).MangleMRT(7, data)
	if !bytes.Equal(a, b) {
		t.Fatal("same plan and salt mangled differently")
	}
	if bytes.Equal(a, data) {
		t.Fatal("storm-level plan left the archive untouched")
	}
	if c, _ := NewInjector(Plan{Seed: 4, TruncateRecordRate: 0.3, TailChopRate: 1}).MangleMRT(7, data); bytes.Equal(a, c) {
		t.Fatal("different seeds mangled identically")
	}
	if c, _ := NewInjector(plan).MangleMRT(8, data); bytes.Equal(a, c) {
		t.Fatal("different salts mangled identically")
	}
}

// TestMangleMRTAccounting proves the 1:1 fault-to-quarantine contract:
// every injected truncation surfaces as exactly one quarantined record,
// every tail chop as exactly one quarantined tail, and nothing else is
// lost.
func TestMangleMRTAccounting(t *testing.T) {
	const n = 200
	data := buildRIBArchive(t, n)
	if st := scanArchive(t, data); st.RIBRecords != n || st.QuarantinedTruncated != 0 || st.QuarantinedTails != 0 {
		t.Fatalf("clean archive stats = %+v", st)
	}
	in := NewInjector(Plan{Seed: 11, TruncateRecordRate: 0.1, TailChopRate: 1})
	mangled, rep := in.MangleMRT(1, data)
	if rep.TruncatedRecords == 0 || rep.TailChops != 1 {
		t.Fatalf("MangleMRT returned %+v", rep)
	}
	if total := in.Report(); total != rep {
		t.Fatalf("injector report = %+v, MangleMRT returned %+v", total, rep)
	}
	st := scanArchive(t, mangled)
	if st.QuarantinedTruncated != rep.TruncatedRecords {
		t.Errorf("QuarantinedTruncated = %d, injected %d", st.QuarantinedTruncated, rep.TruncatedRecords)
	}
	if st.QuarantinedTails != rep.TailChops {
		t.Errorf("QuarantinedTails = %d, injected %d", st.QuarantinedTails, rep.TailChops)
	}
	// The tail chop eats the final record; truncated ones are skipped.
	want := int64(n) - rep.TruncatedRecords - rep.TailChops
	if st.RIBRecords != want {
		t.Errorf("RIBRecords = %d, want %d", st.RIBRecords, want)
	}
	if st.DropMalformed != 0 {
		t.Errorf("DropMalformed = %d, want 0 (all injected damage is truncation)", st.DropMalformed)
	}

	// What MangleMRT returns is per archive: summed over archives mangled
	// by concurrent goroutines (as the day-sharded scan does), it equals
	// the injector's running totals.
	shared := NewInjector(Plan{Seed: 11, TruncateRecordRate: 0.1, TailChopRate: 0.5})
	const goroutines, perG = 8, 16
	returned := make([]Report, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				_, r := shared.MangleMRT(uint64(g*perG+i), data)
				returned[g].TruncatedRecords += r.TruncatedRecords
				returned[g].TailChops += r.TailChops
			}
		}()
	}
	wg.Wait()
	var sum Report
	for _, r := range returned {
		sum.TruncatedRecords += r.TruncatedRecords
		sum.TailChops += r.TailChops
	}
	if total := shared.Report(); total != sum || sum.TailChops == 0 || sum.TailChops == goroutines*perG {
		t.Errorf("concurrent mangles returned %+v in sum, injector totals %+v", sum, total)
	}
}

// TestMangleMRTFailFast: without quarantine the tail chop is a hard
// framing error, the seed behaviour.
func TestMangleMRTFailFast(t *testing.T) {
	data := buildRIBArchive(t, 10)
	in := NewInjector(Plan{Seed: 2, TailChopRate: 1})
	mangled, _ := in.MangleMRT(1, data)
	s := bgpscan.NewScanner()
	if err := s.BeginDay(d("2010-01-01")); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveMRT(mangled); err == nil {
		t.Fatal("fail-fast scan of a tail-chopped archive succeeded")
	}
}

// delegationDays scripts one registry's present snapshot days.
func delegationDays(rir asn.RIR, start string, n int) *fakeSource {
	src := &fakeSource{rir: rir}
	first := d(start)
	for i := 0; i < n; i++ {
		day := first.AddDays(i)
		f := &delegation.File{
			Registry: rir, Serial: day.Compact(), Extended: true,
			Start: day, End: day, UTCOffset: "+0000",
			ASNs: []delegation.Record{{
				Registry: rir, CC: "US", ASN: 1500, Count: 1,
				Date: d(start), Status: delegation.StatusAllocated, OpaqueID: "o-1",
			}},
		}
		src.snaps = append(src.snaps, registry.Snapshot{Day: day, Extended: f})
	}
	return src
}

type fakeSource struct {
	rir   asn.RIR
	snaps []registry.Snapshot
	i     int
}

func (f *fakeSource) Registry() asn.RIR { return f.rir }

func (f *fakeSource) Next() (registry.Snapshot, bool) {
	if f.i >= len(f.snaps) {
		return registry.Snapshot{}, false
	}
	s := f.snaps[f.i]
	f.i++
	return s, true
}

// drain pulls every snapshot through a Retrier-wrapped injector.
func drain(src registry.Source) []registry.Snapshot {
	var out []registry.Snapshot
	for {
		snap, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, snap)
	}
}

func TestSourceInjectorRecoversThroughRetrier(t *testing.T) {
	const n = 400
	in := NewInjector(Plan{Seed: 5, TransientRate: 0.1, TransientBurst: 2,
		CorruptDayRate: 0.05, DropDayRate: 0.05})
	ret := NewRetrier(in.WrapSource(delegationDays(asn.ARIN, "2010-01-01", n)), RetryPolicy{})
	got := drain(ret)
	if len(got) != n {
		t.Fatalf("yielded %d snapshots, want %d", len(got), n)
	}
	for i, snap := range got {
		if want := d("2010-01-01").AddDays(i); snap.Day != want {
			t.Fatalf("snapshot %d is day %s, want %s (order broken by faults)", i, snap.Day, want)
		}
	}
	rep, st := in.Report(), ret.Stats()
	if rep.TransientErrs == 0 || rep.CorruptDays == 0 || rep.DroppedDays == 0 {
		t.Fatalf("storm injected nothing: %+v", rep)
	}
	// Burst 2 < the 4-attempt budget: every failure is retried, none
	// abandoned, and the retry count matches the injected errors exactly.
	if st.Retries != rep.TransientErrs || st.Abandoned != 0 {
		t.Errorf("retrier stats %+v vs injected %+v", st, rep)
	}
	if st.Backoff <= 0 {
		t.Errorf("no virtual backoff recorded: %+v", st)
	}
	var missing, corrupt int64
	for _, snap := range got {
		if snap.Regular == nil && snap.Extended == nil {
			missing++
			if snap.RegularCorrupt || snap.ExtendedCorrupt {
				corrupt++
			}
		}
	}
	if corrupt != rep.CorruptDays {
		t.Errorf("corrupt-flagged days = %d, injected %d", corrupt, rep.CorruptDays)
	}
	if missing != rep.CorruptDays+rep.DroppedDays {
		t.Errorf("fileless days = %d, injected %d corrupt + %d dropped",
			missing, rep.CorruptDays, rep.DroppedDays)
	}
	if last := got[n-1]; last.Extended == nil {
		t.Error("lookahead failed: the stream's final day was mangled")
	}
}

// recyclingSource re-parses each of inner's extended files into one
// reused File, as the registry's text and directory sources do: a
// snapshot is valid only until the next Next.
type recyclingSource struct {
	inner  registry.Source
	parser delegation.Parser
	rend   delegation.Renderer
	slot   delegation.File
}

func (s *recyclingSource) Registry() asn.RIR { return s.inner.Registry() }

func (s *recyclingSource) Next() (registry.Snapshot, bool) {
	snap, ok := s.inner.Next()
	if ok && snap.Extended != nil {
		snap.Extended, _ = s.parser.ParseLenientInto(&s.slot, s.rend.Render(snap.Extended))
	}
	return snap, ok
}

// TestSourceInjectorOverRecyclingSource: the injector's one-day lookahead
// holds a snapshot across the inner Next, so over a source that recycles
// its File it must yield the same records, day by day, as over one that
// hands out fresh files.
func TestSourceInjectorOverRecyclingSource(t *testing.T) {
	const n = 400
	plan := Plan{Seed: 5, TransientRate: 0.1, TransientBurst: 2, CorruptDayRate: 0.05, DropDayRate: 0.05}
	days := func(recycle bool) (out [][]delegation.Record, rep Report) {
		src := delegationDays(asn.ARIN, "2010-01-01", n)
		for i := range src.snaps {
			src.snaps[i].Extended.ASNs[0].ASN += asn.ASN(i) // a different record every day
		}
		var inner registry.Source = src
		if recycle {
			inner = &recyclingSource{inner: src}
		}
		in := NewInjector(plan)
		ret := NewRetrier(in.WrapSource(inner), RetryPolicy{})
		for snap, ok := ret.Next(); ok; snap, ok = ret.Next() {
			var recs []delegation.Record
			if snap.Extended != nil {
				recs = append([]delegation.Record{}, snap.Extended.ASNs...)
			}
			out = append(out, recs)
		}
		return out, in.Report()
	}
	want, wantRep := days(false)
	got, gotRep := days(true)
	if wantRep.TransientErrs == 0 || wantRep.CorruptDays == 0 || wantRep.DroppedDays == 0 {
		t.Fatalf("storm injected nothing: %+v", wantRep)
	}
	if gotRep != wantRep {
		t.Errorf("injected over a recycling source %+v, over fresh files %+v", gotRep, wantRep)
	}
	if len(got) != n || len(want) != n {
		t.Fatalf("yielded %d and %d days, want %d", len(got), len(want), n)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("day %d: records %+v over a recycling source, %+v over fresh files", i, got[i], want[i])
		}
	}
}

func TestRetrierAbandonsPersistentFailure(t *testing.T) {
	const n = 60
	// Burst far beyond the attempt budget: hit days cannot be recovered.
	in := NewInjector(Plan{Seed: 9, TransientRate: 0.1, TransientBurst: 100})
	ret := NewRetrier(in.WrapSource(delegationDays(asn.ARIN, "2010-01-01", n)), RetryPolicy{MaxAttempts: 3})
	got := drain(ret)
	if len(got) != n {
		t.Fatalf("yielded %d snapshots, want %d", len(got), n)
	}
	st := ret.Stats()
	if st.Abandoned == 0 {
		t.Fatal("storm hit no day at 10% over 60 days")
	}
	var lost int64
	for _, snap := range got {
		if snap.Regular == nil && snap.Extended == nil {
			if snap.Day == dates.None {
				t.Fatal("abandoned snapshot lost its day")
			}
			lost++
		}
	}
	if lost != st.Abandoned {
		t.Errorf("fileless days = %d, abandoned = %d", lost, st.Abandoned)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
		35 * time.Millisecond, 35 * time.Millisecond}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestFlakyReaderPreservesStream: short reads and stalls change only the
// read fragmentation, never the bytes, so an MRT reader over a
// FlakyReader decodes the archive unchanged.
func TestFlakyReaderPreservesStream(t *testing.T) {
	// Rate 1 faults every Read call: the buffered MRT reader issues few,
	// large reads, so fractional rates would make the test flaky-by-seed.
	data := buildRIBArchive(t, 200)
	in := NewInjector(Plan{Seed: 6, ShortReadRate: 1, StallRate: 1})
	var stalled time.Duration
	fr := in.WrapReader(1, bytes.NewReader(data))
	fr.Sleep = func(d time.Duration) { stalled += d }
	r := mrt.NewReader(fr)
	var rebuilt bytes.Buffer
	w := mrt.NewWriter(&rebuilt)
	for {
		h, body, err := r.Next()
		if err != nil {
			break
		}
		if err := w.WriteRecord(h.Timestamp, h.Type, h.Subtype, body); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rebuilt.Bytes(), data) {
		t.Fatal("stream bytes changed under short reads")
	}
	rep := in.Report()
	if rep.ShortReads == 0 {
		t.Error("no short reads at 50% rate")
	}
	if rep.Stalls == 0 || stalled == 0 {
		t.Errorf("no stalls recorded (report %+v, slept %v)", rep, stalled)
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	data := buildRIBArchive(t, 20)
	in := NewInjector(Plan{Seed: 1})
	if got, _ := in.MangleMRT(1, data); !bytes.Equal(got, data) {
		t.Error("zero-rate plan changed MRT bytes")
	}
	ret := NewRetrier(in.WrapSource(delegationDays(asn.ARIN, "2010-01-01", 30)), RetryPolicy{})
	got := drain(ret)
	if len(got) != 30 {
		t.Fatalf("yielded %d snapshots, want 30", len(got))
	}
	for _, snap := range got {
		if snap.Extended == nil || snap.RegularCorrupt || snap.ExtendedCorrupt {
			t.Fatalf("zero-rate plan damaged day %s", snap.Day)
		}
	}
	if tot := in.Report().Total(); tot != 0 {
		t.Errorf("zero plan reported %d faults", tot)
	}
	if st := ret.Stats(); st.Retries != 0 || st.Abandoned != 0 {
		t.Errorf("zero plan caused retries: %+v", st)
	}
}
