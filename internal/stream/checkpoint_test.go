package stream

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

// testCheckpoint builds a nontrivial checkpoint: two ASNs, one with
// every optional section populated, one minimal (invisible-style: no
// origin days, no runs).
func testCheckpoint() *Checkpoint {
	d := func(s string) dates.Day { return dates.MustParse(s) }
	carry := bgpscan.NewPartial()
	carry.Start, carry.End = d("2006-01-01"), d("2006-01-20")
	carry.Stats.RIBRecords = 1000
	carry.Stats.UpdateMessages = 500
	carry.Stats.Routes = 1200
	carry.Stats.DropLowVis = 7
	carry.Stats.QuarantinedTruncated = 2
	carry.ASNs[asn.ASN(65001)] = &bgpscan.ASNActivity{
		Days:       intervals.Set{{Start: d("2006-01-01"), End: d("2006-01-10")}, {Start: d("2006-01-15"), End: d("2006-01-20")}},
		OriginDays: intervals.Set{{Start: d("2006-01-02"), End: d("2006-01-09")}},
		PrefixRuns: []bgpscan.PrefixRun{{From: d("2006-01-02"), To: d("2006-01-09"), Count: 3, Sig: 0xdeadbeef}},
		Upstreams:  map[asn.ASN]int64{65002: 12, 65003: 4},
	}
	carry.ASNs[asn.ASN(65002)] = &bgpscan.ASNActivity{
		Days: intervals.Set{{Start: d("2006-01-01"), End: d("2006-01-20")}},
	}
	return &Checkpoint{
		Fingerprint: 0x0123456789abcdef,
		Seq:         42,
		LastDay:     d("2006-01-20"),
		Op:          pipeline.OpAccount{Days: 20, Archives: 80, InjectedTruncatedRecords: 3, InjectedTailChops: 1},
		Carry:       carry,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := testCheckpoint()
	got, err := DecodeCheckpoint(want.Encode())
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestCheckpointEncodeDeterministic(t *testing.T) {
	c := testCheckpoint()
	a, b := c.Encode(), c.Encode()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two encodes of the same checkpoint differ")
	}
}

// TestCheckpointTornWriteEveryOffset is the torn-write table test: every
// strict prefix of a valid checkpoint — the file shape a crash mid-write
// leaves behind — must decode to a classified corruption, never a panic
// and never a silently wrong checkpoint.
func TestCheckpointTornWriteEveryOffset(t *testing.T) {
	full := testCheckpoint().Encode()
	for cut := 0; cut < len(full); cut++ {
		_, err := DecodeCheckpoint(full[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
		if !errors.Is(err, lifestore.ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not carry lifestore.ErrCorrupt", cut, err)
		}
	}
}

// TestCheckpointBitFlipEveryByte proves the CRC seal: any single-bit
// flip anywhere in the file is rejected as corrupt.
func TestCheckpointBitFlipEveryByte(t *testing.T) {
	full := testCheckpoint().Encode()
	for i := range full {
		mut := make([]byte, len(full))
		copy(mut, full)
		mut[i] ^= 0x01
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, lifestore.ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: error %v does not carry lifestore.ErrCorrupt", i, err)
		}
	}
}

func TestCheckpointTrailingBytes(t *testing.T) {
	b := append(testCheckpoint().Encode(), 0x00)
	if _, err := DecodeCheckpoint(b); !errors.Is(err, lifestore.ErrCorrupt) {
		t.Fatalf("trailing byte: error %v does not carry lifestore.ErrCorrupt", err)
	}
}

// TestCheckpointHugeCountRejected proves a corrupt length prefix cannot
// drive a giant allocation: the count guard trips before make().
func TestCheckpointHugeCountRejected(t *testing.T) {
	c := testCheckpoint()
	c.Carry = bgpscan.NewPartial()
	b := c.Encode()
	// The ASN count is the last u32 of this payload (empty activity).
	// Rewrite it to an absurd value and re-seal the CRC.
	off := len(b) - 4 - 4
	b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0x7f
	reseal(b)
	_, err := DecodeCheckpoint(b)
	if err == nil || !errors.Is(err, lifestore.ErrCorrupt) {
		t.Fatalf("huge count: err = %v, want ErrCorrupt", err)
	}
}

// reseal recomputes the trailing CRC over a mutated checkpoint file so
// tests can damage the payload without tripping the checksum first.
func reseal(b []byte) {
	body := b[:len(b)-4]
	crc := crc32.Checksum(body, crcTable)
	b[len(b)-4] = byte(crc)
	b[len(b)-3] = byte(crc >> 8)
	b[len(b)-2] = byte(crc >> 16)
	b[len(b)-1] = byte(crc >> 24)
}

func TestJournalCommitReopen(t *testing.T) {
	dir := t.TempDir()
	j, c, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil || !rec.Fresh {
		t.Fatalf("fresh dir: checkpoint %v, report %+v", c, rec)
	}

	c1 := testCheckpoint()
	if err := j.Commit(c1); err != nil {
		t.Fatal(err)
	}
	if c1.Seq != 1 {
		t.Fatalf("first commit seq = %d, want 1", c1.Seq)
	}
	c2 := testCheckpoint()
	c2.LastDay = c2.LastDay.AddDays(1)
	c2.Op.Days++
	if err := j.Commit(c2); err != nil {
		t.Fatal(err)
	}
	if c2.Seq != 2 {
		t.Fatalf("second commit seq = %d, want 2", c2.Seq)
	}

	j2, got, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fresh || rec.UsedPrev || rec.CorruptCheckpoints != 0 {
		t.Fatalf("clean reopen report = %+v", rec)
	}
	if !reflect.DeepEqual(got, c2) {
		t.Fatalf("reopen got %+v, want %+v", got, c2)
	}
	if _, err := os.Stat(j2.PrevPath()); err != nil {
		t.Fatalf("previous generation missing after rotation: %v", err)
	}
	// Re-commit idempotency of the sequence: the reopened journal
	// continues from the stored seq.
	c3 := testCheckpoint()
	if err := j2.Commit(c3); err != nil {
		t.Fatal(err)
	}
	if c3.Seq != 3 {
		t.Fatalf("post-reopen commit seq = %d, want 3", c3.Seq)
	}
}

// TestJournalCrashAtTemp simulates dying with the temp file half
// written: recovery must discard the torn temp and keep the previous
// commit.
func TestJournalCrashAtTemp(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCheckpoint()
	if err := j.Commit(c1); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash")
	j.failpoint = func(stage string) error {
		if stage == "temp" {
			return boom
		}
		return nil
	}
	c2 := testCheckpoint()
	c2.LastDay = c2.LastDay.AddDays(1)
	if err := j.Commit(c2); !errors.Is(err, boom) {
		t.Fatalf("Commit with temp failpoint = %v, want crash", err)
	}
	temps, _ := filepath.Glob(filepath.Join(dir, ckptTmpGlob))
	if len(temps) != 1 {
		t.Fatalf("torn temp files = %d, want 1", len(temps))
	}

	_, got, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTemps != 1 || rec.UsedPrev || rec.CorruptCheckpoints != 0 {
		t.Fatalf("recovery report = %+v, want exactly one torn temp", rec)
	}
	if !reflect.DeepEqual(got, c1) {
		t.Fatalf("recovered %+v, want the pre-crash commit %+v", got, c1)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, ckptTmpGlob)); len(temps) != 0 {
		t.Fatal("torn temp survived recovery")
	}
}

// TestJournalCrashAtRotate simulates dying after the old checkpoint was
// rotated away but before the new one landed: recovery must fall back
// to the previous generation.
func TestJournalCrashAtRotate(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCheckpoint()
	if err := j.Commit(c1); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash")
	j.failpoint = func(stage string) error {
		if stage == "rotate" {
			return boom
		}
		return nil
	}
	c2 := testCheckpoint()
	c2.LastDay = c2.LastDay.AddDays(1)
	if err := j.Commit(c2); !errors.Is(err, boom) {
		t.Fatalf("Commit with rotate failpoint = %v, want crash", err)
	}

	_, got, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.UsedPrev {
		t.Fatalf("recovery report = %+v, want UsedPrev", rec)
	}
	if !reflect.DeepEqual(got, c1) {
		t.Fatalf("recovered %+v, want the rotated previous commit %+v", got, c1)
	}
}

// TestJournalCorruptMainFallsBack damages the committed checkpoint on
// disk (bit flip — a decode failure, not a missing file) and proves
// recovery classifies it and uses the previous generation.
func TestJournalCorruptMainFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCheckpoint()
	if err := j.Commit(c1); err != nil {
		t.Fatal(err)
	}
	c2 := testCheckpoint()
	c2.LastDay = c2.LastDay.AddDays(1)
	if err := j.Commit(c2); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(j.Path(), b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CorruptCheckpoints != 1 || !rec.UsedPrev {
		t.Fatalf("recovery report = %+v, want 1 corrupt + UsedPrev", rec)
	}
	if !reflect.DeepEqual(got, c1) {
		t.Fatalf("recovered %+v, want previous generation %+v", got, c1)
	}
}

// TestJournalBothGenerationsCorrupt proves total loss degrades to a
// fresh start, never an open failure.
func TestJournalBothGenerationsCorrupt(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCheckpoint()
	if err := j.Commit(c1); err != nil {
		t.Fatal(err)
	}
	c2 := testCheckpoint()
	if err := j.Commit(c2); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{j.Path(), j.PrevPath()} {
		if err := os.WriteFile(p, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, got, rec, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || !rec.Fresh || rec.CorruptCheckpoints != 2 {
		t.Fatalf("recovery = ckpt %v report %+v, want fresh start with 2 corrupt", got, rec)
	}
}
