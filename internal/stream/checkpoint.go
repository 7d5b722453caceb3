package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/bgpscan"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

// Checkpoint file format (little-endian, CRC-32C sealed):
//
//	magic   "ASNTAILC"                    8 bytes
//	version uint16                        (CheckpointVersion)
//	_       uint16                        reserved, zero
//	len     uint32                        payload length
//	payload len bytes                     (see Encode)
//	crc     uint32                        CRC-32C of everything above
//
// The trailing CRC makes a torn write (any prefix of the file) and a
// bit flip equally detectable; decode failures carry the
// lifestore.ErrCorrupt sentinel so recovery code classifies them with
// the same taxonomy as snapshot damage.

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

const (
	ckptMagic    = "ASNTAILC"
	ckptName     = "tail.ckpt"
	ckptPrevName = "tail.ckpt.prev"
	ckptTmpGlob  = ".tail-*.tmp"
	ckptFixedLen = len(ckptMagic) + 2 + 2 + 4 // header before payload
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// corruptf wraps a checkpoint-damage description in the
// lifestore.ErrCorrupt taxonomy.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("stream: %w: %s", lifestore.ErrCorrupt, fmt.Sprintf(format, args...))
}

// Checkpoint is the tail's durable position: the last committed day,
// the whole-run scan accounting, and the activity carry-state an
// incremental scan needs to continue appending days. Re-loading a
// checkpoint and resuming from LastDay+1 reproduces exactly the state
// a never-crashed tail would hold.
type Checkpoint struct {
	// Fingerprint identifies the run configuration (world, window,
	// thresholds, fault plan). A checkpoint from a different
	// configuration must not be resumed — its carry would silently
	// diverge from the batch equivalent.
	Fingerprint uint64
	// Seq increments per commit; the journal uses it for monotonicity.
	Seq uint64
	// LastDay is the newest committed day.
	LastDay dates.Day
	// Op is the scan account of the committed days.
	Op pipeline.OpAccount
	// Carry is the absorbed partial activity of all committed days
	// (invisible ASNs kept — see bgpscan.Finalize).
	Carry *bgpscan.Activity
}

// Encode renders the checkpoint. The encoding is a pure function of the
// logical state: ASNs and upstream keys are emitted in ascending order,
// so equal checkpoints encode to equal bytes.
func (c *Checkpoint) Encode() []byte {
	p := make([]byte, 0, 1024)
	p = binary.LittleEndian.AppendUint64(p, c.Fingerprint)
	p = binary.LittleEndian.AppendUint64(p, c.Seq)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(c.LastDay)))
	p = binary.LittleEndian.AppendUint32(p, uint32(c.Op.Days))
	p = binary.LittleEndian.AppendUint64(p, uint64(c.Op.Archives))
	p = binary.LittleEndian.AppendUint64(p, uint64(c.Op.InjectedTruncatedRecords))
	p = binary.LittleEndian.AppendUint64(p, uint64(c.Op.InjectedTailChops))
	p = appendActivity(p, c.Carry)

	out := make([]byte, 0, ckptFixedLen+len(p)+4)
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint16(out, CheckpointVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	out = append(out, p...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	return out
}

func appendActivity(p []byte, a *bgpscan.Activity) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(a.Start)))
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(a.End)))
	for _, v := range []int64{
		a.Stats.RIBRecords, a.Stats.UpdateMessages, a.Stats.Routes,
		a.Stats.DropPrefixLen, a.Stats.DropLoop, a.Stats.DropMalformed,
		a.Stats.DropLowVis, a.Stats.QuarantinedTruncated, a.Stats.QuarantinedTails,
	} {
		p = binary.LittleEndian.AppendUint64(p, uint64(v))
	}
	asns := make([]asn.ASN, 0, len(a.ASNs))
	for x := range a.ASNs {
		asns = append(asns, x)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	p = binary.LittleEndian.AppendUint32(p, uint32(len(asns)))
	for _, x := range asns {
		aa := a.ASNs[x]
		p = binary.LittleEndian.AppendUint32(p, uint32(x))
		p = appendIntervals(p, aa.Days)
		p = appendIntervals(p, aa.OriginDays)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(aa.PrefixRuns)))
		for _, r := range aa.PrefixRuns {
			p = binary.LittleEndian.AppendUint32(p, uint32(int32(r.From)))
			p = binary.LittleEndian.AppendUint32(p, uint32(int32(r.To)))
			p = binary.LittleEndian.AppendUint32(p, uint32(r.Count))
			p = binary.LittleEndian.AppendUint64(p, r.Sig)
		}
		ups := make([]asn.ASN, 0, len(aa.Upstreams))
		for u := range aa.Upstreams {
			ups = append(ups, u)
		}
		sort.Slice(ups, func(i, j int) bool { return ups[i] < ups[j] })
		p = binary.LittleEndian.AppendUint32(p, uint32(len(ups)))
		for _, u := range ups {
			p = binary.LittleEndian.AppendUint32(p, uint32(u))
			p = binary.LittleEndian.AppendUint64(p, uint64(aa.Upstreams[u]))
		}
	}
	return p
}

func appendIntervals(p []byte, set intervals.Set) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(len(set)))
	for _, iv := range set {
		p = binary.LittleEndian.AppendUint32(p, uint32(int32(iv.Start)))
		p = binary.LittleEndian.AppendUint32(p, uint32(int32(iv.End)))
	}
	return p
}

// ckptReader is a bounds-checked cursor over the payload; every read
// failure is a corruption classification, never a panic.
type ckptReader struct {
	b   []byte
	off int
	err error
}

func (r *ckptReader) fail(what string) {
	if r.err == nil {
		r.err = corruptf("checkpoint payload truncated reading %s at offset %d", what, r.off)
	}
}

func (r *ckptReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *ckptReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *ckptReader) day(what string) dates.Day { return dates.Day(int32(r.u32(what))) }

// count reads a length prefix and rejects values the remaining bytes
// cannot possibly satisfy (minSize bytes per element), so a corrupt
// length cannot drive a huge allocation.
func (r *ckptReader) count(what string, minSize int) int {
	n := int(r.u32(what))
	if r.err == nil && n*minSize > len(r.b)-r.off {
		r.err = corruptf("checkpoint %s count %d exceeds remaining %d bytes", what, n, len(r.b)-r.off)
		return 0
	}
	return n
}

func (r *ckptReader) intervals(what string) intervals.Set {
	n := r.count(what, 8)
	if r.err != nil || n == 0 {
		return nil
	}
	set := make(intervals.Set, n)
	for i := range set {
		set[i] = intervals.Interval{Start: r.day(what), End: r.day(what)}
	}
	return set
}

// DecodeCheckpoint parses and verifies one checkpoint file's bytes.
// Every failure — short file, bad magic, version skew, length
// mismatch, CRC mismatch, payload truncation — satisfies
// errors.Is(err, lifestore.ErrCorrupt).
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < ckptFixedLen+4 {
		return nil, corruptf("checkpoint too short: %d bytes", len(b))
	}
	if string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, corruptf("bad checkpoint magic %q", b[:len(ckptMagic)])
	}
	ver := binary.LittleEndian.Uint16(b[8:10])
	if ver != CheckpointVersion {
		return nil, corruptf("unsupported checkpoint version %d", ver)
	}
	plen := int(binary.LittleEndian.Uint32(b[12:16]))
	if ckptFixedLen+plen+4 != len(b) {
		return nil, corruptf("checkpoint length mismatch: header claims %d payload bytes in a %d-byte file", plen, len(b))
	}
	body := b[:ckptFixedLen+plen]
	want := binary.LittleEndian.Uint32(b[ckptFixedLen+plen:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, corruptf("checkpoint CRC mismatch: %08x != %08x", got, want)
	}

	r := &ckptReader{b: b[ckptFixedLen : ckptFixedLen+plen]}
	c := &Checkpoint{
		Fingerprint: r.u64("fingerprint"),
		Seq:         r.u64("seq"),
		LastDay:     r.day("lastDay"),
		Op: pipeline.OpAccount{
			Days:                     int(r.u32("days")),
			Archives:                 int64(r.u64("archives")),
			InjectedTruncatedRecords: int64(r.u64("injTruncatedRecords")),
			InjectedTailChops:        int64(r.u64("injTailChops")),
		},
	}
	act := bgpscan.NewPartial()
	act.Start = r.day("activity.start")
	act.End = r.day("activity.end")
	for _, v := range []*int64{
		&act.Stats.RIBRecords, &act.Stats.UpdateMessages, &act.Stats.Routes,
		&act.Stats.DropPrefixLen, &act.Stats.DropLoop, &act.Stats.DropMalformed,
		&act.Stats.DropLowVis, &act.Stats.QuarantinedTruncated, &act.Stats.QuarantinedTails,
	} {
		*v = int64(r.u64("activity.stats"))
	}
	nASN := r.count("asn", 4+4*4)
	for i := 0; i < nASN && r.err == nil; i++ {
		x := asn.ASN(r.u32("asn"))
		aa := &bgpscan.ASNActivity{
			Days:       r.intervals("days"),
			OriginDays: r.intervals("originDays"),
		}
		if n := r.count("prefixRuns", 20); n > 0 && r.err == nil {
			aa.PrefixRuns = make([]bgpscan.PrefixRun, n)
			for j := range aa.PrefixRuns {
				aa.PrefixRuns[j] = bgpscan.PrefixRun{
					From:  r.day("prefixRun.from"),
					To:    r.day("prefixRun.to"),
					Count: int(r.u32("prefixRun.count")),
					Sig:   r.u64("prefixRun.sig"),
				}
			}
		}
		if n := r.count("upstreams", 12); n > 0 && r.err == nil {
			aa.Upstreams = make(map[asn.ASN]int64, n)
			for j := 0; j < n; j++ {
				u := asn.ASN(r.u32("upstream.asn"))
				aa.Upstreams[u] = int64(r.u64("upstream.count"))
			}
		}
		act.ASNs[x] = aa
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, corruptf("checkpoint payload has %d trailing bytes", len(r.b)-r.off)
	}
	c.Carry = act
	return c, nil
}

// RecoveryReport describes what the journal found (and survived) while
// opening its directory — the torn-write accounting /v1/health and the
// stream metrics expose.
type RecoveryReport struct {
	// TornTemps counts abandoned temp files from interrupted commits,
	// removed on open.
	TornTemps int
	// CorruptCheckpoints counts checkpoint files rejected as torn or
	// corrupt (errors carrying lifestore.ErrCorrupt, or unreadable).
	CorruptCheckpoints int
	// UsedPrev reports that the main checkpoint was unusable and the
	// previous generation was recovered instead.
	UsedPrev bool
	// Fresh reports that no usable checkpoint existed: the tail starts
	// from the beginning of the window.
	Fresh bool
}

// Journal is the checkpoint's home directory and commit discipline.
// Exactly one Tailer owns a journal at a time.
type Journal struct {
	dir  string
	seq  uint64
	size int // encoded bytes of the last commit

	// failpoint, when set, is consulted at named stages of Commit; a
	// non-nil return abandons the commit at that point with no cleanup,
	// simulating a crash. Stages: "temp" (temp file half-written),
	// "rotate" (previous generation rotated away, new file not yet in
	// place). Test-only.
	failpoint func(stage string) error
}

// OpenJournal opens (creating if needed) the checkpoint directory,
// cleans up debris from interrupted commits, and loads the newest
// usable checkpoint: the main file if it verifies, else the rotated
// previous generation, else nil (fresh start). Corruption never fails
// the open — it is counted, classified and recovered past; only I/O
// errors surface.
func OpenJournal(dir string) (*Journal, *Checkpoint, RecoveryReport, error) {
	var rec RecoveryReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, rec, fmt.Errorf("stream: opening journal: %w", err)
	}
	// Interrupted commits leave temp files; they were never part of the
	// committed state, so removal is always safe.
	temps, _ := filepath.Glob(filepath.Join(dir, ckptTmpGlob))
	for _, t := range temps {
		if os.Remove(t) == nil {
			rec.TornTemps++
		}
	}
	j := &Journal{dir: dir}
	load := func(name string) *Checkpoint {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				rec.CorruptCheckpoints++
			}
			return nil
		}
		c, err := DecodeCheckpoint(b)
		if err != nil {
			rec.CorruptCheckpoints++
			return nil
		}
		return c
	}
	c := load(ckptName)
	if c == nil {
		if c = load(ckptPrevName); c != nil {
			rec.UsedPrev = true
		}
	}
	if c == nil {
		rec.Fresh = true
	} else {
		j.seq = c.Seq
	}
	return j, c, rec, nil
}

// Path returns the main checkpoint file's path.
func (j *Journal) Path() string { return filepath.Join(j.dir, ckptName) }

// PrevPath returns the rotated previous checkpoint's path.
func (j *Journal) PrevPath() string { return filepath.Join(j.dir, ckptPrevName) }

func (j *Journal) fail(stage string) error {
	if j.failpoint == nil {
		return nil
	}
	return j.failpoint(stage)
}

// Commit durably replaces the checkpoint: encode, write to a temp file
// in the same directory, fsync, rotate the current checkpoint to the
// previous generation, rename the temp into place, fsync the
// directory. A crash at any point leaves either the old checkpoint or
// the rotated previous one intact — never zero recoverable states
// after a first successful commit. Sets c.Seq.
func (j *Journal) Commit(c *Checkpoint) error {
	c.Seq = j.seq + 1
	b := c.Encode()

	f, err := os.CreateTemp(j.dir, strings.Replace(ckptTmpGlob, "*", "commit-*", 1))
	if err != nil {
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	tmp := f.Name()
	half := len(b) / 2
	if _, err := f.Write(b[:half]); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	if err := j.fail("temp"); err != nil {
		f.Close() // crash simulation: leave the torn temp behind
		return err
	}
	if _, err := f.Write(b[half:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}

	main, prev := j.Path(), j.PrevPath()
	if _, err := os.Stat(main); err == nil {
		if err := os.Rename(main, prev); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("stream: checkpoint rotate: %w", err)
		}
	}
	if err := j.fail("rotate"); err != nil {
		return err // crash simulation: only the prev generation remains
	}
	if err := os.Rename(tmp, main); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	syncDir(j.dir)
	j.seq, j.size = c.Seq, len(b)
	return nil
}

// syncDir fsyncs a directory so the renames inside it are durable.
// Best-effort: filesystems that refuse directory fsync are tolerated.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
