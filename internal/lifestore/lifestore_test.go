package lifestore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

// testOptions is a reduced world that still exercises every mechanism:
// multiple registries, reallocation, operational churn.
func testOptions(seed int64, chaos bool) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.World.Scale = 0.02
	opts.World.Seed = seed
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2005-12-31")
	if chaos {
		opts.FaultPolicy = faults.Degrade
		plan := faults.DefaultStorm(seed)
		opts.Inject = &plan
		opts.Wire = true // MRT faults only exist on the wire
	}
	return opts
}

var dsCache = map[string]*pipeline.Dataset{}

func testDataset(t testing.TB, seed int64, chaos bool) *pipeline.Dataset {
	t.Helper()
	key := fmt.Sprintf("%d/%v", seed, chaos)
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds, err := pipeline.Run(testOptions(seed, chaos))
	if err != nil {
		t.Fatal(err)
	}
	dsCache[key] = ds
	return ds
}

// TestRoundTrip is the acceptance property: Save then Open reproduces
// the dataset exactly, for a clean run and a chaos degrade run, at two
// seeds.
func TestRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline runs")
	}
	for _, seed := range []int64{1, 7} {
		for _, chaos := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d,chaos=%v", seed, chaos), func(t *testing.T) {
				ds := testDataset(t, seed, chaos)
				want := ds.Snapshot()
				path := filepath.Join(t.TempDir(), "lives.snap")
				if err := lifestore.SaveSnapshot(want, path); err != nil {
					t.Fatal(err)
				}
				st, err := lifestore.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				got, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if diffs := lifestore.Diff(want, got); len(diffs) > 0 {
					for i, d := range diffs {
						if i >= 10 {
							t.Errorf("... and %d more", len(diffs)-i)
							break
						}
						t.Error(d)
					}
				}
				if chaos && got.Health.Injected == nil {
					t.Error("chaos run round-tripped without its injection report")
				}
			})
		}
	}
}

// TestEncodeDeterministic pins Save's byte-level determinism: the same
// dataset encodes to identical bytes, and capturing twice changes
// nothing.
func TestEncodeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	ds := testDataset(t, 1, false)
	a, err := lifestore.Encode(ds.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := lifestore.Encode(ds.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two captures of the same dataset encoded differently")
	}
}

// TestLazyLookup checks the per-ASN path against the full decode and the
// in-memory adapter.
func TestLazyLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	ds := testDataset(t, 1, false)
	snap := ds.Snapshot()
	img, err := lifestore.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	st, err := lifestore.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if st.ASNCount() != len(snap.Lives) {
		t.Fatalf("store has %d ASNs, snapshot %d", st.ASNCount(), len(snap.Lives))
	}
	mem := lifestore.NewInMemory(snap)
	for _, want := range snap.Lives {
		got, ok, err := st.Lookup(want.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("AS%s missing from store", want.ASN)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AS%s: lazy decode differs from capture:\n got %+v\nwant %+v", want.ASN, got, want)
		}
		memGot, ok, _ := mem.Lookup(want.ASN)
		if !ok || !reflect.DeepEqual(memGot, want) {
			t.Fatalf("AS%s: in-memory adapter differs from capture", want.ASN)
		}
	}
	// An ASN that never lived: present in neither.
	const ghost = 4199999999
	if _, ok, err := st.Lookup(ghost); err != nil || ok {
		t.Fatalf("ghost ASN: ok=%v err=%v, want absent", ok, err)
	}
}

// TestCorruptionDetected flips bytes across the file and asserts every
// region is covered by a checksum on the read path that touches it.
func TestCorruptionDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	ds := testDataset(t, 1, false)
	snap := ds.Snapshot()
	img, err := lifestore.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(off int) []byte {
		c := append([]byte(nil), img...)
		c[off] ^= 0x40
		return c
	}

	if _, err := lifestore.OpenBytes(flip(0)); err == nil {
		t.Error("corrupt magic accepted")
	}
	if _, err := lifestore.OpenBytes(flip(8)); err == nil {
		t.Error("corrupt version accepted")
	}
	// A damaged section-table offset must fail the header checksum.
	if _, err := lifestore.OpenBytes(flip(lifestore.HeaderFixedLen + 4)); err == nil {
		t.Error("corrupt section table accepted")
	}
	// A flipped byte in an eager section must fail its section checksum.
	metaOff := lifestore.HeaderFixedLen + lifestore.SectionEntryLen*6 + 4
	if _, err := lifestore.OpenBytes(flip(metaOff)); err == nil {
		t.Error("corrupt meta section accepted")
	}
	// A flipped byte inside a block must fail that block's checksum on
	// Lookup (Open itself stays lazy and succeeds).
	st, err := lifestore.OpenBytes(flip(len(img) - 10))
	if err != nil {
		t.Fatalf("lazy open rejected block damage eagerly: %v", err)
	}
	last := snap.Lives[len(snap.Lives)-1].ASN
	if _, _, err := st.Lookup(last); err == nil {
		t.Error("corrupt block decoded without error")
	}
	if _, err := st.Snapshot(); err == nil {
		t.Error("full decode missed blocks-section damage")
	}
}

// TestVersionRejected pins the compat rule: a reader refuses a snapshot
// written with a different format version.
func TestVersionRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	img, err := lifestore.Encode(testDataset(t, 1, false).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	c := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(c[8:10], lifestore.FormatVersion+1)
	// Reseal the header so only the version check can reject it.
	nsec := int(binary.LittleEndian.Uint16(c[10:12]))
	tableEnd := lifestore.HeaderFixedLen + lifestore.SectionEntryLen*nsec
	binary.LittleEndian.PutUint32(c[tableEnd:tableEnd+4], lifestore.Checksum(c[:tableEnd]))
	if _, err := lifestore.OpenBytes(c); err == nil {
		t.Fatal("future-version snapshot accepted")
	}
}

// TestDiffReportsDivergence makes sure the round-trip oracle can
// actually see differences.
func TestDiffReportsDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year pipeline run")
	}
	snap := testDataset(t, 1, false).Snapshot()
	other := testDataset(t, 1, false).Snapshot()
	if diffs := lifestore.Diff(snap, other); len(diffs) != 0 {
		t.Fatalf("identical captures diff: %v", diffs)
	}
	other.Taxonomy.AdminComplete++
	other.Lives[0].Admin[0].Pieces++
	diffs := lifestore.Diff(snap, other)
	if len(diffs) != 2 {
		t.Fatalf("expected 2 diffs, got %d: %v", len(diffs), diffs)
	}
}
