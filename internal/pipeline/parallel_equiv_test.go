// Parallel/sequential equivalence property — the contract of the
// internal/parallel rewiring: for any worker count, on clean and chaos
// inputs, a Run produces byte-identical Listing-1 JSON outputs and an
// identical lifestore snapshot encoding. External test package because
// lifestore imports pipeline.
package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"parallellives/internal/dates"
	"parallellives/internal/faults"
	"parallellives/internal/lifestore"
	"parallellives/internal/pipeline"
)

// equivOptions is a reduced window sized so the whole worker sweep stays
// fast under -race while still producing non-trivial lifetimes in every
// taxonomy class.
func equivOptions() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.World.Scale = 0.01
	opts.World.Start = dates.MustParse("2004-01-01")
	opts.World.End = dates.MustParse("2004-06-30")
	return opts
}

// runFingerprint runs the pipeline and returns the byte-identity
// witnesses: both Listing-1 JSON documents and the encoded lifestore
// snapshot.
func runFingerprint(t *testing.T, opts pipeline.Options) (admin, op, snap []byte) {
	t.Helper()
	ds, err := pipeline.Run(opts)
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	var ab, ob bytes.Buffer
	if err := ds.WriteAdminJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteOpJSON(&ob); err != nil {
		t.Fatal(err)
	}
	enc, err := lifestore.Encode(ds.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return ab.Bytes(), ob.Bytes(), enc
}

func TestParallelEquivalence(t *testing.T) {
	storm := faults.DefaultStorm(7)
	chaos := equivOptions()
	chaos.Wire = true
	chaos.Inject = &storm
	chaos.FaultPolicy = faults.Degrade

	cases := []struct {
		name string
		opts pipeline.Options
	}{
		{"clean", equivOptions()},
		{"chaos", chaos},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var refAdmin, refOp, refSnap []byte
			for _, workers := range []int{1, 2, 4, 8} {
				opts := tc.opts
				opts.Workers = workers
				admin, op, snap := runFingerprint(t, opts)
				if workers == 1 {
					if len(admin) == 0 || len(op) == 0 {
						t.Fatal("sequential reference run produced empty datasets")
					}
					refAdmin, refOp, refSnap = admin, op, snap
					continue
				}
				if !bytes.Equal(admin, refAdmin) {
					t.Errorf("workers=%d: admin JSON differs from sequential run", workers)
				}
				if !bytes.Equal(op, refOp) {
					t.Errorf("workers=%d: op JSON differs from sequential run", workers)
				}
				if !bytes.Equal(snap, refSnap) {
					t.Errorf("workers=%d: lifestore snapshot differs from sequential run (%s vs %s)",
						workers, shortSum(snap), shortSum(refSnap))
				}
			}
		})
	}
}

func shortSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}
