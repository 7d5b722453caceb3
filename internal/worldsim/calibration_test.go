package worldsim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
)

// TestCalibrationShapes checks that the generated world reproduces the
// paper's headline distributional shapes at the default scale. Tolerances
// are deliberately loose: the goal is the shape, not the digit.
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation")
	}
	w := Generate(DefaultConfig())
	end := w.Config.End

	var perRIRAlive [asn.NumRIRs]int
	aliveASNs := make(map[asn.ASN]bool)
	unusedLives := 0
	cnLives, cnUnused := 0, 0
	totalLives := len(w.Lives)

	// Per-ASN observable activity.
	active := make(map[asn.ASN]bool)
	activeAtEnd := make(map[asn.ASN]bool)
	for _, s := range w.Segments {
		if s.Vis != VisFull {
			continue
		}
		active[s.ASN] = true
		if s.Span.Contains(end) {
			activeAtEnd[s.ASN] = true
		}
	}
	for _, l := range w.Lives {
		if l.Open {
			perRIRAlive[l.RIR]++
			aliveASNs[l.ASN] = true
		}
		// Observable activity overlapping the life?
		used := false
		for _, s := range w.Segments {
			if s.ASN == l.ASN && s.Vis == VisFull && s.Span.Overlaps(l.Alloc) {
				used = true
				break
			}
		}
		if !used {
			unusedLives++
		}
		if l.CC == "CN" {
			cnLives++
			if !used {
				cnUnused++
			}
		}
	}

	t.Logf("lives=%d orgs=%d segments=%d", totalLives, len(w.Orgs), len(w.Segments))
	t.Logf("alive at end per RIR: AfriNIC=%d APNIC=%d ARIN=%d LACNIC=%d RIPE=%d total=%d",
		perRIRAlive[asn.AfriNIC], perRIRAlive[asn.APNIC], perRIRAlive[asn.ARIN],
		perRIRAlive[asn.LACNIC], perRIRAlive[asn.RIPENCC], len(aliveASNs))
	t.Logf("BGP-active ASNs ever=%d, at end=%d", len(active), len(activeAtEnd))
	t.Logf("unused lives = %d (%.1f%%)", unusedLives, 100*float64(unusedLives)/float64(totalLives))
	t.Logf("CN lives = %d, unused = %d (%.1f%%)", cnLives, cnUnused, 100*float64(cnUnused)/float64(cnLives))
	t.Logf("planted: squats=%d hijacks=%d fatfingers=%d leaks=%d",
		len(w.DormantSquats), len(w.PostDeallocHijacks), len(w.FatFingers), len(w.LargeLeaks))

	if totalLives < 2000 || totalLives > 12000 {
		t.Errorf("total lives %d out of expected band", totalLives)
	}
	// RIPE overtakes ARIN by the end (Fig 4).
	if perRIRAlive[asn.RIPENCC] <= perRIRAlive[asn.ARIN] {
		t.Errorf("RIPE (%d) should exceed ARIN (%d) at window end",
			perRIRAlive[asn.RIPENCC], perRIRAlive[asn.ARIN])
	}
	// Roughly 28% of allocated ASNs not active at the end (§5).
	gap := 1 - float64(len(activeAtEnd))/float64(len(aliveASNs))
	t.Logf("allocated-but-inactive-at-end gap = %.1f%%", 100*gap)
	if gap < 0.15 || gap > 0.45 {
		t.Errorf("allocated-vs-BGP gap %.2f out of band", gap)
	}
	// Unused administrative lives near the paper's ~18%.
	frac := float64(unusedLives) / float64(totalLives)
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("unused-life fraction %.2f out of band", frac)
	}
	// China disproportionately unobserved (§6.3: 50.6%).
	if cnLives > 20 {
		cnFrac := float64(cnUnused) / float64(cnLives)
		if cnFrac < 0.35 || cnFrac > 0.70 {
			t.Errorf("CN unused fraction %.2f out of band", cnFrac)
		}
	}
	if len(w.PostDeallocHijacks) == 0 || len(w.DormantSquats) < 12 ||
		len(w.FatFingers) < 10 || len(w.LargeLeaks) < 10 {
		t.Error("planted anomaly populations too small")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.01
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Lives) != len(b.Lives) || len(a.Segments) != len(b.Segments) {
		t.Fatalf("sizes differ: %d/%d lives, %d/%d segments",
			len(a.Lives), len(b.Lives), len(a.Segments), len(b.Segments))
	}
	for i := range a.Lives {
		if a.Lives[i] != b.Lives[i] {
			t.Fatalf("life %d differs: %+v vs %+v", i, a.Lives[i], b.Lives[i])
		}
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatalf("segment %d differs", i)
		}
	}
}

func TestLivesOfSameASNDoNotOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	w := Generate(cfg)
	byASN := make(map[asn.ASN][]Life)
	for _, l := range w.Lives {
		byASN[l.ASN] = append(byASN[l.ASN], l)
	}
	for a, lives := range byASN {
		for i := 1; i < len(lives); i++ {
			if lives[i].Alloc.Start <= lives[i-1].Alloc.End {
				t.Fatalf("ASN %v has overlapping lives: %v then %v",
					a, lives[i-1].Alloc, lives[i].Alloc)
			}
		}
	}
}

func TestPlantedEventsConsistency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	w := Generate(cfg)
	for _, s := range w.DormantSquats {
		lives := w.LivesOf(s.ASN)
		inside := false
		for _, l := range lives {
			if l.Alloc.ContainsInterval(s.Span) {
				inside = true
			}
		}
		if !inside {
			t.Errorf("dormant squat of %v at %v not inside any admin life", s.ASN, s.Span)
		}
	}
	for _, s := range w.PostDeallocHijacks {
		for _, l := range w.LivesOf(s.ASN) {
			if l.Alloc.Overlaps(s.Span) {
				t.Errorf("post-dealloc hijack of %v at %v overlaps admin life %v",
					s.ASN, s.Span, l.Alloc)
			}
		}
	}
	for _, s := range w.FatFingers {
		if len(w.LivesOf(s.ASN)) != 0 {
			t.Errorf("fat-finger origin %v is allocated", s.ASN)
		}
		if s.VictimASN == 0 {
			t.Errorf("fat-finger %v lacks a victim", s.ASN)
		}
		if !asn.ExactRepetition(s.ASN, s.VictimASN) && !asn.OneDigitOff(s.ASN, s.VictimASN) {
			t.Errorf("fat-finger %v does not resemble victim %v", s.ASN, s.VictimASN)
		}
	}
	for _, s := range w.LargeLeaks {
		if len(w.LivesOf(s.ASN)) != 0 {
			t.Errorf("large-leak origin %v is allocated", s.ASN)
		}
		if s.ASN < 100_000_000 {
			t.Errorf("large-leak ASN %v not large", s.ASN)
		}
		if s.ASN.Reserved() {
			t.Errorf("large-leak ASN %v is a bogon", s.ASN)
		}
	}
}

func TestSegmentsWithinWindowAndSorted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	w := Generate(cfg)
	prev := dates.None
	for _, s := range w.Segments {
		if s.Span.Start < prev {
			t.Fatal("segments not sorted by start")
		}
		prev = s.Span.Start
		if s.Span.End < cfg.Start || s.Span.Start > cfg.End {
			t.Errorf("segment %v of %v fully outside window", s.Span, s.ASN)
		}
	}
}

func TestERXAndPlaceholderPopulationsExist(t *testing.T) {
	w := Generate(DefaultConfig())
	erx, placeholder, nir, failed32, transfers := 0, 0, 0, 0, 0
	for _, l := range w.Lives {
		switch l.Kind {
		case LifeERX:
			erx++
			if l.PlaceholderQuirk {
				placeholder++
			}
		case LifeNIRBlock:
			nir++
		case LifeFailed32:
			failed32++
		}
		if l.HasTransfer {
			transfers++
		}
	}
	t.Logf("erx=%d placeholder=%d nir=%d failed32=%d transfers=%d",
		erx, placeholder, nir, failed32, transfers)
	if erx == 0 || placeholder == 0 || nir == 0 || failed32 == 0 || transfers == 0 {
		t.Error("expected all special populations to be present at default scale")
	}
}

// worldDigest hashes everything Generate decides: orgs, lives, BGP
// segments and planted events, in order.
func worldDigest(w *World) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%v|%v|%v|%v|%v|%v|%v", w.Orgs, w.Lives, w.Segments, w.TransitASNs,
		w.HijackFactory, w.DormantSquats, w.PostDeallocHijacks, w.FatFingers, w.LargeLeaks)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestShortWindows pins that Generate returns a world for any End >=
// Start — the anomaly planters used to draw offsets from [0, window-40)
// and panicked on windows that short — and that clamping those draws
// left every world a roomier window generates byte-identical: the
// digests below were taken before the clamp existed.
func TestShortWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.005
	cfg.Start = dates.MustParse("2010-01-01")
	for _, days := range []int{1, 2, 10, 11, 40, 41} {
		cfg.End = cfg.Start.AddDays(days - 1)
		w := Generate(cfg)
		if len(w.Lives) == 0 {
			t.Errorf("%d-day window: no lives generated", days)
		}
		for _, l := range w.Lives {
			if l.Alloc.End > cfg.End {
				t.Errorf("%d-day window: life of AS%s ends %s, after the window", days, l.ASN, l.Alloc.End)
			}
		}
	}

	for _, c := range []struct {
		scale      float64
		start, end string
		want       string
	}{
		{0.01, "2004-01-01", "2005-12-31", "230f87859e739a91"},  // pipeline's golden JSON world
		{0.04, "2004-01-01", "2004-03-31", "6fe8257af2943acb"},  // the benchmark's batch world
		{0.005, "2010-01-01", "2010-02-11", "9c5f64f957ccd58e"}, // 42 days: the shortest window that never panicked
	} {
		cfg := DefaultConfig()
		cfg.Scale = c.scale
		cfg.Start, cfg.End = dates.MustParse(c.start), dates.MustParse(c.end)
		if got := worldDigest(Generate(cfg)); got != c.want {
			t.Errorf("scale %v %s..%s: world digest %s, want %s", c.scale, c.start, c.end, got, c.want)
		}
	}
}

// TestGenerateDigestPinned: the world a seed generates is fixed, not
// only repeatable. The digests cover every life and segment at two
// scales, so a change that reorders the generator's rng draws (or any
// field it writes) fails here even when two runs of the new code agree.
func TestGenerateDigestPinned(t *testing.T) {
	for _, c := range []struct {
		scale       float64
		lives, segs string
	}{
		{0.04, "55a0fc1e0b86c9a2", "40664e44315972d4"},
		{0.25, "e755204e6e6e0400", "a6eb14c77374cc6a"},
	} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Scale = 7, c.scale
		w := Generate(cfg)
		lives, segs := fnv.New64a(), fnv.New64a()
		for i := range w.Lives {
			fmt.Fprintf(lives, "%+v\n", w.Lives[i])
		}
		for i := range w.Segments {
			fmt.Fprintf(segs, "%+v\n", w.Segments[i])
		}
		gotLives, gotSegs := fmt.Sprintf("%016x", lives.Sum64()), fmt.Sprintf("%016x", segs.Sum64())
		if gotLives != c.lives || gotSegs != c.segs {
			t.Errorf("scale %v: %d lives digest %s, %d segments digest %s; pinned %s, %s",
				c.scale, len(w.Lives), gotLives, len(w.Segments), gotSegs, c.lives, c.segs)
		}
	}
}
