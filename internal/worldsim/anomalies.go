package worldsim

import (
	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/intervals"
)

// plantAnomalies injects the malicious and misconfigured behaviours the
// paper's joint lens surfaces: dormant-ASN squatting (§6.1.2),
// post-deallocation hijacks (§6.4), fat-finger origins (§6.4) and
// internal large-ASN leaks (§6.4). Every planted event is recorded in the
// World so detector tests can measure recall.
func (g *generator) plantAnomalies() {
	lastEnd := make(map[asn.ASN]dates.Day)
	hasOp := make(map[asn.ASN]bool)
	for _, s := range g.world.Segments {
		if s.Vis != VisFull {
			continue
		}
		hasOp[s.ASN] = true
		if cur, ok := lastEnd[s.ASN]; !ok || s.Span.End > cur {
			lastEnd[s.ASN] = s.Span.End
		}
	}
	livesByASN := make(map[asn.ASN][]int)
	for i, l := range g.world.Lives {
		livesByASN[l.ASN] = append(livesByASN[l.ASN], i)
	}

	g.plantDormantSquats(lastEnd, hasOp)
	g.plantPostDeallocHijacks(lastEnd, hasOp, livesByASN)
	g.plantFatFingers()
	g.plantLargeLeaks()
	g.plantNeverAllocatedNoise()
}

// dormancyWindow computes when a life's window-visible dormancy begins.
func (g *generator) dormancyWindow(l *Life, lastEnd map[asn.ASN]dates.Day, hasOp map[asn.ASN]bool) (dates.Day, bool) {
	dormSince := dates.Max(l.Alloc.Start, g.cfg.Start)
	if hasOp[l.ASN] {
		le := lastEnd[l.ASN]
		if le >= l.Alloc.End.AddDays(-60) {
			return 0, false // active to the end; nothing dormant
		}
		if le.AddDays(1) > dormSince {
			dormSince = le.AddDays(1)
		}
	}
	return dormSince, true
}

func (g *generator) plantDormantSquats(lastEnd map[asn.ASN]dates.Day, hasOp map[asn.ASN]bool) {
	var cands []int
	for i := range g.world.Lives {
		l := &g.world.Lives[i]
		if l.Kind == LifeTransit || l.Kind == LifeFailed32 {
			continue
		}
		dormSince, ok := g.dormancyWindow(l, lastEnd, hasOp)
		if !ok {
			continue
		}
		allocEnd := dates.Min(l.Alloc.End, g.cfg.End)
		if allocEnd.Sub(dormSince) > 1150 {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return
	}
	perm := g.rng.Perm(len(cands))
	want := scaleCount(110, g.cfg.Scale, 12)
	planted := 0
	for _, pi := range perm {
		if planted >= want {
			break
		}
		l := &g.world.Lives[cands[pi]]
		dormSince, _ := g.dormancyWindow(l, lastEnd, hasOp)
		allocEnd := dates.Min(l.Alloc.End, g.cfg.End)
		slack := allocEnd.Sub(dormSince) - 1001
		if slack < 10 {
			continue
		}
		wake := dormSince.AddDays(1001 + g.rng.Intn(slack))
		burst := 5 + g.rng.Intn(36)
		// Keep the burst under 4% of the administrative life so the
		// paper's 5% relative-duration filter catches it.
		if maxBurst := l.Alloc.Days() / 25; burst > maxBurst {
			burst = maxBurst
		}
		if burst < 3 {
			burst = 3
		}
		if wake.AddDays(burst) > allocEnd {
			burst = allocEnd.Sub(wake)
			if burst < 3 {
				continue
			}
		}
		upstream := g.world.HijackFactory
		if g.rng.Float64() > 0.6 {
			upstream = g.pickTransit(l.ASN)
		}
		seg := Segment{
			ASN:  l.ASN,
			Span: intervals.New(wake, wake.AddDays(burst-1)),
			Kind: SegDormantSquat, Vis: VisFull,
			Upstream:    upstream,
			PrefixCount: 30 + g.rng.Intn(170),
			VictimASN:   g.pickTransit(l.ASN), // prefix holder being squatted
		}
		g.world.Segments = append(g.world.Segments, seg)
		g.world.DormantSquats = append(g.world.DormantSquats, seg)
		lastEnd[l.ASN] = seg.Span.End
		hasOp[l.ASN] = true
		planted++
	}

	// The coordinated 2020 wave: ASNs waking almost simultaneously after
	// years of inactivity, announcing a few prefixes each through the
	// same upstream (§6.1.2's April–July 2020 case).
	waveStart := dates.MustParse("2020-04-05")
	waveWant := 10
	for _, pi := range perm {
		if waveWant == 0 {
			break
		}
		l := &g.world.Lives[cands[pi]]
		dormSince, ok := g.dormancyWindow(l, lastEnd, hasOp)
		if !ok {
			continue
		}
		wake := waveStart.AddDays(g.rng.Intn(80))
		allocEnd := dates.Min(l.Alloc.End, g.cfg.End)
		if wake.Sub(dormSince) < 1001 || wake.AddDays(30) > allocEnd {
			continue
		}
		seg := Segment{
			ASN:  l.ASN,
			Span: intervals.New(wake, wake.AddDays(10+g.rng.Intn(20))),
			Kind: SegDormantSquat, Vis: VisFull,
			Upstream:    g.world.HijackFactory,
			PrefixCount: 3 + g.rng.Intn(4),
			VictimASN:   g.pickTransit(l.ASN),
		}
		g.world.Segments = append(g.world.Segments, seg)
		g.world.DormantSquats = append(g.world.DormantSquats, seg)
		lastEnd[l.ASN] = seg.Span.End
		hasOp[l.ASN] = true
		waveWant--
	}
}

func (g *generator) plantPostDeallocHijacks(lastEnd map[asn.ASN]dates.Day, hasOp map[asn.ASN]bool, livesByASN map[asn.ASN][]int) {
	want := 9
	for i := range g.world.Lives {
		if want == 0 {
			break
		}
		l := &g.world.Lives[i]
		if l.Open || l.HasTransfer || l.Kind == LifeTransit || l.Kind == LifeFailed32 {
			continue
		}
		if l.Alloc.End < g.cfg.Start || l.Alloc.End.AddDays(90) > g.cfg.End {
			continue
		}
		if hasOp[l.ASN] && lastEnd[l.ASN] > l.Alloc.End.AddDays(-3000) {
			continue // recently active; the paper's cases were long-quiet
		}
		// Reject ASNs that get reallocated right after this life: the
		// hijack must fall outside any administrative lifetime.
		start := l.Alloc.End.AddDays(3 + g.rng.Intn(40))
		end := start.AddDays(3 + g.rng.Intn(27))
		clash := false
		for _, li := range livesByASN[l.ASN] {
			o := &g.world.Lives[li]
			if li != i && o.Alloc.Start <= end.AddDays(30) && o.Alloc.End >= start {
				clash = true
				break
			}
		}
		if clash || g.rng.Float64() > 0.3 {
			continue
		}
		seg := Segment{
			ASN: l.ASN, Span: intervals.New(start, end),
			Kind: SegPostDeallocHijack, Vis: VisFull,
			Upstream:    g.world.HijackFactory,
			PrefixCount: 3 + g.rng.Intn(10),
			VictimASN:   g.pickTransit(l.ASN),
		}
		g.world.Segments = append(g.world.Segments, seg)
		g.world.PostDeallocHijacks = append(g.world.PostDeallocHijacks, seg)
		lastEnd[l.ASN] = seg.Span.End
		hasOp[l.ASN] = true
		want--
	}
}

// neverAllocatable reports whether a could plausibly never be allocated
// in this world: outside every registry pool and not reserved.
func (g *generator) neverAllocatable(a asn.ASN) bool {
	if a == 0 || a.Reserved() || g.allocated[a] {
		return false
	}
	for _, m := range g.models {
		if a >= m.pool16Lo && a <= m.pool16Hi {
			return false
		}
		if a >= m.pool32Base && a < m.pool32Base+60000 {
			return false
		}
	}
	return true
}

// activeVictims returns full-visibility normal segments usable as
// fat-finger victims, in deterministic order.
func (g *generator) activeVictims() []Segment {
	var out []Segment
	for _, s := range g.world.Segments {
		if s.Vis == VisFull && (s.Kind == SegNormal || s.Kind == SegTransit) &&
			s.Span.Days() > 200 {
			out = append(out, s)
		}
	}
	return out
}

func (g *generator) plantFatFingers() {
	victims := g.activeVictims()
	if len(victims) == 0 {
		return
	}
	want := scaleCount(260, g.cfg.Scale, 14)
	perm := g.rng.Perm(len(victims))
	planted := 0
	for _, vi := range perm {
		if planted >= want {
			break
		}
		v := victims[vi]
		doubled := g.rng.Float64() < 0.76
		var bogus asn.ASN
		var upstream asn.ASN
		if doubled {
			// Failed prepend: origin is the victim's ASN written twice,
			// first hop is the victim itself.
			d, err := asn.Parse(v.ASN.String() + v.ASN.String())
			if err != nil || !g.neverAllocatable(d) {
				continue
			}
			bogus, upstream = d, v.ASN
		} else {
			// Mistyped origin causing a MOAS with the victim.
			bogus = g.mutateDigit(v.ASN)
			if bogus == 0 {
				continue
			}
			upstream = v.Upstream
		}
		// Duration mixture from §6.4: many one-day events, a tail of
		// months-long ones.
		var durDays int
		switch x := g.rng.Float64(); {
		case x < 0.5:
			durDays = 1
		case x < 0.8:
			durDays = 2 + g.rng.Intn(29)
		case x < 0.96:
			durDays = 31 + g.rng.Intn(270)
		default:
			durDays = 366 + g.rng.Intn(365)
		}
		maxStart := v.Span.Days() - durDays
		if maxStart < 1 {
			continue
		}
		start := v.Span.Start.AddDays(g.rng.Intn(maxStart))
		seg := Segment{
			ASN: bogus, Span: intervals.New(start, start.AddDays(durDays-1)),
			Kind: SegFatFinger, Vis: VisFull,
			Upstream: upstream, PrefixCount: 1 + g.rng.Intn(3),
			VictimASN: v.ASN,
		}
		g.allocated[bogus] = true // reserve the number against later picks
		g.world.Segments = append(g.world.Segments, seg)
		g.world.FatFingers = append(g.world.FatFingers, seg)
		planted++
	}
}

// mutateDigit returns a never-allocatable ASN differing from a in exactly
// one digit, or 0 if none is found quickly.
func (g *generator) mutateDigit(a asn.ASN) asn.ASN {
	s := []byte(a.String())
	for try := 0; try < 20; try++ {
		i := g.rng.Intn(len(s))
		c := byte('0' + g.rng.Intn(10))
		if c == s[i] || (i == 0 && c == '0') {
			continue
		}
		mut := append([]byte(nil), s...)
		mut[i] = c
		v, err := asn.Parse(string(mut))
		if err == nil && g.neverAllocatable(v) && asn.OneDigitOff(a, v) {
			return v
		}
	}
	return 0
}

// dayOffset draws a day offset in [0, room). A window too short to leave
// any room gets offset 0 from the same single draw, so the random stream
// — and every world a roomier window generates — is what it always was.
func (g *generator) dayOffset(room int) int { return g.rng.Intn(max(room, 1)) }

func (g *generator) plantLargeLeaks() {
	want := scaleCount(470, g.cfg.Scale, 10)
	planted := 0
	for planted < want {
		// Large internal numbers leaking to the global table: more
		// digits than any allocated ASN (the paper's AS290012147 case).
		a := asn.ASN(100_000_000 + g.rng.Int63n(4_000_000_000))
		if !g.neverAllocatable(a) {
			continue
		}
		start := g.cfg.Start.AddDays(g.dayOffset(g.cfg.End.Sub(g.cfg.Start) - 40))
		dur := g.lognormDays(300, 1.2, 30, 2500)
		end := start.AddDays(dur)
		if end > g.cfg.End {
			end = g.cfg.End
		}
		seg := Segment{
			ASN: a, Span: intervals.New(start, end),
			Kind: SegLargeLeak, Vis: VisFull,
			Upstream: g.pickTransit(0), PrefixCount: 1,
		}
		g.allocated[a] = true
		g.world.Segments = append(g.world.Segments, seg)
		g.world.LargeLeaks = append(g.world.LargeLeaks, seg)
		planted++
	}
}

// plantNeverAllocatedNoise emits short-lived never-allocated origins with
// no clean explanation — most last a single day (§6.4: only 427 of 868
// never-allocated ASNs were active more than one day).
func (g *generator) plantNeverAllocatedNoise() {
	want := scaleCount(140, g.cfg.Scale, 8)
	planted := 0
	for planted < want {
		a := asn.ASN(400_000 + g.rng.Int63n(60_000_000))
		if !g.neverAllocatable(a) {
			continue
		}
		start := g.cfg.Start.AddDays(g.dayOffset(g.cfg.End.Sub(g.cfg.Start) - 10))
		dur := 1
		if g.rng.Float64() < 0.3 {
			dur = 2 + g.rng.Intn(20)
		}
		seg := Segment{
			ASN: a, Span: intervals.New(start, start.AddDays(dur-1)),
			Kind: SegFatFinger, Vis: VisFull,
			Upstream: g.pickTransit(0), PrefixCount: 1,
		}
		g.allocated[a] = true
		g.world.Segments = append(g.world.Segments, seg)
		planted++
	}
}

// plantNoise emits spurious single-peer observations that the scanner's
// >1-peer visibility rule must reject (§3.2).
func (g *generator) plantNoise() {
	n := 80
	span := g.cfg.End.Sub(g.cfg.Start)
	for i := 0; i < n; i++ {
		day := g.cfg.Start.AddDays(g.dayOffset(span))
		var a asn.ASN
		if g.rng.Float64() < 0.5 && len(g.world.Lives) > 0 {
			a = g.world.Lives[g.rng.Intn(len(g.world.Lives))].ASN
		} else {
			a = asn.ASN(900_000 + g.rng.Int63n(1_000_000))
		}
		g.world.Segments = append(g.world.Segments, Segment{
			ASN: a, Span: intervals.New(day, day),
			Kind: SegNormal, Vis: VisSinglePeer,
			Upstream: g.pickTransit(a), PrefixCount: 1,
		})
	}
}
