package worldsim

import (
	"math"
	"math/rand"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/grow"
	"parallellives/internal/intervals"
)

// generator carries the state threaded through world generation.
type generator struct {
	cfg    Config
	rng    *rand.Rand
	models [asn.NumRIRs]rirModel
	world  *World

	next16 [asn.NumRIRs]asn.ASN
	next32 [asn.NumRIRs]asn.ASN

	// allocated tracks every ASN ever used by the generator, so planted
	// never-allocated origins can be checked against it.
	allocated map[asn.ASN]bool

	// reuseQueue holds deallocated ASNs waiting for reallocation;
	// reuseSpare is the array serviceReuseQueue fills next.
	reuseQueue, reuseSpare []reuseCandidate

	// siblingOrgs are the large multi-ASN organizations.
	siblingOrgs []int
}

type reuseCandidate struct {
	a             asn.ASN
	rir           asn.RIR
	availableFrom dates.Day
	prevOrg       int
	prevRegDate   dates.Day
	prevCC        string
}

// Generate builds the deterministic ground-truth world for cfg.
func Generate(cfg Config) *World {
	if cfg.Scale <= 0 {
		panic("worldsim: Scale must be positive")
	}
	g := &generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		models:    models(),
		world:     &World{Config: cfg},
		allocated: make(map[asn.ASN]bool),
	}
	for _, r := range asn.All() {
		g.next16[r] = g.models[r].pool16Lo
		g.next32[r] = g.models[r].pool32Base
	}
	g.world.rng = g.rng

	g.buildTransitBackbone()
	g.buildSiblingOrgs()
	for _, r := range asn.All() {
		g.buildHistoric(r)
	}
	g.buildInWindowBirths()
	g.buildInterRIRTransfers()
	g.buildOperationalLives()
	g.plantAnomalies()
	g.plantNoise()

	sort.SliceStable(g.world.Segments, func(i, j int) bool {
		a, b := g.world.Segments[i], g.world.Segments[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		return a.ASN < b.ASN
	})
	sort.SliceStable(g.world.Lives, func(i, j int) bool {
		a, b := g.world.Lives[i], g.world.Lives[j]
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		return a.Alloc.Start < b.Alloc.Start
	})
	return g.world
}

// lognormDays samples a lognormal day count with the given median and
// shape, clipped to [lo, hi].
func (g *generator) lognormDays(median float64, sigma float64, lo, hi int) int {
	v := int(math.Round(median * math.Exp(g.rng.NormFloat64()*sigma)))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func (g *generator) newOrg(rir asn.RIR, cc string, sibling bool) int {
	id := len(g.world.Orgs)
	cone := 0
	switch x := g.rng.Float64(); {
	case x < 0.85:
		cone = 0
	case x < 0.95:
		cone = 1 + g.rng.Intn(10)
	case x < 0.99:
		cone = 10 + g.rng.Intn(90)
	default:
		cone = 100 + g.rng.Intn(4900)
	}
	g.world.Orgs = append(g.world.Orgs, Org{
		ID: id, CC: cc, RIR: rir, ConeSize: cone, SiblingGroup: sibling,
	})
	return id
}

func (g *generator) take16(r asn.RIR) asn.ASN {
	a := g.next16[r]
	g.next16[r]++
	g.allocated[a] = true
	return a
}

func (g *generator) take32(r asn.RIR) asn.ASN {
	a := g.next32[r]
	g.next32[r]++
	g.allocated[a] = true
	return a
}

// buildTransitBackbone creates the always-on transit ASNs that serve as
// collector peers and upstreams.
func (g *generator) buildTransitBackbone() {
	w := g.world
	type seatT struct {
		rir asn.RIR
		cc  string
	}
	seats := []seatT{
		{asn.ARIN, "US"}, {asn.ARIN, "US"}, {asn.ARIN, "US"}, {asn.ARIN, "CA"},
		{asn.RIPENCC, "DE"}, {asn.RIPENCC, "GB"}, {asn.RIPENCC, "NL"}, {asn.RIPENCC, "SE"},
		{asn.APNIC, "JP"}, {asn.APNIC, "AU"}, {asn.APNIC, "SG"},
		{asn.LACNIC, "BR"}, {asn.LACNIC, "AR"},
		{asn.AfriNIC, "ZA"},
	}
	for _, s := range seats {
		a := g.take16(s.rir)
		org := g.newOrg(s.rir, s.cc, false)
		w.Orgs[org].ConeSize = 2000 + g.rng.Intn(30000)
		reg := dates.FromYMD(1990+g.rng.Intn(10), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
		w.Lives = append(w.Lives, Life{
			ASN: a, OrgID: org, RIR: s.rir, CC: s.cc, Kind: LifeTransit,
			RegDate: reg,
			Alloc:   intervals.New(reg, g.cfg.End),
			Open:    true,
		})
		w.TransitASNs = append(w.TransitASNs, a)
	}
	// The hijack factory is a smaller RIPE transit allocated mid-window
	// (the paper's AS203040 was a 32-bit RIPE resource).
	fac := g.take32(asn.RIPENCC)
	org := g.newOrg(asn.RIPENCC, "BG", false)
	facStart := dates.MustParse("2013-05-14")
	if facStart >= g.cfg.End {
		facStart = g.cfg.Start // short test windows: factory exists throughout
	}
	w.Lives = append(w.Lives, Life{
		ASN: fac, OrgID: org, RIR: asn.RIPENCC, CC: "BG", Kind: LifeTransit,
		RegDate: facStart, Alloc: intervals.New(facStart, g.cfg.End), Open: true,
	})
	w.TransitASNs = append(w.TransitASNs, fac)
	w.HijackFactory = fac
}

// buildSiblingOrgs creates the large organizations that hold many ASNs
// and announce only a minority of them (§6.3).
func (g *generator) buildSiblingOrgs() {
	type group struct {
		rir   asn.RIR
		cc    string
		count int
	}
	groups := []group{
		{asn.ARIN, "US", 40}, // defense-department analogue
		{asn.ARIN, "US", 18}, // large registry-operator analogue
		{asn.RIPENCC, "FR", 20},
		{asn.APNIC, "JP", 10},
	}
	for _, grp := range groups {
		n := scaleCount(grp.count, g.cfg.Scale, 4)
		org := g.newOrg(grp.rir, grp.cc, true)
		g.siblingOrgs = append(g.siblingOrgs, org)
		for i := 0; i < n; i++ {
			a := g.take16(grp.rir)
			reg := dates.FromYMD(1992+g.rng.Intn(8), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
			g.world.Lives = append(g.world.Lives, Life{
				ASN: a, OrgID: org, RIR: grp.rir, CC: grp.cc, Kind: LifeHistoric,
				RegDate: reg, Alloc: intervals.New(reg, g.cfg.End), Open: true,
			})
		}
	}
}

// scaleCount scales an unscaled real-world count, enforcing a floor so
// rare-but-load-bearing populations survive small scales.
func scaleCount(real int, scale float64, floor int) int {
	n := int(math.Round(float64(real) * scale))
	if n < floor {
		n = floor
	}
	return n
}

// historicRegDate draws a pre-window registration date with the dot-com
// spike around 1999–2001 (Fig 10's left edge).
func (g *generator) historicRegDate() dates.Day {
	var year int
	switch x := g.rng.Float64(); {
	case x < 0.08:
		year = 1984 + g.rng.Intn(8) // 1984-1991
	case x < 0.25:
		year = 1992 + g.rng.Intn(6) // 1992-1997
	case x < 0.62:
		year = 1998 + g.rng.Intn(4) // the bubble: 1998-2001
	default:
		year = 2002 + g.rng.Intn(2) // 2002-2003
	}
	return dates.FromYMD(year, 1+g.rng.Intn(12), 1+g.rng.Intn(28))
}

// buildHistoric creates the ASNs already allocated when the window opens.
func (g *generator) buildHistoric(r asn.RIR) {
	m := &g.models[r]
	n := scaleCount(m.historicCount, g.cfg.Scale, 10)
	// ERX populations: shares of the 5,026 transfers from ARIN, plus the
	// 204-ASN AfriNIC second phase.
	erxShare := map[asn.RIR]float64{asn.RIPENCC: 0.14, asn.APNIC: 0.10, asn.LACNIC: 0.08, asn.AfriNIC: 0.03}
	for i := 0; i < n; i++ {
		a := g.take16(r)
		reg := g.historicRegDate()
		cc := m.pickCountry(g.rng, reg.Year()).cc
		org := g.newOrg(r, cc, false)
		kind := LifeHistoric
		placeholder := false
		if share, ok := erxShare[r]; ok && g.rng.Float64() < share {
			kind = LifeERX
			// ERX resources are old early registrations.
			reg = dates.FromYMD(1985+g.rng.Intn(10), 1+g.rng.Intn(12), 1+g.rng.Intn(28))
			if r == asn.RIPENCC && g.rng.Float64() < 0.35 {
				placeholder = true // files will show 1993-09-01
			}
		}
		life := Life{
			ASN: a, OrgID: org, RIR: r, CC: cc, Kind: kind,
			RegDate: reg, PlaceholderQuirk: placeholder,
		}
		// Most historic lives survive far into the window; some end.
		switch x := g.rng.Float64(); {
		case x < 0.55:
			life.Alloc = intervals.New(reg, g.cfg.End)
			life.Open = true
		default:
			// Dies somewhere inside the window. Late-2003 registrations
			// can postdate an early death day; clamp to a one-day life
			// rather than an inverted interval.
			endOffset := g.dayOffset(g.cfg.End.Sub(g.cfg.Start))
			end := dates.Min(g.cfg.Start.AddDays(endOffset+1), g.cfg.End) // a one-day window has no later day to die on
			if end < reg {
				end = reg
			}
			life.Alloc = intervals.New(reg, end)
			life.QuarantineDays = 30 + g.rng.Intn(150)
			g.maybeScheduleReuse(&life)
		}
		g.world.Lives = append(g.world.Lives, life)
	}
}

// maybeScheduleReuse enqueues a just-closed life's ASN for reallocation.
func (g *generator) maybeScheduleReuse(l *Life) {
	m := &g.models[l.RIR]
	if g.rng.Float64() >= m.pReuse {
		return
	}
	g.reuseQueue = grow.Append(g.reuseQueue, reuseCandidate{
		a:             l.ASN,
		rir:           l.RIR,
		availableFrom: l.Alloc.End.AddDays(l.QuarantineDays),
		prevOrg:       l.OrgID,
		prevRegDate:   l.RegDate,
		prevCC:        l.CC,
	})
}

// sampleDuration draws an in-window life duration class; returns
// (durationDays, open). reused biases the mixture toward shorter lives:
// numbers that already churned once tend to churn again (the registries
// reclaiming them are the same ones reassigning them).
func (g *generator) sampleDuration(r asn.RIR, year int, reused bool) (int, bool) {
	m := &g.models[r]
	pShort := m.pShortLife
	if year >= 2010 {
		// Life expectancy converges across registries in the last decade
		// (Fig 14 discussion).
		pShort = 0.10
	}
	pLongOpen := m.pLongOpen
	if reused {
		pShort += 0.08
		pLongOpen -= 0.15
		if pLongOpen < 0.2 {
			pLongOpen = 0.2
		}
	}
	midYears := 8
	if r == asn.ARIN || r == asn.RIPENCC {
		// The two registries with active reclaim policies churn their
		// mid-length allocations faster (Appendix B), which is what
		// makes second and third lives of the same number common there
		// (Table 2).
		midYears = 4
	}
	switch x := g.rng.Float64(); {
	case x < pShort:
		return 10 + g.rng.Intn(350), false
	case x < pShort+(1-pLongOpen-pShort)*0.9:
		return 365 + g.rng.Intn(365*midYears), false
	default:
		return 0, true
	}
}

// buildInWindowBirths walks the window day by day allocating new ASNs per
// the registry rate curves, and services the reallocation queue.
func (g *generator) buildInWindowBirths() {
	var acc [asn.NumRIRs]float64
	// nirAcc throttles APNIC NIR block delegations.
	nirGap := int(90 / math.Max(g.cfg.Scale*25, 0.25)) // scale-adjusted cadence
	if nirGap < 30 {
		nirGap = 30
	}
	nextNIR := g.cfg.Start.AddDays(g.rng.Intn(nirGap))

	for d := g.cfg.Start; d <= g.cfg.End; d = d.AddDays(1) {
		year := d.Year()
		for _, r := range asn.All() {
			m := &g.models[r]
			if r == asn.AfriNIC && year < 2005 {
				continue // AfriNIC files begin in 2005
			}
			acc[r] += float64(m.annualRate[year]) * g.cfg.Scale / 365.0
			for acc[r] >= 1 {
				acc[r]--
				g.birth(r, d, year)
			}
		}
		if d >= nextNIR && year >= 2004 {
			g.nirBlock(d, year)
			nextNIR = d.AddDays(nirGap + g.rng.Intn(nirGap))
		}
		g.serviceReuseQueue(d)
	}
}

// birth creates one fresh allocation at day d.
func (g *generator) birth(r asn.RIR, d dates.Day, year int) {
	m := &g.models[r]
	use32 := g.rng.Float64() < m.share32[year]
	var a asn.ASN
	if use32 {
		a = g.take32(r)
	} else {
		a = g.take16(r)
	}
	cwt := m.pickCountry(g.rng, year)
	// A few allocations go to existing sibling organizations.
	var org int
	if len(g.siblingOrgs) > 0 && g.rng.Float64() < 0.02 {
		org = g.siblingOrgs[g.rng.Intn(len(g.siblingOrgs))]
	} else {
		org = g.newOrg(r, cwt.cc, false)
	}

	// Failed 32-bit deployment: a short unused life replaced by a 16-bit
	// number days later (§6.3).
	if use32 && year >= 2010 && g.rng.Float64() < m.fail32 {
		dur := 5 + g.rng.Intn(26)
		end := d.AddDays(dur)
		if end > g.cfg.End {
			end = g.cfg.End
		}
		g.world.Lives = append(g.world.Lives, Life{
			ASN: a, OrgID: org, RIR: r, CC: cwt.cc, Kind: LifeFailed32,
			RegDate: d, Alloc: intervals.New(d, end),
			QuarantineDays: 60 + g.rng.Intn(120),
		})
		// Replacement 16-bit allocation for the same organization.
		rd := end.AddDays(1 + g.rng.Intn(10))
		if rd < g.cfg.End {
			b := g.take16(r)
			g.finishBirth(b, org, r, cwt, rd, rd.Year(), LifeNormal)
		}
		return
	}
	g.finishBirth(a, org, r, cwt, d, year, LifeNormal)
}

// finishBirth creates a life with a sampled duration and schedules reuse.
func (g *generator) finishBirth(a asn.ASN, org int, r asn.RIR, cwt countryWeight, d dates.Day, year int, kind LifeKind) {
	g.finishBirthDur(a, org, r, cwt, d, year, kind, false)
}

// finishBirthDur is finishBirth with an explicit reused-duration bias.
func (g *generator) finishBirthDur(a asn.ASN, org int, r asn.RIR, cwt countryWeight, d dates.Day, year int, kind LifeKind, reused bool) {
	dur, open := g.sampleDuration(r, year, reused)
	life := Life{ASN: a, OrgID: org, RIR: r, CC: cwt.cc, Kind: kind, RegDate: d}
	if open || d.AddDays(dur) >= g.cfg.End {
		life.Alloc = intervals.New(d, g.cfg.End)
		life.Open = true
	} else {
		life.Alloc = intervals.New(d, d.AddDays(dur))
		life.QuarantineDays = 30 + g.rng.Intn(150)
		g.maybeScheduleReuse(&life)
	}
	g.world.Lives = append(g.world.Lives, life)
}

// nirBlock creates an APNIC block delegation routed through a National
// Internet Registry (§2, §4.1): several consecutive ASNs allocated on the
// same day with the same registration date.
func (g *generator) nirBlock(d dates.Day, year int) {
	m := &g.models[asn.APNIC]
	nirCCs := []string{"JP", "ID", "CN", "IN", "KR", "VN"}
	cc := nirCCs[g.rng.Intn(len(nirCCs))]
	size := 3 + g.rng.Intn(6)
	use32 := g.rng.Float64() < m.share32[year]
	org := g.newOrg(asn.APNIC, cc, false)
	for i := 0; i < size; i++ {
		var a asn.ASN
		if use32 {
			a = g.take32(asn.APNIC)
		} else {
			a = g.take16(asn.APNIC)
		}
		g.world.Lives = append(g.world.Lives, Life{
			ASN: a, OrgID: org, RIR: asn.APNIC, CC: cc, Kind: LifeNIRBlock,
			RegDate: d, Alloc: intervals.New(d, g.cfg.End), Open: true,
		})
	}
}

// serviceReuseQueue reallocates quarantine-expired ASNs. Reallocations
// created during the sweep can themselves schedule future reuse, so the
// queue is detached before filtering — the spare array takes the new
// entries — and the survivors appended after. The detached array is the
// next day's spare.
func (g *generator) serviceReuseQueue(d dates.Day) {
	queue := g.reuseQueue
	g.reuseQueue = g.reuseSpare[:0]
	kept := queue[:0]
	for _, c := range queue {
		if c.availableFrom > d {
			kept = append(kept, c)
			continue
		}
		// Some candidates linger in the pool before reallocation.
		if g.rng.Float64() < 0.97 {
			if c.availableFrom.AddDays(900) > d { // still plausibly waiting
				kept = append(kept, c)
				continue
			}
			// Waited too long: drop (never reused).
			continue
		}
		m := &g.models[c.rir]
		year := d.Year()
		if g.rng.Float64() < m.pReturnSame {
			// Returned to the previous holder. Every registry but
			// AfriNIC keeps the original registration date (§2).
			reg := c.prevRegDate
			kind := LifeReturnSame
			if c.rir == asn.AfriNIC {
				reg = d
			}
			dur, open := g.sampleDuration(c.rir, year, true)
			life := Life{ASN: c.a, OrgID: c.prevOrg, RIR: c.rir, CC: c.prevCC,
				Kind: kind, RegDate: reg}
			if open || d.AddDays(dur) >= g.cfg.End {
				life.Alloc = intervals.New(d, g.cfg.End)
				life.Open = true
			} else {
				life.Alloc = intervals.New(d, d.AddDays(dur))
				life.QuarantineDays = 30 + g.rng.Intn(150)
				g.maybeScheduleReuse(&life)
			}
			g.world.Lives = append(g.world.Lives, life)
			continue
		}
		// Fresh holder, fresh registration date.
		cwt := m.pickCountry(g.rng, year)
		org := g.newOrg(c.rir, cwt.cc, false)
		g.finishBirthDur(c.a, org, c.rir, cwt, d, year, LifeNormal, true)
	}
	g.reuseQueue = append(grow.Room(g.reuseQueue, len(kept)), kept...)
	g.reuseSpare = queue[:0]
}

// buildInterRIRTransfers splits a handful of open lives across two RIRs
// (§4.1: 342 real transfers).
func (g *generator) buildInterRIRTransfers() {
	want := scaleCount(342, g.cfg.Scale, 6)
	transferred := 0
	for i := range g.world.Lives {
		if transferred >= want {
			break
		}
		l := &g.world.Lives[i]
		if !l.Open || l.Kind != LifeNormal || l.Alloc.Start <= g.cfg.Start {
			continue
		}
		// Transfer roughly the right number by sampling sparsely.
		if g.rng.Float64() > 0.01 {
			continue
		}
		span := l.Alloc.End.Sub(l.Alloc.Start)
		if span < 700 {
			continue
		}
		cut := l.Alloc.Start.AddDays(300 + g.rng.Intn(span-400))
		var dst asn.RIR
		for {
			dst = asn.RIR(g.rng.Intn(int(asn.NumRIRs)))
			if dst != l.RIR {
				break
			}
		}
		gap := 0
		if g.rng.Float64() < 0.25 {
			gap = 3 + g.rng.Intn(25) // gapped transfer: two lifetimes
		}
		l.Open = false
		l.Alloc = intervals.New(l.Alloc.Start, cut)
		l.HasTransfer = true
		l.TransferredTo = dst
		g.world.Lives = append(g.world.Lives, Life{
			ASN: l.ASN, OrgID: l.OrgID, RIR: dst, CC: l.CC, Kind: LifeNormal,
			RegDate: l.RegDate, // transfers preserve registration dates
			Alloc:   intervals.New(cut.AddDays(1+gap), g.cfg.End),
			Open:    true,
		})
		transferred++
	}
}
