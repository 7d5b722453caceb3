package registry

import (
	"math/rand"
	"sort"

	"parallellives/internal/asn"
	"parallellives/internal/dates"
	"parallellives/internal/delegation"
	"parallellives/internal/intervals"
	"parallellives/internal/worldsim"
)

// dropEpisode suppresses a contiguous ASN range from extended files for a
// short day range (the "large ASN count drops" of §3.1 step ii).
type dropEpisode struct {
	Days       intervals.Interval
	ALo, AHi   asn.ASN
	FromNewest bool
}

// ripePlaceholder is the bogus registration date RIPE ERX records travel
// back to (§3.1 step v).
var ripePlaceholder = dates.MustParse("1993-09-01")

// Build renders the world's ground truth into a delegation archive with
// the §3.1 error classes injected. The corruption plan is deterministic:
// it derives from the world's seed.
func Build(w *worldsim.World) *Archive {
	a := &Archive{
		world: w,
		start: w.Config.Start,
		end:   w.Config.End,
	}
	rng := rand.New(rand.NewSource(w.Config.Seed ^ 0x5eed_4e61))
	for _, r := range asn.All() {
		a.missingReg[r] = make(map[dates.Day]bool)
		a.missingExt[r] = make(map[dates.Day]bool)
		a.corruptReg[r] = make(map[dates.Day]bool)
		a.corruptExt[r] = make(map[dates.Day]bool)
		a.divergeDays[r] = make(map[dates.Day]bool)
	}

	a.buildSpans(rng)
	a.injectRegDateQuirks(rng)
	a.injectDuplicates(rng)
	a.injectStaleTransfers(rng)
	a.injectMistakenAllocations(rng)
	a.injectFileGaps(rng)
	a.injectDropEpisodes(rng)
	a.injectDivergence(rng)

	for _, r := range asn.All() {
		sort.SliceStable(a.spans[r], func(i, j int) bool {
			if a.spans[r][i].Rec.ASN != a.spans[r][j].Rec.ASN {
				return a.spans[r][i].Rec.ASN < a.spans[r][j].Rec.ASN
			}
			return a.spans[r][i].From < a.spans[r][j].From
		})
	}
	return a
}

// buildSpans lays down the honest record spans for every life: the
// allocated span (grouping NIR blocks into block records) and the
// post-deallocation reserved span in extended files.
func (a *Archive) buildSpans(rng *rand.Rand) {
	w := a.world
	type blockKey struct {
		org     int
		reg     dates.Day
		from    dates.Day
		to      dates.Day
		ext     bool
		kindNIR bool
	}
	grouped := make(map[blockKey][]*worldsim.Life)
	for i := range w.Lives {
		l := &w.Lives[i]
		if l.Kind == worldsim.LifeNIRBlock {
			k := blockKey{org: l.OrgID, reg: l.RegDate, from: l.FileFrom, to: l.Alloc.End, kindNIR: true}
			grouped[k] = append(grouped[k], l)
			continue
		}
		a.addLifeSpans(rng, l, 1)
	}
	// Emit NIR blocks as contiguous runs of block records.
	keys := make([]blockKey, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].org != keys[j].org {
			return keys[i].org < keys[j].org
		}
		return keys[i].reg < keys[j].reg
	})
	for _, k := range keys {
		lives := grouped[k]
		sort.Slice(lives, func(i, j int) bool { return lives[i].ASN < lives[j].ASN })
		runStart := 0
		for i := 1; i <= len(lives); i++ {
			if i < len(lives) && lives[i].ASN == lives[i-1].ASN+1 {
				continue
			}
			a.addLifeSpans(rng, lives[runStart], i-runStart)
			runStart = i
		}
	}
}

// addLifeSpans emits the allocated (and reserved) spans for a life whose
// record covers `count` consecutive ASNs starting at the life's ASN.
func (a *Archive) addLifeSpans(rng *rand.Rand, l *worldsim.Life, count int) {
	status := delegation.StatusAllocated
	if l.RIR == asn.ARIN && rng.Float64() < 0.4 {
		status = delegation.StatusAssigned
	}
	rec := delegation.Record{
		Registry: l.RIR,
		CC:       l.CC,
		ASN:      l.ASN,
		Count:    count,
		Date:     l.RegDate,
		Status:   status,
		OpaqueID: opaqueID(l.OrgID),
	}
	from := l.FileFrom
	if from < a.start {
		from = a.start
	}
	to := dates.Min(l.Alloc.End, a.end)
	if to < from {
		return // deallocated before its record would have been published
	}
	a.spans[l.RIR] = append(a.spans[l.RIR], recordSpan{From: from, To: to, Rec: rec})

	if l.Kind == worldsim.LifeERX {
		a.erx = append(a.erx, delegation.ERXEntry{ASN: l.ASN, RegDate: l.RegDate})
	}

	// Reserved quarantine after deallocation, extended files only.
	if !l.Open && l.QuarantineDays > 0 && l.Alloc.End < a.end {
		resRec := rec
		resRec.Status = delegation.StatusReserved
		resRec.CC = ""
		resFrom := l.Alloc.End.AddDays(1)
		resTo := dates.Min(l.Alloc.End.AddDays(l.QuarantineDays), a.end)
		if resTo >= resFrom {
			a.spans[l.RIR] = append(a.spans[l.RIR], recordSpan{
				From: resFrom, To: resTo, Rec: resRec, ExtOnly: true,
			})
		}
	}
}

func opaqueID(org int) string {
	const hexdigits = "0123456789abcdef"
	var b [8]byte
	v := uint32(org)*2654435761 + 0x9e37
	for i := range b {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return "o-" + string(b[:])
}

// injectRegDateQuirks plants the registration-date error classes:
// placeholder back-travel (RIPE ERX), future dates (AfriNIC) and benign
// same-life corrections.
func (a *Archive) injectRegDateQuirks(rng *rand.Rand) {
	type life struct {
		asn asn.ASN
		reg dates.Day
	}
	placeholder := make(map[life]bool)
	for _, l := range a.world.Lives {
		if l.PlaceholderQuirk {
			placeholder[life{l.ASN, l.RegDate}] = true
		}
	}
	for _, r := range asn.All() {
		spans := a.spans[r]
		var rebuilt []recordSpan
		for _, sp := range spans {
			switch {
			case sp.Rec.Status == delegation.StatusReserved || sp.Rec.Status == delegation.StatusAvailable:
				rebuilt = append(rebuilt, sp)
			case r == asn.RIPENCC && placeholder[life{sp.Rec.ASN, sp.Rec.Date}]:
				// The date shows correctly at first, then travels back to
				// the 1993-09-01 placeholder from a switch day onward.
				sw := dates.MustParse("2004-06-01").AddDays(rng.Intn(400))
				if sw <= sp.From || sw >= sp.To {
					ph := sp
					ph.Rec.Date = ripePlaceholder
					rebuilt = append(rebuilt, ph)
					a.injectStats.PlaceholderASNs++
					continue
				}
				before, after := sp, sp
				before.To = sw.AddDays(-1)
				after.From = sw
				after.Rec.Date = ripePlaceholder
				rebuilt = append(rebuilt, before, after)
				a.injectStats.PlaceholderASNs++
			case r == asn.AfriNIC && rng.Float64() < 0.01 && sp.To.Sub(sp.From) > 20:
				// Future registration date for the first few file days.
				k := 1 + rng.Intn(3)
				fut := sp
				fut.To = sp.From.AddDays(k - 1)
				fut.Rec.Date = sp.From.AddDays(k + 1 + rng.Intn(3))
				rest := sp
				rest.From = sp.From.AddDays(k)
				rebuilt = append(rebuilt, fut, rest)
				a.injectStats.FutureRegDateASNs++
			case rng.Float64() < 0.0015 && sp.To.Sub(sp.From) > 400:
				// Benign administrative correction: registration date
				// shifts slightly mid-life without deallocation (§4.1).
				sw := sp.From.AddDays(200 + rng.Intn(sp.To.Sub(sp.From)-300))
				before, after := sp, sp
				before.To = sw.AddDays(-1)
				after.From = sw
				after.Rec.Date = sp.Rec.Date.AddDays(1 + rng.Intn(20))
				rebuilt = append(rebuilt, before, after)
				a.injectStats.RegDateCorrections++
			default:
				rebuilt = append(rebuilt, sp)
			}
		}
		a.spans[r] = rebuilt
	}
}

// injectDuplicates plants AfriNIC's duplicate records with inconsistent
// status (§3.1 step iv): an extra reserved row shadowing an allocated one
// for months.
func (a *Archive) injectDuplicates(rng *rand.Rand) {
	want := 4
	spans := a.spans[asn.AfriNIC]
	for _, sp := range spans {
		if want == 0 {
			break
		}
		if sp.Rec.Status != delegation.StatusAllocated || sp.To.Sub(sp.From) < 400 || rng.Float64() > 0.05 {
			continue
		}
		dup := sp
		dup.Rec.Status = delegation.StatusReserved
		dup.From = sp.From.AddDays(100 + rng.Intn(200))
		dup.To = dup.From.AddDays(60 + rng.Intn(120))
		if dup.To > sp.To {
			dup.To = sp.To
		}
		a.spans[asn.AfriNIC] = append(a.spans[asn.AfriNIC], dup)
		a.injectStats.DuplicateRecordASNs++
		want--
	}
}

// injectStaleTransfers keeps transferred ASNs in the origin registry's
// files past the transfer date (§3.1 step vi, cause i).
func (a *Archive) injectStaleTransfers(rng *rand.Rand) {
	for i := range a.world.Lives {
		l := &a.world.Lives[i]
		if !l.HasTransfer || rng.Float64() > 0.5 {
			continue
		}
		// Extend the origin-RIR span past the hand-off.
		for si := range a.spans[l.RIR] {
			sp := &a.spans[l.RIR][si]
			if sp.Rec.ASN == l.ASN && sp.To == dates.Min(l.Alloc.End, a.end) &&
				sp.Rec.Status.Delegated() {
				ext := dates.Min(sp.To.AddDays(30+rng.Intn(220)), a.end)
				sp.To = ext
				a.injectStats.StaleTransferASNs++
				break
			}
		}
	}
}

// injectMistakenAllocations plants apparent allocations of ASNs from
// blocks IANA assigned to a different registry (§3.1 step vi, cause ii).
func (a *Archive) injectMistakenAllocations(rng *rand.Rand) {
	if a.end.Sub(a.start) < 900 {
		return // window too short to host episodes
	}
	episodes := 2
	for e := 0; e < episodes; e++ {
		wrong := asn.RIR(rng.Intn(int(asn.NumRIRs)))
		victim := asn.RIR((int(wrong) + 1 + rng.Intn(int(asn.NumRIRs)-1)) % int(asn.NumRIRs))
		// Pick ASNs high in the victim's 16-bit pool, beyond what the
		// generator allocated.
		_, hi16, _ := delegation.IANABlocks(victim)
		base := hi16 - asn.ASN(20+rng.Intn(100))
		n := 3 + rng.Intn(6)
		from := a.start.AddDays(200 + rng.Intn(a.end.Sub(a.start)-600))
		to := from.AddDays(50 + rng.Intn(200))
		for i := 0; i < n; i++ {
			a.spans[wrong] = append(a.spans[wrong], recordSpan{
				From: from, To: to,
				Rec: delegation.Record{
					Registry: wrong, CC: "ZZ", ASN: base + asn.ASN(i), Count: 1,
					Date: from, Status: delegation.StatusAllocated,
					OpaqueID: opaqueID(999000 + e),
				},
			})
			a.injectStats.MistakenAllocASNs++
		}
	}
}

// injectFileGaps removes or corrupts whole files (§3.1: under 1% of days,
// with RIPE's 7-consecutive-day regular-file gap as the worst case).
func (a *Archive) injectFileGaps(rng *rand.Rand) {
	for _, r := range asn.All() {
		for d := delegation.FirstRegular(r); d <= a.end; d = d.AddDays(1) {
			switch x := rng.Float64(); {
			case x < 0.006:
				a.missingReg[r][d] = true
				a.injectStats.MissingFileDays++
			case x < 0.008:
				a.corruptReg[r][d] = true
				a.injectStats.CorruptFileDays++
			}
		}
		for d := delegation.FirstExtended(r); d <= a.end; d = d.AddDays(1) {
			switch x := rng.Float64(); {
			case x < 0.006:
				a.missingExt[r][d] = true
				a.injectStats.MissingFileDays++
			case x < 0.008:
				a.corruptExt[r][d] = true
				a.injectStats.CorruptFileDays++
			}
		}
	}
	// RIPE's longest run: 7 consecutive regular files missing.
	runStart := dates.MustParse("2008-09-14")
	for i := 0; i < 7; i++ {
		d := runStart.AddDays(i)
		if !a.missingReg[asn.RIPENCC][d] {
			a.missingReg[asn.RIPENCC][d] = true
			a.injectStats.MissingFileDays++
		}
	}
}

// injectDropEpisodes plants the extended-file record-group drops of §3.1
// step ii: a contiguous chunk of ASNs vanishes from the extended file for
// a day or two while the regular file still carries them.
func (a *Archive) injectDropEpisodes(rng *rand.Rand) {
	for _, r := range asn.All() {
		if r == asn.ARIN {
			continue // ARIN has no regular files late in the window
		}
		n := 1 + rng.Intn(2)
		for e := 0; e < n; e++ {
			lo16, _, _ := delegation.IANABlocks(r)
			lo := lo16 + asn.ASN(rng.Intn(500))
			hi := lo + asn.ASN(150+rng.Intn(400))
			span := a.end.Sub(delegation.FirstExtended(r))
			if span < 400 {
				continue
			}
			day := delegation.FirstExtended(r).AddDays(100 + rng.Intn(span-200))
			dur := 1 + rng.Intn(2)
			a.dropEpisodes[r] = append(a.dropEpisodes[r], dropEpisode{
				Days: intervals.New(day, day.AddDays(dur-1)),
				ALo:  lo, AHi: hi,
			})
			a.injectStats.DroppedRecordDays += dur
		}
	}
}

// injectDivergence plants same-day regular/extended differences (§3.1
// step iii, affecting all RIRs but AfriNIC): on divergent days the
// regular file lags a day behind on new records.
func (a *Archive) injectDivergence(rng *rand.Rand) {
	for _, r := range asn.All() {
		if r == asn.AfriNIC {
			continue
		}
		for d := delegation.FirstExtended(r); d <= a.end; d = d.AddDays(1) {
			if rng.Float64() < 0.018 {
				a.divergeDays[r][d] = true
			}
		}
	}
}
