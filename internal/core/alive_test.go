package core

import (
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/intervals"
)

func TestAliveSeriesBruteForce(t *testing.T) {
	admin := []AdminLifetime{
		{ASN: 1, RIR: asn.ARIN, Span: iv("2010-01-01", "2010-01-10")},
		{ASN: 2, RIR: asn.RIPENCC, Span: iv("2010-01-05", "2010-01-20")},
		{ASN: 3, RIR: asn.ARIN, Span: iv("2010-01-15", "2010-01-25")},
	}
	act := buildActivity(map[asn.ASN][]intervals.Interval{
		1: {iv("2010-01-02", "2010-01-08")},
		2: {iv("2010-01-06", "2010-01-18")},
		9: {iv("2010-01-03", "2010-01-04")}, // never allocated: overall only
	})
	j := joint(admin, act, 30)
	s := j.Alive(d("2010-01-01"), d("2010-01-20"))

	idx := func(ds string) int { return d(ds).Sub(d("2010-01-01")) }

	if got := s.AdminOverall[idx("2010-01-01")]; got != 1 {
		t.Errorf("admin day1 = %d", got)
	}
	if got := s.AdminOverall[idx("2010-01-07")]; got != 2 {
		t.Errorf("admin day7 = %d", got)
	}
	if got := s.AdminOverall[idx("2010-01-16")]; got != 2 { // ASN2 + ASN3
		t.Errorf("admin day16 = %d", got)
	}
	if got := s.AdminPerRIR[asn.ARIN][idx("2010-01-16")]; got != 1 {
		t.Errorf("ARIN day16 = %d", got)
	}
	// Op: day 3 has ASN1 (ARIN-covered) and ASN9 (no admin life).
	if got := s.OpOverall[idx("2010-01-03")]; got != 2 {
		t.Errorf("op overall day3 = %d", got)
	}
	if got := s.OpPerRIR[asn.ARIN][idx("2010-01-03")]; got != 1 {
		t.Errorf("op ARIN day3 = %d", got)
	}
	if got := s.OpPerRIR[asn.RIPENCC][idx("2010-01-10")]; got != 1 {
		t.Errorf("op RIPE day10 = %d", got)
	}
	// ASN9's days never reach any per-RIR series.
	sum := 0
	for _, r := range asn.All() {
		sum += s.OpPerRIR[r][idx("2010-01-04")]
	}
	if sum != 1 { // only ASN1
		t.Errorf("per-RIR op day4 sum = %d", sum)
	}
}

func TestGapDistributionAndSweep(t *testing.T) {
	act := buildActivity(map[asn.ASN][]intervals.Interval{
		1: {iv("2010-01-01", "2010-01-10"), iv("2010-01-16", "2010-01-20"),
			iv("2010-03-01", "2010-03-10")}, // gaps of 5 and 39 days
		2: {iv("2010-01-01", "2010-01-05"), iv("2010-01-11", "2010-01-15")}, // gap of 5
	})
	gaps := GapDistribution(act)
	if len(gaps) != 3 || gaps[0] != 5 || gaps[1] != 5 || gaps[2] != 39 {
		t.Fatalf("gaps = %v", gaps)
	}
	admin := []AdminLifetime{
		{ASN: 1, Span: iv("2009-01-01", "2011-01-01")},
		{ASN: 2, Span: iv("2009-01-01", "2011-01-01")},
	}
	sweep := SweepTimeouts(act, NewAdminIndex(admin), []int{4, 5, 39, 40})
	// timeout 4: no gap bridged.
	if sweep[0].GapFractionBelow != 0 || sweep[0].OpLifetimes != 5 {
		t.Errorf("sweep[4] = %+v", sweep[0])
	}
	// timeout 5: the two 5-day gaps bridge.
	if sweep[1].GapFractionBelow < 0.66 || sweep[1].OpLifetimes != 3 {
		t.Errorf("sweep[5] = %+v", sweep[1])
	}
	// timeout 39: everything bridges.
	if sweep[2].OpLifetimes != 2 || sweep[2].GapFractionBelow != 1 {
		t.Errorf("sweep[39] = %+v", sweep[2])
	}
	// AdminWithOneOrLessOpLives: at timeout 4, ASN1 has 3 contained op
	// lives (fails), ASN2 has 2 (fails) -> 0; at 39 both have 1 -> 1.
	if sweep[0].AdminWithOneOrLessOpLives != 0 {
		t.Errorf("one-or-less at 4 = %v", sweep[0].AdminWithOneOrLessOpLives)
	}
	if sweep[2].AdminWithOneOrLessOpLives != 1 {
		t.Errorf("one-or-less at 39 = %v", sweep[2].AdminWithOneOrLessOpLives)
	}
}

func TestOpIndexAccessors(t *testing.T) {
	act := buildActivity(map[asn.ASN][]intervals.Interval{
		1: {iv("2010-01-01", "2010-01-10"), iv("2010-03-01", "2010-03-10")},
		2: {iv("2010-01-01", "2010-01-10")},
	})
	ops := BuildOpLifetimes(act, 30)
	if ops.ASNs() != 2 {
		t.Errorf("ASNs = %d", ops.ASNs())
	}
	ids := ops.Of(1)
	if len(ids) != 2 || ops.Lifetimes[ids[0]].Span != iv("2010-01-01", "2010-01-10") {
		t.Errorf("Of(1) = %v over %v", ids, ops.Lifetimes)
	}
	if len(ops.Of(99)) != 0 {
		t.Error("unknown ASN should have no lifetimes")
	}
}

func TestUpstreamsOfOrdering(t *testing.T) {
	act := buildActivity(map[asn.ASN][]intervals.Interval{
		1: {iv("2010-01-01", "2010-01-10")},
	})
	act.ASNs[1].Upstreams = map[asn.ASN]int64{7: 3, 8: 10, 9: 3}
	admin := []AdminLifetime{{ASN: 1, Span: iv("2009-01-01", "2011-01-01")}}
	j := joint(admin, act, 30)
	ups := j.upstreamsOf(1)
	if len(ups) != 3 || ups[0] != 8 || ups[1] != 7 || ups[2] != 9 {
		t.Errorf("upstreams = %v (want frequency then ASN order)", ups)
	}
	if j.upstreamsOf(42) != nil {
		t.Error("unknown ASN should have no upstreams")
	}
}

func TestEnumStrings(t *testing.T) {
	if CatComplete.String() != "complete overlap" || CatOutside.String() != "outside delegation" {
		t.Error("Category strings wrong")
	}
	if Category(99).String() != "unknown" {
		t.Error("out-of-range category")
	}
	if OutLargeLeak.String() != "large internal leak" || OutsideKind(99).String() != "unknown" {
		t.Error("OutsideKind strings wrong")
	}
}
