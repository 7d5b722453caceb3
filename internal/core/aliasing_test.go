package core

import (
	"encoding/json"
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/delegation"
	"parallellives/internal/intervals"
	"parallellives/internal/restore"
)

// TestRunScratchDoesNotAliasLifetimes pins the admin-builder scratch
// contract: lifetimes appended by appendLifetimes must be independent of
// the runScratch the partition loop recycles group over group.
func TestRunScratchDoesNotAliasLifetimes(t *testing.T) {
	asns := []asn.ASN{64500, 64501, 64502}
	var sc runScratch
	var stats AdminStats
	var out []AdminLifetime
	for i, a := range asns {
		reg := d("2010-01-01").AddDays(i * 100)
		group := []restore.Run{
			run(a, asn.ARIN, delegation.StatusAllocated, "2010-01-01", intervals.New(reg, reg.AddDays(400)), false),
			run(a, asn.ARIN, delegation.StatusReserved, "2010-01-01", intervals.New(reg.AddDays(401), reg.AddDays(450)), false),
			run(a, asn.ARIN, delegation.StatusAllocated, "2010-01-01", intervals.New(reg.AddDays(451), reg.AddDays(900)), true),
		}
		out = appendLifetimes(out, group, &stats, &sc)
	}

	before, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, all := 0, sc.delegated[:cap(sc.delegated)]; i < len(all); i++ {
		all[i] = restore.Run{}
	}
	for i, all := 0, sc.reserved[:cap(sc.reserved)]; i < len(all); i++ {
		all[i] = restore.Run{}
	}
	after, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("admin lifetimes changed after scribbling the partition scratch")
	}
}
