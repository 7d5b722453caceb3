package pipeline

import (
	"testing"

	"parallellives/internal/asn"
	"parallellives/internal/core"
	"parallellives/internal/delegation"
	"parallellives/internal/registry"
	"parallellives/internal/restore"
)

// textSources returns fresh text sources over the archive.
func textSources(a *registry.Archive) []delegation.Source {
	out := make([]delegation.Source, 0, asn.NumRIRs)
	for _, r := range asn.All() {
		out = append(out, a.TextSource(r))
	}
	return out
}

func TestAblationRestorationOffFragmentsLifetimes(t *testing.T) {
	ds := getSmall(t)
	archive := registry.Build(worldOf(ds))
	raw := restore.RestoreWithOptions(textSources(archive), nil, restore.Options{
		NoGapBridging:     true,
		NoRegularRecovery: true,
		NoDateRepair:      true,
		NoInterRIRFix:     true,
	})
	rawLifetimes, rawStats := core.BuildAdminLifetimes(raw)
	t.Logf("restored: %d lifetimes; raw: %d lifetimes (stats %+v)",
		len(ds.Admin.Lifetimes), len(rawLifetimes), rawStats)
	// Without repairs the archive's corruption surfaces as extra
	// lifetimes (splits at dropped records and unreconciled dates) and
	// as kept mistaken records.
	if len(rawLifetimes) <= len(ds.Admin.Lifetimes) {
		t.Errorf("raw lifetimes (%d) should exceed restored (%d)",
			len(rawLifetimes), len(ds.Admin.Lifetimes))
	}
	// Mistaken allocations survive the raw pass as lifetimes of ASNs the
	// registry was never delegated.
	foundMistaken := false
	for _, l := range rawLifetimes {
		if !delegation.IANABlockHolds(l.RIR, l.ASN) {
			foundMistaken = true
			break
		}
	}
	if !foundMistaken && archive.InjectionStats().MistakenAllocASNs > 0 {
		t.Error("raw pass should retain mistaken out-of-block records")
	}
}

func TestAblationNoDateRepairKeepsPlaceholders(t *testing.T) {
	archive := registry.Build(worldOf(getSmall(t)))
	if archive.InjectionStats().PlaceholderASNs == 0 {
		t.Skip("no placeholder quirks in this world")
	}
	raw := restore.RestoreWithOptions(textSources(archive), archive.ERXReference(),
		restore.Options{NoDateRepair: true})
	found := false
	for _, run := range raw.Runs {
		if run.RegDate.String() == "1993-09-01" {
			found = true
			break
		}
	}
	if !found {
		t.Error("placeholder dates should survive when date repair is off")
	}
}

func TestAblationVisibilityOneInflatesASNs(t *testing.T) {
	ds := getSmall(t)
	opts := ds.Options
	opts.Visibility = 1
	naive, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Activity.ASNs) <= len(ds.Activity.ASNs) {
		t.Errorf("visibility=1 (%d ASNs) should exceed visibility=2 (%d)",
			len(naive.Activity.ASNs), len(ds.Activity.ASNs))
	}
	// The single-peer noise the world plants must appear only in the
	// naive run.
	leaked := 0
	for _, seg := range worldOf(ds).Segments {
		if seg.Vis != 1 { // worldsim.VisSinglePeer
			continue
		}
		if _, ok := naive.Activity.ASNs[seg.ASN]; ok {
			leaked++
		}
	}
	if leaked == 0 {
		t.Error("expected single-peer noise to leak into the naive run")
	}
}

func TestExtensionsOnPipeline(t *testing.T) {
	ds := getSmall(t)
	roles := ds.Ops.Roles()
	t.Logf("roles: %+v", roles)
	if roles.TransitOnly == 0 {
		t.Error("expected pure-carrier transit lifetimes")
	}
	if roles.OriginOnly == 0 {
		t.Error("expected origin-only lifetimes")
	}
	aware := core.BuildOpLifetimesPrefixAware(ds.Activity, 30, 5)
	if len(aware.Lifetimes) < len(ds.Ops.Lifetimes) {
		t.Errorf("prefix-aware lifetimes (%d) must not merge more than timeout-only (%d)",
			len(aware.Lifetimes), len(ds.Ops.Lifetimes))
	}
}
