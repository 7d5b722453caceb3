package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// waitBreakerState spins until the given replica slot's breaker reports
// the wanted state (driven by the test's own traffic), bounded.
func waitBreakerState(t *testing.T, rt *Router, rangeIdx, ordinal int, want string, drive func()) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if rt.topo.Load().sets[rangeIdx].replicas[ordinal].breakerState() == want {
			return
		}
		drive()
	}
	t.Fatalf("range %d ordinal %d breaker never reached %q", rangeIdx, ordinal, want)
}

// TestReplicaFailoverZeroErrors is the tentpole contract: with R=2,
// killing one replica of every range produces zero client-visible
// errors — reads that land on the dead replica fail over to its sibling
// and say so in the X-Parallellives-Failover header.
func TestReplicaFailoverZeroErrors(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 2, 2)
	rt := newRouterOver(t, fleet.urls, Options{BreakerCooldown: time.Minute})

	// Kill ordinal 0 of both ranges.
	for i := 0; i < 2; i++ {
		fleet.flakyAt(t, rt, i, 0).broken.Store(true)
	}

	sawFailover := false
	for round := 0; round < 4; round++ {
		for _, a := range fixtureASNs {
			w := get(rt, fmt.Sprintf("/v1/asn/%d", a), nil)
			if w.Code >= http.StatusInternalServerError {
				t.Fatalf("GET /v1/asn/%d = %d with one replica dead: %s", a, w.Code, w.Body)
			}
			if w.Header().Get(FailoverHeader) != "" {
				sawFailover = true
			}
		}
	}
	if !sawFailover {
		t.Fatal("no response carried the failover header while a replica was dead")
	}
	var failovers int64
	for i := 0; i < 2; i++ {
		failovers += rt.failovers.With(fmt.Sprint(i)).Value()
	}
	if failovers == 0 {
		t.Fatal("failover counter never moved")
	}

	// Aggregates survive too: both ranges still have a live replica, so
	// no range is down and the scatter stays complete (no partial mark).
	w := get(rt, "/v1/taxonomy", nil)
	if w.Code != http.StatusOK || w.Header().Get(PartialHeader) != "" {
		t.Fatalf("aggregate with one replica per range dead = %d (%s %q), want clean 200",
			w.Code, PartialHeader, w.Header().Get(PartialHeader))
	}

	// Revive + probe: the fleet heals and failover marks disappear.
	for i := 0; i < 2; i++ {
		fleet.flakyAt(t, rt, i, 0).broken.Store(false)
	}
	rt.Probe(context.Background())
	// Breakers may still be open (cooldown 1m): the picker must simply
	// not touch them. A clean read proves it either way.
	for _, a := range fixtureASNs {
		if w := get(rt, fmt.Sprintf("/v1/asn/%d", a), nil); w.Code >= http.StatusInternalServerError {
			t.Fatalf("post-revival read = %d", w.Code)
		}
	}
}

// TestOpenBreakerReplicaNeverPicked pins the picker rule: while a
// sibling's breaker is closed, an open-breaker replica receives zero
// upstream traffic — not even as a failover target.
func TestOpenBreakerReplicaNeverPicked(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 1, 2)
	rt := newRouterOver(t, fleet.urls, Options{BreakerCooldown: time.Minute, CacheSize: -1})

	f0 := fleet.flakyAt(t, rt, 0, 0)
	f0.broken.Store(true)
	// Drive reads until the broken replica's breaker opens (round-robin
	// lands on it every other pick; each landing is one failure).
	waitBreakerState(t, rt, 0, 0, "open", func() { get(rt, "/v1/asn/10", nil) })
	f0.broken.Store(false) // alive again, but the breaker stays open for a minute

	before := f0.hits.Load()
	for i := 0; i < 20; i++ {
		for _, a := range fixtureASNs {
			w := get(rt, fmt.Sprintf("/v1/asn/%d", a), nil)
			if w.Code >= http.StatusInternalServerError {
				t.Fatalf("read with one breaker open = %d", w.Code)
			}
			if w.Header().Get(FailoverHeader) != "" {
				t.Fatalf("healthy-sibling read reported a failover")
			}
		}
	}
	if got := f0.hits.Load(); got != before {
		t.Fatalf("open-breaker replica received %d upstream request(s) while its sibling was closed", got-before)
	}
}

// TestOversizedBodyIsAShardFailure streams an endless body from one
// replica: the router must stop reading at MaxPeerBody (an unbounded
// read would never return), count the overflow against that replica's
// breaker and answer from the sibling; with every replica flooding the
// range is down and the read is a 503, never a relayed flood.
func TestOversizedBodyIsAShardFailure(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 1, 2)
	rt := newRouterOver(t, fleet.urls, Options{BreakerCooldown: time.Minute, CacheSize: -1})

	f0, f1 := fleet.flakyAt(t, rt, 0, 0), fleet.flakyAt(t, rt, 0, 1)
	f0.flood.Store(true)
	waitBreakerState(t, rt, 0, 0, "open", func() {
		w := get(rt, "/v1/asn/10", nil)
		if w.Code != http.StatusOK || w.Body.Len() > MaxPeerBody {
			t.Fatalf("read with one replica flooding = %d (%d bytes), want the sibling's 200", w.Code, w.Body.Len())
		}
	})
	if rt.failovers.With("0").Value() == 0 {
		t.Fatal("overflow was not counted as a failover")
	}

	f1.flood.Store(true)
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("read with every replica flooding = %d (%d bytes), want 503", w.Code, w.Body.Len())
	}
}

// TestHedgedReads arms hedging against a deliberately slow replica: the
// hedge must win (header + counters), and the cancelled slow attempt
// must land breaker-neutral — hedging never trips a healthy replica.
func TestHedgedReads(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 1, 2)
	rt := newRouterOver(t, fleet.urls, Options{
		HedgeAfter:       10 * time.Millisecond,
		BreakerThreshold: 3,
		CacheSize:        -1,
	})

	slow := fleet.flakyAt(t, rt, 0, 0)
	slow.delay.Store(int64(500 * time.Millisecond))

	sawHedgeWin := false
	for i := 0; i < 8 && !sawHedgeWin; i++ {
		w := get(rt, "/v1/asn/10", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("hedged read = %d: %s", w.Code, w.Body)
		}
		sawHedgeWin = w.Header().Get(HedgeHeader) == "win"
	}
	if !sawHedgeWin {
		t.Fatal("no hedge win in 8 reads with a 500ms-slow replica and hedge-after 10ms")
	}
	if rt.hedges.Value() == 0 || rt.hedgeWins.Value() == 0 {
		t.Fatalf("hedge counters = %d launched / %d won, want both > 0",
			rt.hedges.Value(), rt.hedgeWins.Value())
	}
	// The slow replica lost by cancellation, which is breaker-neutral.
	if state := rt.topo.Load().sets[0].replicas[0].breakerState(); state != "closed" {
		t.Fatalf("slow replica's breaker = %s after losing hedges, want closed", state)
	}
}

// TestTopologyReloadRetireReadmit drives the zero-downtime rolling
// cycle: reload with the fleet intact keeps everyone; a dead replica is
// retired (and serving continues); the revived replica is readmitted.
func TestTopologyReloadRetireReadmit(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 2, 2)
	rt := newRouterOver(t, fleet.urls, Options{HandshakeTimeout: time.Second})

	reload := func() (*TopologyReport, int, string) {
		w := post(rt, "/v1/admin/topology/reload")
		var rep TopologyReport
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
		}
		return &rep, w.Code, w.Body.String()
	}

	// No-op reload: everyone kept, generation bumps.
	rep, code, _ := reload()
	if code != http.StatusOK || rep.Generation != 2 || rep.Replicas != 4 ||
		len(rep.Kept) != 4 || len(rep.Admitted) != 0 || len(rep.Retired) != 0 {
		t.Fatalf("no-op reload = %d %+v", code, rep)
	}

	// A dead replica is retired; the range keeps serving on its sibling.
	dead := fleet.flakyAt(t, rt, 1, 0)
	dead.broken.Store(true)
	rep, code, _ = reload()
	if code != http.StatusOK || rep.Generation != 3 || rep.Replicas != 3 || len(rep.Retired) != 1 {
		t.Fatalf("retire reload = %d %+v", code, rep)
	}
	var topoDoc struct {
		Generation int64 `json:"generation"`
		Shards     []struct {
			Replicas []struct {
				URL string `json:"url"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	w := get(rt, "/v1/shards", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &topoDoc); err != nil {
		t.Fatal(err)
	}
	if topoDoc.Generation != 3 || len(topoDoc.Shards[1].Replicas) != 1 || len(topoDoc.Shards[0].Replicas) != 2 {
		t.Fatalf("post-retire topology = %+v", topoDoc)
	}
	for _, a := range fixtureASNs {
		if w := get(rt, fmt.Sprintf("/v1/asn/%d", a), nil); w.Code >= http.StatusInternalServerError {
			t.Fatalf("read after retiring a replica = %d", w.Code)
		}
	}

	// The replica comes back: readmitted with a fresh closed breaker.
	dead.broken.Store(false)
	rep, code, _ = reload()
	if code != http.StatusOK || rep.Generation != 4 || rep.Replicas != 4 || len(rep.Admitted) != 1 {
		t.Fatalf("readmit reload = %d %+v", code, rep)
	}
}

// TestTopologyReloadFailureKeepsOld pins the safety half: a rebuild
// that cannot cover every range answers 502 and the old topology keeps
// serving untouched.
func TestTopologyReloadFailureKeepsOld(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 2, 1)
	rt := newRouterOver(t, fleet.urls, Options{HandshakeTimeout: 500 * time.Millisecond})

	// Range 1's only replica dies: the survivors no longer cover every
	// range, so the swap must be refused.
	fleet.flakyAt(t, rt, 1, 0).broken.Store(true)
	w := post(rt, "/v1/admin/topology/reload")
	if w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "previous topology retained") {
		t.Fatalf("impossible reload = %d: %s", w.Code, w.Body)
	}
	if gen := rt.topo.Load().generation; gen != 1 {
		t.Fatalf("failed reload moved the topology to generation %d", gen)
	}
	if v := rt.topoReloads.With("error").Value(); v != 1 {
		t.Fatalf("error reload counter = %d, want 1", v)
	}
	// Range 0 still serves from the retained table.
	if w := get(rt, "/v1/asn/10", nil); w.Code != http.StatusOK {
		t.Fatalf("read on retained topology = %d", w.Code)
	}
}

// TestReplicasMinEnforced pins -replicas-min: a topology (startup or
// reload) where any range falls below the floor is refused.
func TestReplicasMinEnforced(t *testing.T) {
	fleet := startReplicated(t, fixtureSnapshot(1), 2, 2)

	// Startup floor: asking for 3 replicas over an R=2 fleet must fail.
	_, err := New(context.Background(), Options{
		Shards: fleet.urls, ReplicasMin: 3, HandshakeTimeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "-replicas-min") {
		t.Fatalf("under-replicated startup error = %v", err)
	}

	// Reload floor: R=2 accepted, then one replica dies — the reload
	// would leave its range at 1 < 2, so the old topology is retained.
	rt := newRouterOver(t, fleet.urls, Options{ReplicasMin: 2, HandshakeTimeout: 500 * time.Millisecond})
	fleet.flakyAt(t, rt, 0, 1).broken.Store(true)
	w := post(rt, "/v1/admin/topology/reload")
	if w.Code != http.StatusBadGateway || !strings.Contains(w.Body.String(), "-replicas-min") {
		t.Fatalf("below-floor reload = %d: %s", w.Code, w.Body)
	}
	if gen := rt.topo.Load().generation; gen != 1 {
		t.Fatalf("below-floor reload moved the topology to generation %d", gen)
	}
}

// TestMixedFingerprintReplicasRefused extends the handshake refusal to
// replica sets: two processes claiming the same range but serving
// different shard cuts must not form a set.
func TestMixedFingerprintReplicasRefused(t *testing.T) {
	a := startShards(t, fixtureSnapshot(1), 2)
	b := startShards(t, fixtureSnapshot(2), 2)
	// a's two shards cover the plan; b.urls[0] claims range 0 again but
	// with a different fingerprint.
	_, err := New(context.Background(), Options{
		Shards:           []string{a.urls[0], a.urls[1], b.urls[0]},
		HandshakeTimeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("mixed-fingerprint replica error = %v", err)
	}
}
