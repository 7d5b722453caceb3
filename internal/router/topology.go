package router

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"parallellives/internal/asn"
	"parallellives/internal/lifestore"
	"parallellives/internal/serve"
)

// topology is one published generation of the routing table: the shard
// plan plus a replica set per range. It is immutable after Store — a
// topology change builds a whole new one and swaps the pointer, so
// in-flight requests finish against the table they started with (the
// same generation-swap discipline serve uses for snapshots).
type topology struct {
	generation int64
	sum        string
	plan       lifestore.ShardPlan
	sets       []*replicaSet
	replicas   []*shardClient // flattened, set-major: range 0's replicas first
}

// slots is the set of (shard, replica ordinal) label pairs the topology
// has — what per-replica metric series are pruned against on a swap, so
// their cardinality is bounded by the live fleet, not by the union of
// every topology ever served.
func (t *topology) slots() map[[2]string]bool {
	live := map[[2]string]bool{}
	for _, sc := range t.replicas {
		live[[2]string{strconv.Itoa(sc.index), strconv.Itoa(sc.ordinal)}] = true
	}
	return live
}

// setFor returns the replica set owning one ASN.
func (t *topology) setFor(a asn.ASN) *replicaSet { return t.sets[t.plan.ShardFor(a)] }

// TopologyReport is the admin-facing outcome of a topology reload.
type TopologyReport struct {
	Generation int64    `json:"generation"`
	Sum        string   `json:"sum"`
	Ranges     int      `json:"ranges"`
	Replicas   int      `json:"replicas"`
	Admitted   []string `json:"admitted,omitempty"`
	Retired    []string `json:"retired,omitempty"`
	Kept       []string `json:"kept,omitempty"`
}

// buildTopology handshakes the configured URL set and assembles a
// validated topology. In strict mode (startup) every URL must answer;
// in lenient mode (reload) unreachable URLs are retired and the
// survivors only need to still cover every range. Handshake fetches run
// on bare clients over the router's per-URL connection pools — breakers
// and per-replica instruments attach only to the replicas the validated
// topology admits.
func (rt *Router) buildTopology(ctx context.Context, generation int64, lenient bool) (*topology, error) {
	hctx, cancel := context.WithTimeout(ctx, rt.handshakeTimeout)
	defer cancel()

	clients := make([]*shardClient, len(rt.pools))
	for i, p := range rt.pools {
		clients[i] = &shardClient{baseURL: p.base, conns: p}
	}
	ids := make([]serve.ShardIdentity, len(clients))
	done := make([]bool, len(clients))
	var lastErr error
	for {
		missing := 0
		for i, sc := range clients {
			if done[i] {
				continue
			}
			id, err := sc.identity(hctx)
			if err != nil {
				missing++
				lastErr = err
				continue
			}
			ids[i], done[i] = id, true
		}
		if missing == 0 {
			break
		}
		select {
		case <-hctx.Done():
			if !lenient {
				return nil, fmt.Errorf("router: handshake incomplete (%d/%d replicas): %w", len(clients)-missing, len(clients), lastErr)
			}
			// Lenient: retire whatever never answered and validate the rest.
			var alive []*shardClient
			var aliveIDs []serve.ShardIdentity
			for i := range clients {
				if done[i] {
					alive = append(alive, clients[i])
					aliveIDs = append(aliveIDs, ids[i])
				}
			}
			if len(alive) == 0 {
				return nil, fmt.Errorf("router: no replica answered the handshake: %w", lastErr)
			}
			return rt.assemble(alive, aliveIDs, generation)
		case <-time.After(100 * time.Millisecond):
		}
	}
	return rt.assemble(clients, ids, generation)
}

// assemble groups answered replicas by shard index and validates that
// together they form one complete, consistent plan.
func (rt *Router) assemble(clients []*shardClient, ids []serve.ShardIdentity, generation int64) (*topology, error) {
	for i, sc := range clients {
		sc.replica = ids[i].Replica
	}

	// All-unsharded is the degenerate deployment: R plain `parallellives serve`
	// processes over the same snapshot form one full-range replica set.
	allUnsharded := true
	for _, id := range ids {
		if id.Sharded {
			allUnsharded = false
			break
		}
	}
	if allUnsharded {
		for i := range clients {
			clients[i].index, clients[i].lo, clients[i].hi = 0, 0, asn.ASN(maxASN)
		}
		set := &replicaSet{index: 0, lo: 0, hi: asn.ASN(maxASN), asns: ids[0].ASNCount, replicas: clients}
		return rt.finish(generation, "unsharded", []*replicaSet{set})
	}

	count := 0
	sum := ""
	groups := map[int][]*shardClient{}
	for i, id := range ids {
		if !id.Sharded || id.Shard == nil {
			return nil, fmt.Errorf("router: %s serves an unsharded snapshot; a replica fleet must be all-sharded or all-unsharded", clients[i].baseURL)
		}
		if sum == "" {
			sum, count = id.Shard.Sum, id.Shard.Count
		}
		if id.Shard.Sum != sum {
			return nil, fmt.Errorf("router: shard fingerprints differ (%s has %s, %s has %s): mixed shard sets",
				clients[0].baseURL, sum, clients[i].baseURL, id.Shard.Sum)
		}
		if id.Shard.Count != count {
			return nil, fmt.Errorf("router: %s says the plan has %d ranges, %s says %d",
				clients[i].baseURL, id.Shard.Count, clients[0].baseURL, count)
		}
		if id.Shard.Index < 0 || id.Shard.Index >= count {
			return nil, fmt.Errorf("router: %s reports shard index %d of a %d-range plan", clients[i].baseURL, id.Shard.Index, count)
		}
		clients[i].index = id.Shard.Index
		clients[i].lo, clients[i].hi = id.Shard.Lo, id.Shard.Hi
		groups[id.Shard.Index] = append(groups[id.Shard.Index], clients[i])
	}

	sets := make([]*replicaSet, count)
	for idx := 0; idx < count; idx++ {
		members := groups[idx]
		if len(members) == 0 {
			return nil, fmt.Errorf("router: shard range %d has no replica (have replicas for %d of %d ranges)", idx, len(groups), count)
		}
		if len(members) < rt.replicasMin {
			return nil, fmt.Errorf("router: shard range %d has %d replica(s), below -replicas-min %d", idx, len(members), rt.replicasMin)
		}
		sort.Slice(members, func(i, j int) bool { return members[i].baseURL < members[j].baseURL })
		seen := map[string]string{}
		for _, sc := range members {
			if prev, ok := seen[sc.replica]; ok && sc.replica != "" {
				return nil, fmt.Errorf("router: duplicate replica %s for shard range %d (%s and %s are the same process)",
					sc.replica, idx, prev, sc.baseURL)
			}
			seen[sc.replica] = sc.baseURL
			if sc.lo != members[0].lo || sc.hi != members[0].hi {
				return nil, fmt.Errorf("router: replicas of shard range %d disagree on bounds (%s has AS%s-AS%s, %s has AS%s-AS%s)",
					idx, members[0].baseURL, members[0].lo, members[0].hi, sc.baseURL, sc.lo, sc.hi)
			}
		}
		_, _, asns := members[0].state()
		sets[idx] = &replicaSet{index: idx, lo: members[0].lo, hi: members[0].hi, asns: asns, replicas: members}
	}

	// Contiguity over the whole ASN space, exactly as before replication.
	for i, set := range sets {
		if i == 0 && set.lo != 0 {
			return nil, fmt.Errorf("router: shard 0 starts at AS%s, not AS0", set.lo)
		}
		if i > 0 && set.lo != sets[i-1].hi+1 {
			return nil, fmt.Errorf("router: gap between shard %d (ends AS%s) and shard %d (starts AS%s)",
				i-1, sets[i-1].hi, i, set.lo)
		}
		if i == len(sets)-1 && set.hi != asn.ASN(maxASN) {
			return nil, fmt.Errorf("router: last shard ends at AS%s, not the top of the ASN space", set.hi)
		}
	}
	return rt.finish(generation, sum, sets)
}

// finish attaches breakers + per-replica instruments (labelled by shard
// index and replica ordinal — bounded cardinality regardless of how
// often replicas restart) and publishes nothing: the caller decides
// when the topology becomes live.
func (rt *Router) finish(generation int64, sum string, sets []*replicaSet) (*topology, error) {
	topo := &topology{generation: generation, sum: sum, sets: sets}
	topo.plan = lifestore.ShardPlan{Count: len(sets)}
	for _, set := range sets {
		topo.plan.Ranges = append(topo.plan.Ranges, lifestore.ShardRange{Lo: set.lo, Hi: set.hi, ASNs: set.asns})
		for ord, sc := range set.replicas {
			sc.ordinal = ord
			shard, rep := strconv.Itoa(set.index), strconv.Itoa(ord)
			// A fresh breaker per admission is deliberate: the replica just
			// proved alive by answering the handshake, so it re-enters
			// service closed.
			sc.breaker = serve.NewBreaker(rt.breakerThreshold, rt.breakerCooldown,
				rt.breakerState.With(shard, rep), rt.breakerTrips.With(shard, rep), rt.breakerShorts.With(shard, rep))
			sc.reqs = rt.shardRequests.With(shard, rep)
			sc.errs = rt.shardErrors.With(shard, rep)
			topo.replicas = append(topo.replicas, sc)
		}
	}
	return topo, nil
}

// RebuildTopology re-runs the handshake against the configured URL set
// and swaps the routing table: replicas that answer are admitted (with
// fresh closed breakers), replicas that don't are retired, and the swap
// only happens if the survivors still form one complete plan — a failed
// rebuild keeps the old topology serving. The router cache is invalidated
// on swap, per-replica metric series that no longer correspond to a
// live replica are dropped, and a retired replica's idle connections
// are closed.
func (rt *Router) RebuildTopology(ctx context.Context) (*TopologyReport, error) {
	rt.rebuildMu.Lock()
	defer rt.rebuildMu.Unlock()

	old := rt.topo.Load()
	topo, err := rt.buildTopology(ctx, old.generation+1, true)
	if err != nil {
		rt.topoReloads.With("error").Inc()
		return nil, err
	}

	oldURLs := map[string]bool{}
	for _, sc := range old.replicas {
		oldURLs[sc.baseURL] = true
	}
	report := &TopologyReport{
		Generation: topo.generation,
		Sum:        topo.sum,
		Ranges:     len(topo.sets),
		Replicas:   len(topo.replicas),
	}
	newURLs := map[string]bool{}
	for _, sc := range topo.replicas {
		newURLs[sc.baseURL] = true
		if oldURLs[sc.baseURL] {
			report.Kept = append(report.Kept, sc.baseURL)
		} else {
			report.Admitted = append(report.Admitted, sc.baseURL)
		}
	}
	var retired []*shardClient
	for _, sc := range old.replicas {
		if !newURLs[sc.baseURL] {
			report.Retired = append(report.Retired, sc.baseURL)
			retired = append(retired, sc)
		}
	}
	sort.Strings(report.Retired)

	rt.topo.Store(topo)
	rt.invalidate()
	rt.topoGen.Set(float64(topo.generation))
	rt.topoReloads.With("ok").Inc()
	rt.dropRetiredSeries(old, topo)
	for _, sc := range retired {
		sc.conns.closeIdle()
	}
	return report, nil
}

// dropRetiredSeries removes per-replica router series whose (shard,
// replica) slot no longer exists.
func (rt *Router) dropRetiredSeries(old, cur *topology) {
	live := cur.slots()
	for key := range old.slots() {
		if live[key] {
			continue
		}
		rt.shardRequests.Drop(key[0], key[1])
		rt.shardErrors.Drop(key[0], key[1])
		rt.breakerState.Drop(key[0], key[1])
		rt.breakerTrips.Drop(key[0], key[1])
		rt.breakerShorts.Drop(key[0], key[1])
	}
}

// handleTopologyReload is POST /v1/admin/topology/reload: the HTTP face
// of RebuildTopology (SIGHUP in `parallellives route` is the other). A rebuild
// that cannot produce a valid topology answers 502 and keeps serving
// the old table.
func (rt *Router) handleTopologyReload(w http.ResponseWriter, r *http.Request) {
	report, err := rt.RebuildTopology(r.Context())
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, 0, "topology reload failed (previous topology retained): %v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, report)
}
