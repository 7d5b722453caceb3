package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"parallellives/internal/asn"
	"parallellives/internal/obs"
	"parallellives/internal/serve"
)

// errShardDown classifies a shard that could not answer: breaker open,
// transport failure, or a 5xx. The router degrades instead of failing
// the whole request where its policy allows.
var errShardDown = errors.New("router: shard unavailable")

// MaxPeerBody caps how much of a peer's response body is read into
// memory. The largest legitimate body measured is the stride-1 series
// over the full 6,354-day window, 134 KB (a replica's /metrics is 21 KB,
// a full /v1/debug/slow ring 8 KB); 4 MiB leaves 30x headroom for
// paper-scale counts, which only widen each number by a few digits.
const MaxPeerBody = 4 << 20

// ReadPeerBody reads a peer's response body whole, refusing to hold
// more than MaxPeerBody of it whatever length the peer claims.
func ReadPeerBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxPeerBody+1))
	if err == nil && len(body) > MaxPeerBody {
		err = errBodyTooLarge
	}
	return body, err
}

// errBodyTooLarge refuses a body past MaxPeerBody.
var errBodyTooLarge = fmt.Errorf("body exceeds the %d-byte peer cap", MaxPeerBody)

// upstream is one shard response captured whole, so it can be proxied
// byte-for-byte or parked in the router cache.
type upstream struct {
	status      int
	contentType string
	etag        string
	retryAfter  string
	body        []byte
}

// entry is one cached upstream response, the shard index it came from,
// and the cache epoch read before its fetch began. The router answers it
// without asking that shard for as long as the epoch is current: every
// event that may move a range's generation bumps it (Router.invalidate).
type entry struct {
	shard int
	epoch uint64
	resp  upstream
}

// shardClient is the router's handle on one replica process: its base
// URL, the range it serves, a circuit breaker, and the identity the
// last handshake or probe reported. Until the handshake has grouped
// replicas into sets the breaker and counters are nil — a nil breaker
// is always closed, and fetchOne skips nil counters.
type shardClient struct {
	index   int    // shard range index
	ordinal int    // position within the range's replica set
	replica string // the process's self-reported replica ID
	baseURL string
	conns   *replicaPool
	breaker *serve.Breaker

	// Pre-resolved (shard, replica) instrument handles, assigned when
	// the topology admits this client.
	reqs *obs.Counter
	errs *obs.Counter

	lo, hi asn.ASN

	mu       sync.Mutex
	gen      int64
	asnCount int
}

// identity fetches /v1/shard and records the reported generation. It is
// both the startup handshake and the recurring probe — and because it
// runs through the breaker, a dead shard's recovery is discovered here
// without spending a client request on the half-open probe.
func (sc *shardClient) identity(ctx context.Context) (serve.ShardIdentity, error) {
	return sc.noteIdentity(sc.fetch(ctx, http.MethodGet, "/v1/shard", ""))
}

// noteIdentity decodes one /v1/shard answer and records what it reports.
func (sc *shardClient) noteIdentity(resp *upstream, err error) (serve.ShardIdentity, error) {
	var id serve.ShardIdentity
	if err != nil {
		return id, err
	}
	if resp.status != http.StatusOK {
		return id, fmt.Errorf("router: shard %s /v1/shard = %d", sc.baseURL, resp.status)
	}
	if err := json.Unmarshal(resp.body, &id); err != nil {
		return id, fmt.Errorf("router: shard %s identity: %w", sc.baseURL, err)
	}
	sc.mu.Lock()
	sc.gen = id.Generation
	sc.asnCount = id.ASNCount
	sc.mu.Unlock()
	return id, nil
}

// state summarises the client for health and topology endpoints.
func (sc *shardClient) state() (breakerState string, gen int64, asnCount int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.breakerState(), sc.gen, sc.asnCount
}

// breakerState is the picker's view: "closed" sorts first.
func (sc *shardClient) breakerState() string {
	state, _, _, _ := sc.breaker.Snapshot()
	return state
}

// fetch performs one breaker-guarded request against the replica and
// captures the response whole. The breaker's failure taxonomy mirrors
// the serving tier's: transport errors and 5xx are failures, a context
// expiry is neutral (the shard may be fine; the client gave up), and
// everything else — including 4xx, which prove the shard answered — is
// success.
func (sc *shardClient) fetch(ctx context.Context, method, pathq, ifNoneMatch string) (*upstream, error) {
	if !sc.breaker.Allow() {
		return nil, fmt.Errorf("%w: breaker open for %s", errShardDown, sc.baseURL)
	}
	// One child span per upstream call, named only when the request
	// carries a tracer (an untraced fetch would allocate the name just to
	// discard it). When the caller's trace crossed a process boundary to
	// reach us, cross the next one too: inject traceparent so the shard
	// joins the same trace, and stitch its span summary back under this
	// span (DESIGN.md §13).
	var sp *obs.Span
	if obs.TracerFrom(ctx) != nil {
		ctx, sp = obs.StartSpan(ctx, "shard["+strconv.Itoa(sc.index)+"] "+method+" "+pathq)
	}
	defer sp.End()
	// Replica identity rides as an attribute, not in the span name: the
	// name stays stable per range so cross-replica traces aggregate.
	sp.SetAttr("replica", int64(sc.ordinal))
	target, err := requestTarget(pathq)
	if err != nil {
		sc.breaker.OnNeutral()
		return nil, err
	}
	_, propagate := obs.RemoteParentFrom(ctx)
	var traceparent string
	if propagate {
		if pc := sp.SpanContext(); pc.Valid() {
			traceparent = pc.Traceparent()
		}
	}
	resp, body, err := sc.conns.roundTrip(ctx, method, target, ifNoneMatch, traceparent)
	if err != nil {
		if ctx.Err() != nil {
			sc.breaker.OnNeutral()
			return nil, ctx.Err()
		}
		sc.breaker.OnFailure()
		return nil, fmt.Errorf("%w: %v", errShardDown, err)
	}
	sp.SetAttr("status", int64(resp.StatusCode))
	if resp.StatusCode >= http.StatusInternalServerError {
		sc.breaker.OnFailure()
		return nil, fmt.Errorf("%w: %s answered %d", errShardDown, sc.baseURL, resp.StatusCode)
	}
	sc.breaker.OnSuccess()
	if propagate {
		if sum, ok := obs.ParseSpanHeader(resp.Header.Get(obs.SpanHeader)); ok {
			sp.AttachRemote(sum)
		}
	}
	return &upstream{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		etag:        resp.Header.Get("ETag"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        body,
	}, nil
}

// relay writes a captured shard response to the client byte-for-byte:
// same status, content type, validator and body. This is what keeps the
// sharded tier indistinguishable from a single process.
func relay(w http.ResponseWriter, u *upstream) {
	if u.contentType != "" {
		w.Header().Set("Content-Type", u.contentType)
	}
	if u.etag != "" {
		w.Header().Set("ETag", u.etag)
	}
	if u.retryAfter != "" {
		w.Header().Set("Retry-After", u.retryAfter)
	}
	if u.status == http.StatusNotModified {
		w.WriteHeader(u.status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(u.body)))
	w.WriteHeader(u.status)
	w.Write(u.body)
}
