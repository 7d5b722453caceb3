package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"parallellives/internal/lifestore"
	"parallellives/internal/obs"
)

// GenInfo describes one snapshot generation a server has served.
type GenInfo struct {
	// Gen is the monotone generation number, starting at 1.
	Gen int64 `json:"gen"`
	// Source names where the generation came from (a snapshot path).
	Source string `json:"source"`
	// ASNCount is the generation's headline size.
	ASNCount int `json:"asnCount"`
}

// generation is one refcounted source: inflight counts the requests
// currently borrowing it, and its closer runs only after the generation
// has been retired and the count has drained to zero. prev is the
// generation it replaced, copied so that no chain of retired sources
// stays reachable.
type generation struct {
	src      Source
	closer   io.Closer
	info     GenInfo
	prev     *GenInfo
	inflight atomic.Int64
}

// borrow pins the serving generation for one request; release must run
// when the request is done. The retry loop closes the swap race: if a
// reload lands between loading the pointer and incrementing the count,
// the count may have been observed at zero and the closer may already
// have fired, so the borrow is abandoned and retried on the new current.
func (s *Server) borrow() *generation {
	for {
		g := s.cur.Load()
		g.inflight.Add(1)
		if s.cur.Load() == g {
			return g
		}
		g.inflight.Add(-1)
	}
}

func (g *generation) release() { g.inflight.Add(-1) }

// retire closes the generation in the background once its last
// borrower returns: a reload never yanks a source out from under a
// request, and never waits for one.
func (g *generation) retire() {
	if g.closer == nil {
		return
	}
	go func() {
		for g.inflight.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
		g.closer.Close()
	}()
}

// OpenFunc opens and fully verifies a source for a reloading server's
// next generation. It must not return a partially verified source:
// whatever it hands back is installed as the serving generation.
type OpenFunc func(ctx context.Context) (src Source, closer io.Closer, source string, err error)

// FileOpener is the standard OpenFunc for snapshot files: open the
// path with open (lifestore.Open, or lifestore.OpenMapped to read the
// page cache instead of issuing pread syscalls), verify every block
// (section checksum plus each indexed block's CRC and decode), and
// instrument lookups into reg (nil skips instrumentation). The
// open-and-verify happens entirely before the swap, so the old
// generation serves untouched through a slow or failed reload.
func FileOpener(open func(path string) (*lifestore.Store, error), path string, reg *obs.Registry) OpenFunc {
	return func(ctx context.Context) (Source, io.Closer, string, error) {
		st, err := lifestore.OpenObserved(open, path, reg)
		if err != nil {
			return nil, nil, "", err
		}
		if err := ctx.Err(); err != nil {
			st.Close()
			return nil, nil, "", err
		}
		if err := st.VerifyBlocks(); err != nil {
			st.Close()
			return nil, nil, "", fmt.Errorf("verifying %s: %w", path, err)
		}
		return st, st, path, nil
	}
}

// NewReloadable builds a server whose generations come from open: the
// first now, each later one from Reload, which POST /v1/admin/reload
// calls too. Reload outcomes and the serving generation are published
// as MetricReloads and MetricGeneration, and /v1/health reports the
// current and previous generation.
func NewReloadable(ctx context.Context, open OpenFunc, opts Options) (*Server, error) {
	src, closer, source, err := open(ctx)
	if err != nil {
		return nil, err
	}
	s := newServer(&generation{src: src, closer: closer,
		info: GenInfo{Gen: 1, Source: source, ASNCount: src.ASNCount()}}, opts)
	s.open = open
	reg := s.front.Obs.Registry
	s.reloads = reg.CounterVec(MetricReloads, "Hot snapshot reloads by outcome.", "outcome")
	s.genGauge = reg.Gauge(MetricGeneration,
		"Snapshot generation currently serving (increments per successful reload).")
	s.genGauge.Set(1)
	s.front.Handle("POST /v1/admin/reload", s.json(false, s.handleReload))
	return s, nil
}

// Reload opens and verifies the next generation, swaps it in and
// returns it; the old generation closes once its last borrowing request
// returns. Reloads are serialized. On any failure the old generation
// keeps serving and the error is returned — a reload can never make a
// healthy server worse.
func (s *Server) Reload(ctx context.Context) (GenInfo, error) {
	if s.open == nil {
		return GenInfo{}, errors.New("serve: reload: the server was built by New over a fixed source")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed {
		return GenInfo{}, errors.New("serve: reload: the server is closed")
	}
	src, closer, source, err := s.open(ctx)
	if err != nil {
		s.reloads.With("error").Inc()
		return GenInfo{}, fmt.Errorf("serve: reload rejected: %w", err)
	}
	old := s.cur.Load()
	prev := old.info
	g := &generation{src: src, closer: closer, prev: &prev,
		info: GenInfo{Gen: prev.Gen + 1, Source: source, ASNCount: src.ASNCount()}}
	s.cur.Store(g)
	old.retire()
	s.genGauge.Set(float64(g.info.Gen))
	s.reloads.With("ok").Inc()
	return g.info, nil
}

// Close retires the serving generation: its store closes once the last
// request borrowing it returns, as a reloaded-out generation's does, and
// every later Reload fails. Call it once the server takes no new
// requests. Close is idempotent.
func (s *Server) Close() {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.closed {
		s.closed = true
		s.cur.Load().retire()
	}
}

// Generation reports the serving generation.
func (s *Server) Generation() GenInfo { return s.cur.Load().info }

// handleReload runs a verified hot reload and reports the new
// generation. Failures leave the old generation serving and surface as
// 502: the snapshot on disk, not this server, is the broken party.
func (s *Server) handleReload(r *http.Request, _ *generation) (any, *apiError) {
	info, err := s.Reload(r.Context())
	if err != nil {
		return nil, errf(http.StatusBadGateway, "%v", err)
	}
	return info, nil
}
