package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"parallellives/internal/obs"
)

// gateExempt lists the paths admission control never sheds: liveness
// and readiness probes must answer while the server is saturated (an
// orchestrator that cannot reach /healthz restarts a merely busy
// process), and /metrics is how operators see the overload at all.
func gateExempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return false
}

// ChainOptions configures a request lifecycle Chain. The zero value
// takes the production defaults; negative values disable the
// corresponding control.
type ChainOptions struct {
	// MaxInFlight caps concurrently handled requests; past it new
	// requests are shed with 503 + Retry-After (default 512; negative
	// disables admission control).
	MaxInFlight int
	// RequestTimeout is the per-request deadline attached to the
	// context (default 10s; negative disables).
	RequestTimeout time.Duration
}

// Chain is the reusable request lifecycle middleware stack — panic
// recovery around admission control around a per-request deadline —
// shared by the single-snapshot server and the shard router, so every
// HTTP front in the system degrades the same way under load. One Chain
// guards one listener; its counters are the lifecycle numbers /v1/health
// and /metrics expose.
type Chain struct {
	maxInFlight    int
	requestTimeout time.Duration

	inflight      atomic.Int64
	inflightGauge *obs.Gauge
	sheds         *obs.Counter
	panics        *obs.Counter
	timeouts      *obs.Counter
}

// NewChain builds a lifecycle chain publishing its gauge and counters
// to reg under the front's names.InFlight, Sheds, Panics and Timeouts.
func NewChain(reg *obs.Registry, names Names, opts ChainOptions) *Chain {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = 512
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	return &Chain{
		maxInFlight:    opts.MaxInFlight,
		requestTimeout: opts.RequestTimeout,
		inflightGauge:  reg.Gauge(names.InFlight, "Requests currently being handled."),
		sheds:          reg.Counter(names.Sheds, "Requests shed at the admission gate (503 + Retry-After)."),
		panics:         reg.Counter(names.Panics, "Handler panics converted into 500 responses."),
		timeouts:       reg.Counter(names.Timeouts, "Lookups abandoned at the request deadline (504)."),
	}
}

// ChainStats is the chain's live state, rendered into /v1/health.
type ChainStats struct {
	InFlight    int64 `json:"inFlight"`
	MaxInFlight int   `json:"maxInFlight"`
	Sheds       int64 `json:"sheds"`
	Panics      int64 `json:"panics"`
	Timeouts    int64 `json:"timeouts"`
}

// Stats returns the chain's current counters.
func (c *Chain) Stats() ChainStats {
	return ChainStats{
		InFlight:    c.inflight.Load(),
		MaxInFlight: c.maxInFlight,
		Sheds:       c.sheds.Value(),
		Panics:      c.panics.Value(),
		Timeouts:    c.timeouts.Value(),
	}
}

// Timeouts returns the chain's deadline-abandonment counter, for
// handlers that classify their own 504s.
func (c *Chain) Timeouts() *obs.Counter { return c.timeouts }

// Wrap stacks the full chain around next: recovery outermost (whatever
// blows up below it fails one request, not the process), then the
// admission gate, then the deadline.
func (c *Chain) Wrap(next http.Handler) http.Handler {
	return c.withRecovery(c.withGate(c.withDeadline(next)))
}

// withRecovery converts a handler panic into a 500 response and keeps
// the process alive.
func (c *Chain) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				c.panics.Inc()
				// Headers may already be out if the handler panicked
				// mid-write; the write below then fails harmlessly.
				WriteError(w, http.StatusInternalServerError, 0, "internal panic: %v", v)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withGate applies admission control: past MaxInFlight concurrent
// requests, new work is shed immediately with 503 + Retry-After rather
// than queued into memory. Shedding early keeps latency bounded for the
// requests actually admitted — the difference between a brownout and a
// collapse under a traffic spike.
func (c *Chain) withGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gateExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		in := c.inflight.Add(1)
		defer func() {
			c.inflight.Add(-1)
			c.inflightGauge.Add(-1)
		}()
		c.inflightGauge.Add(1)
		if c.maxInFlight > 0 && in > int64(c.maxInFlight) {
			c.sheds.Inc()
			WriteError(w, http.StatusServiceUnavailable, 1, "overloaded: %d requests in flight (cap %d)", in, c.maxInFlight)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withDeadline attaches the per-request deadline to the context, which
// handlers propagate into backend reads: a request that outlives
// RequestTimeout stops consuming them.
func (c *Chain) withDeadline(next http.Handler) http.Handler {
	if c.requestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), c.requestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// HTTPOptions configures the hardened http.Server and its shutdown
// drain. Zero fields take the listed defaults; serving with no timeouts
// at all (the bare http.ListenAndServe shape) is not expressible here,
// by design — a single slow-loris client would otherwise pin a
// connection forever.
type HTTPOptions struct {
	// ReadHeaderTimeout bounds header arrival (default 5s); ReadTimeout
	// the whole request read (default 30s); WriteTimeout the response
	// write (default 60s); IdleTimeout keep-alive idling (default 120s).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the stop signal before the server is torn
	// down hard (default 10s).
	DrainTimeout time.Duration
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 60 * time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 120 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// NewHTTPServer builds an http.Server with every timeout set.
func NewHTTPServer(h http.Handler, opts HTTPOptions) *http.Server {
	opts = opts.withDefaults()
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		ReadTimeout:       opts.ReadTimeout,
		WriteTimeout:      opts.WriteTimeout,
		IdleTimeout:       opts.IdleTimeout,
	}
}

// Listen binds addr, surfacing bind errors (port taken, bad address)
// before any serving output is produced.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: binding %s: %w", addr, err)
	}
	return ln, nil
}

// Run serves h on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes (new connections are refused), every
// in-flight request gets up to DrainTimeout to complete, and only then
// are the survivors' connections torn down. Returns nil on a clean
// drain, the shutdown error when the drain deadline expired, or the
// serve error if the listener failed first.
func Run(ctx context.Context, ln net.Listener, h http.Handler, opts HTTPOptions) error {
	opts = opts.withDefaults()
	srv := NewHTTPServer(h, opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drain)
	<-errc // Serve has returned http.ErrServerClosed by now
	if err != nil {
		return fmt.Errorf("serve: shutdown drain incomplete after %v: %w", opts.DrainTimeout, err)
	}
	return nil
}
