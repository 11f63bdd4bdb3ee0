// Package serve is the bsmpd serving layer: an HTTP JSON surface over
// the scheme registry and the closed-form Theorem 1 bounds, hardened for
// adversarial traffic. The layering, outermost first:
//
//   - middleware: panic recovery (defense in depth behind the validation
//     boundary — no request can take the daemon down) and expvar request
//     accounting;
//   - validation: bsmp.ValidateParams plus server-side size caps turn
//     every malformed or oversized tuple into a structured 4xx before
//     any machinery is constructed;
//   - result cache: an LRU keyed on the full request tuple, with
//     singleflight coalescing so a storm of identical queries costs one
//     simulation;
//   - worker pool: a bounded queue with per-request deadlines — load
//     beyond Workers+QueueDepth is shed with 429, never buffered
//     unboundedly;
//   - graceful shutdown: /healthz flips to 503 draining, in-flight
//     simulations finish, then the listener closes.
//
// Endpoints: POST /v1/run, POST /v1/sweep (NDJSON-streamed parameter
// grids), GET /v1/runs (+ /v1/runs/{id}, /v1/runs/{id}/events — the run
// registry's introspection surface), GET /v1/bounds, GET /v1/schemes,
// GET /healthz, GET /metrics (expvar-style JSON), GET /metrics.prom.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"expvar"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsmp"
	"bsmp/internal/obs"
)

// Config sizes the daemon. The zero value of any field selects its
// default.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Workers caps concurrently running simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth is the number of requests that may wait for a worker
	// beyond those running; further ones get 429 (default 64; negative
	// means no queue at all).
	QueueDepth int
	// CacheEntries sizes the result LRU (default 512; negative
	// disables caching).
	CacheEntries int
	// RequestTimeout is the per-request deadline for /v1/run and the
	// per-row execution bound for /v1/sweep (default 30s). A run that
	// exceeds it gets 504 (a deadline error row in a sweep): the
	// deadline cancels the simulation at its next checkpoint, freeing
	// its worker, and nothing is cached.
	RequestTimeout time.Duration
	// MaxN, MaxM, MaxSteps cap request parameters so a single query
	// cannot exhaust memory; violations get a structured 400 (defaults
	// 1<<16, 1<<12, 1<<12).
	MaxN, MaxM, MaxSteps int
	// MemoCapacity bounds the process-wide unified memo store (kernel
	// values plus subtree replay records). 0 keeps the library default
	// (simulate.DefaultMemoCapacity); a negative value disables
	// memoization entirely.
	MemoCapacity int
	// MaxSweepPoints caps how many grid points one /v1/sweep may expand
	// to (default 4096); larger grids get a structured 400.
	MaxSweepPoints int
	// SweepParallel bounds how many grid points may occupy pool slots at
	// once across ALL concurrent sweeps combined (one server-wide
	// semaphore, not a per-sweep budget), so sweep traffic as a whole
	// cannot monopolize the queue against interactive /v1/run traffic
	// (default Workers).
	SweepParallel int
	// RegistryCapacity bounds the run registry's flight recorder — how
	// many completed run records /v1/runs retains (live runs are always
	// tracked). 0 selects the default (obs.DefaultRegistryCapacity); a
	// negative value disables the registry entirely, turning the
	// introspection endpoints into 404s and removing the per-run
	// record-keeping from the hot path.
	RegistryCapacity int
	// Logger receives the daemon's structured JSON records: one access
	// line per request (with its generated request ID) and run
	// start/done/failed lifecycle lines. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxN == 0 {
		c.MaxN = 1 << 16
	}
	if c.MaxM == 0 {
		c.MaxM = 1 << 12
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 12
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 4096
	}
	if c.SweepParallel < 1 {
		c.SweepParallel = c.Workers
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return c
}

// Server is the bsmpd daemon state.
type Server struct {
	cfg      Config
	cache    *Cache
	pool     *Pool
	flight   flightGroup
	vars     *expvar.Map
	ctr      counters
	handler  http.Handler
	httpSrv  *http.Server
	draining atomic.Bool

	// log is the structured logger; bootID + reqSeq generate the
	// per-request IDs stamped on responses and every log record.
	log    *slog.Logger
	bootID string
	reqSeq atomic.Uint64

	// registry is the run registry + flight recorder behind /v1/runs;
	// nil when Config.RegistryCapacity < 0 (every obs call site is
	// nil-safe). runSeq numbers run IDs within this boot.
	registry *obs.Registry
	runSeq   atomic.Uint64

	// Serving-quality histograms, exposed on /metrics (JSON snapshots)
	// and /metrics.prom (Prometheus text format).
	latHist   *obs.Histogram // end-to-end run execution latency, seconds
	waitHist  *obs.Histogram // pool queue wait, seconds
	sizeHist  *obs.Histogram // executed run size, guest vertices n*steps
	thetaHist *obs.Histogram // latency of Θ-model (theta != 0) runs only, seconds

	// baseCtx is the server's lifetime context: every request context is
	// tied to it, so cancelling baseCancel hard-stops every in-flight
	// simulation at its next cooperative checkpoint. Shutdown pulls this
	// lever when its drain budget expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// inflight registers the Progress of every simulation currently
	// executing; /metrics sums it into live gauges.
	inflightMu sync.Mutex
	inflight   map[*bsmp.Progress]struct{}

	// sweepsLive and sweepRowsPending count the streaming sweeps and
	// their unresolved grid points for the live gauges; sweepSem bounds
	// total sweep-held pool slots across all concurrent sweeps;
	// sweepRowHist feeds bsmpd_sweep_row_latency_seconds.
	sweepsLive       atomic.Int64
	sweepRowsPending atomic.Int64
	sweepSem         chan struct{}
	sweepRowHist     *obs.Histogram

	// runScheme executes a validated run request under ctx; tests
	// substitute it to inject blocking or panicking work behind the full
	// middleware, cache, and pool stack.
	runScheme func(ctx context.Context, req RunRequest) (*RunResponse, error)
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheEntries),
		pool:      NewPool(cfg.Workers, cfg.QueueDepth),
		vars:      new(expvar.Map).Init(),
		inflight:  make(map[*bsmp.Progress]struct{}),
		log:       cfg.Logger,
		bootID:    newBootID(),
		latHist:   obs.NewHistogram(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30),
		waitHist:  obs.NewHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5),
		sizeHist:  obs.NewHistogram(1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8),
		thetaHist: obs.NewHistogram(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30),

		sweepRowHist: obs.NewHistogram(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30),
	}
	s.sweepSem = make(chan struct{}, cfg.SweepParallel)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.runScheme = s.execute
	if cfg.RegistryCapacity >= 0 {
		s.registry = obs.NewRegistry(cfg.RegistryCapacity)
	}
	if cfg.MemoCapacity != 0 {
		bsmp.SetMemoCapacity(cfg.MemoCapacity)
	}
	s.pool.SetQueueWaitObserver(s.waitHist.Observe)
	s.ctr.publish(s.vars)
	s.registerGauges()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunRecord)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("/v1/bounds", s.handleBounds)
	mux.HandleFunc("/v1/schemes", s.handleSchemes)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	s.handler = s.withRecover(s.withCounters(mux))
	return s
}

// Handler returns the fully wrapped HTTP handler (also used by the
// httptest-based unit tests).
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves until the listener fails or Shutdown runs.
func (s *Server) ListenAndServe() error {
	s.httpSrv = &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	err := s.httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: /healthz flips to draining, the
// HTTP server stops accepting and waits for in-flight handlers (each of
// which waits for its simulation), then the pool's remaining queue is
// drained. ctx bounds the graceful phase; when it expires, Shutdown
// hard-cancels the server's base context so every in-flight simulation
// stops at its next cooperative checkpoint, then waits for the pool to
// unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ctr.Draining.Add(1)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain budget exhausted: stop in-flight simulations instead of
		// abandoning them mid-CPU-burn. Every request context descends
		// from baseCtx, so the pool drains promptly.
		s.baseCancel()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	s.baseCancel()
	return err
}

// registerGauges installs the live expvar gauges: in-flight run progress
// and the multiprocessor kernel-cache counters. expvar.Func re-evaluates
// on every /metrics render, so the values are current, not snapshots.
func (s *Server) registerGauges() {
	s.vars.Set("inflight_runs", expvar.Func(func() any {
		s.inflightMu.Lock()
		defer s.inflightMu.Unlock()
		return len(s.inflight)
	}))
	s.vars.Set("inflight_vertices", expvar.Func(func() any {
		s.inflightMu.Lock()
		defer s.inflightMu.Unlock()
		var v int64
		for p := range s.inflight {
			v += p.Vertices.Load()
		}
		return v
	}))
	s.vars.Set("inflight_phases", expvar.Func(func() any {
		s.inflightMu.Lock()
		defer s.inflightMu.Unlock()
		var v int64
		for p := range s.inflight {
			v += p.Phases.Load()
		}
		return v
	}))
	s.vars.Set("queue_depth", expvar.Func(func() any {
		return s.pool.QueueDepth()
	}))
	for i, name := range []string{"kernel_cache_entries", "kernel_cache_hits", "kernel_cache_misses", "kernel_cache_evictions"} {
		s.vars.Set(name, expvar.Func(func() any {
			e, h, m, ev := bsmp.KernelCacheStats()
			return [...]int64{int64(e), h, m, ev}[i]
		}))
	}
	// Unified memo store gauges (kernels + subtree replay records). The
	// scalar counters render on both endpoints; the per-(kind, level)
	// breakdown renders as JSON here and as labeled series on
	// /metrics.prom.
	for name, field := range map[string]func(bsmp.MemoStats) any{
		"memo_capacity":  func(m bsmp.MemoStats) any { return m.Capacity },
		"memo_entries":   func(m bsmp.MemoStats) any { return m.Entries },
		"memo_hits":      func(m bsmp.MemoStats) any { return m.Hits },
		"memo_misses":    func(m bsmp.MemoStats) any { return m.Misses },
		"memo_evictions": func(m bsmp.MemoStats) any { return m.Evictions },
		"memo_levels":    func(m bsmp.MemoStats) any { return m.Levels },
	} {
		s.vars.Set(name, expvar.Func(func() any { return field(bsmp.MemoStatsSnapshot()) }))
	}
	// Histogram snapshots render inline in the /metrics JSON; the
	// Prometheus endpoint serves the same data in text format.
	s.vars.Set("run_latency_seconds", expvar.Func(func() any { return s.latHist.Snapshot() }))
	s.vars.Set("queue_wait_seconds", expvar.Func(func() any { return s.waitHist.Snapshot() }))
	s.vars.Set("run_vertices", expvar.Func(func() any { return s.sizeHist.Snapshot() }))
	s.vars.Set("theta_run_latency_seconds", expvar.Func(func() any { return s.thetaHist.Snapshot() }))
	s.vars.Set("sweep_row_latency_seconds", expvar.Func(func() any { return s.sweepRowHist.Snapshot() }))
	// Run registry occupancy: live (queued + running) records and the
	// completed records the flight recorder retains. The per-(state,
	// scheme) breakdown renders as labeled bsmpd_runs_active series on
	// /metrics.prom.
	s.vars.Set("registry_live_runs", expvar.Func(func() any {
		live, _ := s.registry.Len()
		return live
	}))
	s.vars.Set("registry_retained_runs", expvar.Func(func() any {
		_, retained := s.registry.Len()
		return retained
	}))
	// Live sweep progress: how many sweeps are streaming right now and
	// how many of their grid points are still unresolved.
	s.vars.Set("inflight_sweeps", expvar.Func(func() any { return s.sweepsLive.Load() }))
	s.vars.Set("sweep_rows_pending", expvar.Func(func() any { return s.sweepRowsPending.Load() }))
}

// newBootID returns the random prefix of this process's request IDs, so
// IDs from distinct daemon incarnations never collide in aggregated
// logs.
func newBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}
