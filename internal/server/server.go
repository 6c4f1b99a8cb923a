package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"streamxpath/internal/delivery"
)

// Server is the xpfilterd HTTP front end: the tenant registry, the
// route table, and the drain-aware lifecycle around an http.Server.
//
// Lifecycle: New → Listen (binds, reports the real address) → Serve
// (blocks) → Shutdown (graceful drain: new requests get 503 while
// in-flight matches run to their verdicts, then the engines close).
// Handler() exposes the full middleware-wrapped route table for
// httptest-based tests, which skip Listen/Serve entirely.
type Server struct {
	cfg Config
	log *slog.Logger
	reg *Registry

	// draining flips at the start of Shutdown: the middleware answers
	// 503 from then on, while requests already past it finish normally
	// under http.Server.Shutdown's in-flight tracking.
	draining atomic.Bool

	httpSrv  *http.Server
	listener net.Listener
}

// serverTimeout resolves a configured HTTP timeout: zero selects the
// hardening default, negative disables (http.Server treats 0 as "no
// timeout").
func serverTimeout(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// New builds a server from cfg. logger nil selects a text handler on
// stderr.
func New(cfg Config, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	mgr := delivery.NewManager(delivery.Config{
		QueueDepth:       cfg.DeliveryQueue,
		Workers:          cfg.DeliveryWorkers,
		Timeout:          cfg.DeliveryTimeout,
		MaxAttempts:      cfg.DeliveryAttempts,
		BackoffBase:      cfg.DeliveryBackoff,
		BackoffMax:       cfg.DeliveryBackoffMax,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		DeadLetterDepth:  cfg.DeadLetterDepth,
	})
	s := &Server{
		cfg: cfg,
		log: logger,
		reg: NewRegistry(TenantConfig{
			Limits:  cfg.DefaultLimits,
			Workers: cfg.Workers,
			MaxSubs: cfg.MaxSubs,
		}, NewMetrics(), mgr),
	}
	// Every timeout is bounded by default: ReadHeaderTimeout alone
	// leaves the server open to slow-loris bodies and abandoned
	// keep-alive connections.
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       serverTimeout(cfg.IdleTimeout, 120*time.Second),
		ReadTimeout:       serverTimeout(cfg.ReadTimeout, 5*time.Minute),
		WriteTimeout:      serverTimeout(cfg.WriteTimeout, 5*time.Minute),
	}
	return s
}

// Registry exposes the tenant registry (tests seed tenants directly).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the complete route table wrapped in the drain,
// metrics, and logging middleware.
//
// The subscription PUT accepts either a raw XPath body or a JSON
// envelope ({"query", "extract", "webhook"}); with "extract": true the
// engine captures the matched element's subtree, POST .../match
// responses carry it in a "fragments" object keyed by subscription id,
// and webhook deliveries for that subscription POST the subtree itself
// as application/xml (identified by X-Xpfilterd-* headers) instead of
// the JSON match event. Ingest within a tenant is concurrent: each
// response reports its own call's verdicts, fragments, abstain flag,
// and reader/memory stats (the call's MatchResult).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handlePutTenant)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("GET /v1/tenants/{tenant}", s.handleGetTenant)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDeleteTenant)
	mux.HandleFunc("PUT /v1/tenants/{tenant}/subscriptions/{id}", s.handlePutSubscription)
	mux.HandleFunc("GET /v1/tenants/{tenant}/subscriptions/{id}", s.handleGetSubscription)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/subscriptions/{id}", s.handleDeleteSubscription)
	mux.HandleFunc("GET /v1/tenants/{tenant}/subscriptions", s.handleListSubscriptions)
	mux.HandleFunc("POST /v1/tenants/{tenant}/match", s.handleMatch)
	mux.HandleFunc("GET /v1/tenants/{tenant}/deadletters", s.handleDeadLetters)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.middleware(mux)
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// middleware wraps every route: the drain gate first (a draining server
// answers 503 before any work happens — /healthz keeps its own drain
// answer so probes see the same thing), then request metrics and
// structured logging.
func (s *Server) middleware(next http.Handler) http.Handler {
	m := s.reg.Metrics()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		m.inflight.Add(1)
		defer func() {
			m.inflight.Add(-1)
			elapsed := time.Since(start)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			m.recordHTTP(r.Method, sw.status, elapsed)
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration", elapsed,
				"remote", r.RemoteAddr,
			)
		}()
		if s.draining.Load() && r.URL.Path != "/healthz" {
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		next.ServeHTTP(sw, r)
	})
}

// Listen binds the configured address and, when AddrFile is set, writes
// the actual bound address there — how scripts discover an ephemeral
// port. Call before Serve.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	if s.cfg.AddrFile != "" {
		if err := os.WriteFile(s.cfg.AddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing addr-file: %w", err)
		}
	}
	s.log.Info("listening", "addr", ln.Addr().String())
	return nil
}

// Addr returns the bound address (empty before Listen).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Serve blocks serving requests until Shutdown. It returns nil on a
// clean shutdown.
func (s *Server) Serve() error {
	if s.listener == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	err := s.httpSrv.Serve(s.listener)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: the 503 gate flips first and the
// listener stays open for DrainGrace so new requests — and health
// probes — observe 503 rather than connection refusals; then
// http.Server.Shutdown waits for in-flight requests — a streaming
// match keeps reading its body until the verdict latches — then the
// outbound delivery queue flushes (in-flight webhook retries get the
// remaining drain budget; what can't flush is abandoned and counted),
// and finally every tenant engine's worker goroutines are closed. The
// context bounds the whole wait; on expiry open connections are torn
// down hard and the error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("draining", "grace", s.cfg.DrainGrace, "timeout", s.cfg.DrainTimeout)
	if s.cfg.DrainGrace > 0 {
		select {
		case <-time.After(s.cfg.DrainGrace):
		case <-ctx.Done():
		}
	}
	err := s.httpSrv.Shutdown(ctx)
	// No new matches can enqueue deliveries now; flush what's queued.
	abandoned := s.reg.Delivery().Drain(ctx)
	if abandoned > 0 {
		s.log.Warn("deliveries abandoned at drain", "count", abandoned)
	}
	s.reg.Close()
	if err != nil {
		s.log.Error("drain incomplete", "err", err, "abandoned_deliveries", abandoned)
		return err
	}
	s.log.Info("drained", "abandoned_deliveries", abandoned)
	return nil
}
