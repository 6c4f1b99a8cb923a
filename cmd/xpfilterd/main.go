// Command xpfilterd is the long-running XPath dissemination server: a
// multi-tenant HTTP daemon wrapping the dissemination engine, one pool of
// engine replicas per tenant. Tenants register standing XPath
// subscriptions; documents POSTed to a tenant are matched against all of
// them in one streaming pass and answered with the matched subscription
// ids.
//
// Usage:
//
//	xpfilterd -addr :8080
//	XPFILTERD_ADDR=:8080 XPFILTERD_ON_LIMIT=abstain xpfilterd
//
// API (JSON errors, Prometheus text metrics):
//
//	PUT    /v1/tenants/{tenant}                    create tenant (optional {"limits":{...},"workers":N,
//	                                               "maxSubscriptions":N} body)
//	GET    /v1/tenants                             list tenants
//	GET    /v1/tenants/{tenant}                    tenant info
//	DELETE /v1/tenants/{tenant}                    delete tenant (drains its in-flight match,
//	                                               abandons its queued deliveries)
//	PUT    /v1/tenants/{tenant}/subscriptions/{id} register XPath: raw expression body, or a
//	                                               {"query":...,"extract":true,"webhook":{"url":...,
//	                                               "timeout_ms":N,"max_attempts":N}} envelope to
//	                                               enable fragment extraction and/or attach a
//	                                               webhook; implicit tenant creation
//	GET    /v1/tenants/{tenant}/subscriptions      list subscriptions
//	GET    /v1/tenants/{tenant}/subscriptions/{id} one subscription
//	DELETE /v1/tenants/{tenant}/subscriptions/{id} remove subscription
//	POST   /v1/tenants/{tenant}/match              match a document; buffered bodies take the
//	                                               in-memory fast path, chunked bodies stream
//	                                               with mid-upload early exit; the response's
//	                                               "fragments" object maps each matched
//	                                               extraction subscription to its extracted
//	                                               subtree; matched webhook subscriptions
//	                                               enqueue outbound deliveries
//	GET    /v1/tenants/{tenant}/deadletters        deliveries that exhausted their retry budget
//	GET    /metrics                                Prometheus text exposition
//	GET    /healthz                                liveness (503 while draining)
//
// Documents POSTed to one tenant are matched concurrently: ingest holds
// only the read side of the tenant lock, and each response carries its
// own document's verdicts, fragments and accounting (subscription CRUD
// still drains in-flight matches before touching the shared indexes).
//
// Matched documents are delivered to subscription webhooks at least
// once: failed POSTs retry with exponential backoff and full jitter, a
// per-endpoint circuit breaker isolates dead receivers, and exhausted
// deliveries land in the per-tenant dead-letter ring. A subscription
// registered with "extract":true receives the matched subtree itself as
// the POST body (Content-Type application/xml; tenant, subscription and
// attempt ride in the X-Xpfilterd-* headers) — content-based routing —
// while plain subscriptions receive the JSON match event envelope.
//
// Every flag defaults from an XPFILTERD_* environment variable (see
// -help). On SIGINT/SIGTERM the daemon drains gracefully: new requests
// are answered 503 while in-flight matches run to their verdicts, the
// outbound delivery queue flushes within the drain budget (what cannot
// flush is abandoned and counted in the drain log), then the tenant
// engines close and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"streamxpath/internal/buildinfo"
	"streamxpath/internal/server"
)

func main() {
	var cfg server.Config
	fs := flag.NewFlagSet("xpfilterd", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	version := fs.Bool("version", false, "print version and exit")
	logJSON := fs.Bool("log-json", os.Getenv("XPFILTERD_LOG_JSON") == "1",
		"log structured JSON instead of text (env XPFILTERD_LOG_JSON=1)")
	fs.Parse(os.Args[1:])
	if *version {
		fmt.Println(buildinfo.String("xpfilterd"))
		return
	}
	if err := cfg.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "xpfilterd: %v\n", err)
		os.Exit(2)
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	srv := server.New(cfg, log)
	if err := srv.Listen(); err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}

	// Serve on the main goroutine's behalf; the signal wait below owns
	// shutdown. Serve returns nil after a clean Shutdown.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			os.Exit(1)
		}
		if err := <-errc; err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case err := <-errc:
		if err != nil {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
