// Package server is the serving layer of the dissemination engine: a
// multi-tenant HTTP front end over FilterPool. Each tenant owns an
// isolated subscription set and engine pool; documents POSTed to a tenant
// are matched against its standing subscriptions in one streaming pass
// and answered with the matched subscription ids. The package is
// stdlib-only — net/http for transport, log/slog for logging, and a
// hand-rolled Prometheus text exposition for metrics — so the module
// stays dependency-free.
package server

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"streamxpath"
)

// Config carries everything the daemon needs: where to listen, the
// per-tenant engine defaults, and the serving knobs. Flag values
// default from XPFILTERD_* environment variables (flag wins when both
// are given), so containerized deployments configure without argv.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks an ephemeral
	// port).
	Addr string
	// AddrFile, when non-empty, receives the actual bound address after
	// Listen — how scripts and tests discover an ephemeral port.
	AddrFile string
	// Workers is the per-tenant engine parallelism (the replicas of the
	// tenant's FilterPool); 0 selects GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps a buffered (Content-Length) ingest body; bodies
	// beyond it are refused with 413 before buffering. 0 = unlimited.
	// Streaming bodies are governed by the tenant's MaxDocBytes budget
	// instead, which stops reading the wire at the budget.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown: in-flight matches get this
	// long to reach a verdict before the listener is torn down hard.
	DrainTimeout time.Duration
	// DrainGrace is how long the listener keeps accepting (and answering
	// 503) after drain begins, so load balancers and health checks
	// observe the drain instead of connection refusals. It spends part
	// of the DrainTimeout budget.
	DrainGrace time.Duration
	// DefaultLimits are the per-document resource budgets applied to
	// tenants created without an explicit limits object.
	DefaultLimits streamxpath.Limits
	// MaxSubs is the default per-tenant standing-subscription cap; a
	// create past the cap answers the typed limit_exceeded error.
	// 0 = unlimited; tenants may override at creation time.
	MaxSubs int

	// IdleTimeout/ReadTimeout/WriteTimeout harden the HTTP server
	// against slow or stalled clients (slow-loris). Zero selects the
	// built-in defaults (120s / 5m / 5m); negative disables the timeout.
	IdleTimeout  time.Duration
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// Delivery knobs for the outbound webhook queue (internal/delivery).
	DeliveryQueue      int           // per-tenant queue depth
	DeliveryWorkers    int           // per-tenant worker goroutines
	DeliveryTimeout    time.Duration // default per-attempt HTTP timeout
	DeliveryAttempts   int           // default max attempts before dead-letter
	DeliveryBackoff    time.Duration // backoff envelope base
	DeliveryBackoffMax time.Duration // backoff envelope cap
	BreakerThreshold   int           // consecutive failures that open a breaker
	BreakerCooldown    time.Duration // open-state cooldown before a probe
	DeadLetterDepth    int           // per-tenant dead-letter ring capacity

	// onLimit holds the raw -on-limit string between RegisterFlags and
	// Finish (the policy can only be resolved after fs.Parse).
	onLimit *string
}

// envString/envInt/envInt64/envDuration resolve a flag default from the
// environment, falling back to def when unset or unparsable (a bad
// value is reported once on stderr rather than silently ignored).
func envString(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

func envInt(key string, def int) int {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpfilterd: ignoring %s=%q: %v\n", key, v, err)
		return def
	}
	return n
}

func envInt64(key string, def int64) int64 {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpfilterd: ignoring %s=%q: %v\n", key, v, err)
		return def
	}
	return n
}

func envDuration(key string, def time.Duration) time.Duration {
	v, ok := os.LookupEnv(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpfilterd: ignoring %s=%q: %v\n", key, v, err)
		return def
	}
	return d
}

// RegisterFlags binds the config to fs with XPFILTERD_*-derived
// defaults. Call fs.Parse afterwards; the Config fields are filled in
// place.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", envString("XPFILTERD_ADDR", "127.0.0.1:8080"),
		"listen address (env XPFILTERD_ADDR)")
	fs.StringVar(&c.AddrFile, "addr-file", envString("XPFILTERD_ADDR_FILE", ""),
		"write the bound address to this file after listen (env XPFILTERD_ADDR_FILE)")
	fs.IntVar(&c.Workers, "workers", envInt("XPFILTERD_WORKERS", 0),
		"per-tenant engine workers; 0 = GOMAXPROCS (env XPFILTERD_WORKERS)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", envInt64("XPFILTERD_MAX_BODY", 64<<20),
		"max buffered ingest body bytes; 0 = unlimited (env XPFILTERD_MAX_BODY)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", envDuration("XPFILTERD_DRAIN_TIMEOUT", 30*time.Second),
		"graceful shutdown budget for in-flight matches (env XPFILTERD_DRAIN_TIMEOUT)")
	fs.DurationVar(&c.DrainGrace, "drain-grace", envDuration("XPFILTERD_DRAIN_GRACE", 500*time.Millisecond),
		"how long new requests are answered 503 before the listener closes (env XPFILTERD_DRAIN_GRACE)")
	fs.IntVar(&c.DefaultLimits.MaxDepth, "max-depth", envInt("XPFILTERD_MAX_DEPTH", 0),
		"default tenant budget: max open-element depth per document (env XPFILTERD_MAX_DEPTH)")
	fs.IntVar(&c.DefaultLimits.MaxTokenBytes, "max-token", envInt("XPFILTERD_MAX_TOKEN", 0),
		"default tenant budget: max bytes of a single token (env XPFILTERD_MAX_TOKEN)")
	fs.IntVar(&c.DefaultLimits.MaxBufferedBytes, "max-buffer", envInt("XPFILTERD_MAX_BUFFER", 0),
		"default tenant budget: max buffered predicate text bytes (env XPFILTERD_MAX_BUFFER)")
	fs.IntVar(&c.DefaultLimits.MaxLiveTuples, "max-tuples", envInt("XPFILTERD_MAX_TUPLES", 0),
		"default tenant budget: max live frontier tuples/scopes/pendings (env XPFILTERD_MAX_TUPLES)")
	fs.Int64Var(&c.DefaultLimits.MaxDocBytes, "max-doc", envInt64("XPFILTERD_MAX_DOC", 0),
		"default tenant budget: max total document bytes (env XPFILTERD_MAX_DOC)")
	c.onLimit = fs.String("on-limit", envString("XPFILTERD_ON_LIMIT", "fail"),
		"default tenant policy on budget breach: fail or abstain (env XPFILTERD_ON_LIMIT)")
	fs.IntVar(&c.MaxSubs, "max-subs", envInt("XPFILTERD_MAX_SUBS", 0),
		"default per-tenant subscription cap; 0 = unlimited (env XPFILTERD_MAX_SUBS)")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", envDuration("XPFILTERD_IDLE_TIMEOUT", 0),
		"keep-alive idle timeout; 0 = 120s default, negative disables (env XPFILTERD_IDLE_TIMEOUT)")
	fs.DurationVar(&c.ReadTimeout, "read-timeout", envDuration("XPFILTERD_READ_TIMEOUT", 0),
		"whole-request read timeout; 0 = 5m default, negative disables (env XPFILTERD_READ_TIMEOUT)")
	fs.DurationVar(&c.WriteTimeout, "write-timeout", envDuration("XPFILTERD_WRITE_TIMEOUT", 0),
		"response write timeout; 0 = 5m default, negative disables (env XPFILTERD_WRITE_TIMEOUT)")
	fs.IntVar(&c.DeliveryQueue, "delivery-queue", envInt("XPFILTERD_DELIVERY_QUEUE", 0),
		"per-tenant bound on fresh deliveries waiting in the queue (past it they are shed, never blocking); queue memory follows the backlog, and retries re-enter past the bound without blocking; 0 = 1024 default (env XPFILTERD_DELIVERY_QUEUE)")
	fs.IntVar(&c.DeliveryWorkers, "delivery-workers", envInt("XPFILTERD_DELIVERY_WORKERS", 0),
		"per-tenant delivery worker goroutines; 0 = 4 default (env XPFILTERD_DELIVERY_WORKERS)")
	fs.DurationVar(&c.DeliveryTimeout, "delivery-timeout", envDuration("XPFILTERD_DELIVERY_TIMEOUT", 0),
		"default per-attempt webhook timeout; 0 = 5s default (env XPFILTERD_DELIVERY_TIMEOUT)")
	fs.IntVar(&c.DeliveryAttempts, "delivery-attempts", envInt("XPFILTERD_DELIVERY_ATTEMPTS", 0),
		"default max delivery attempts before dead-letter; 0 = 5 default (env XPFILTERD_DELIVERY_ATTEMPTS)")
	fs.DurationVar(&c.DeliveryBackoff, "delivery-backoff", envDuration("XPFILTERD_DELIVERY_BACKOFF", 0),
		"retry backoff envelope base; 0 = 100ms default (env XPFILTERD_DELIVERY_BACKOFF)")
	fs.DurationVar(&c.DeliveryBackoffMax, "delivery-backoff-max", envDuration("XPFILTERD_DELIVERY_BACKOFF_MAX", 0),
		"retry backoff envelope cap; 0 = 30s default (env XPFILTERD_DELIVERY_BACKOFF_MAX)")
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", envInt("XPFILTERD_BREAKER_THRESHOLD", 0),
		"consecutive failures that open an endpoint's circuit breaker; 0 = 5 default (env XPFILTERD_BREAKER_THRESHOLD)")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", envDuration("XPFILTERD_BREAKER_COOLDOWN", 0),
		"open-breaker cooldown before a half-open probe; 0 = 10s default (env XPFILTERD_BREAKER_COOLDOWN)")
	fs.IntVar(&c.DeadLetterDepth, "deadletters", envInt("XPFILTERD_DEADLETTERS", 0),
		"per-tenant dead-letter ring capacity; 0 = 256 default (env XPFILTERD_DEADLETTERS)")
}

// Finish validates the parsed flags and resolves derived fields.
func (c *Config) Finish() error {
	if c.onLimit != nil {
		switch *c.onLimit {
		case "", "fail":
			c.DefaultLimits.Policy = streamxpath.LimitFail
		case "abstain":
			c.DefaultLimits.Policy = streamxpath.LimitAbstain
		default:
			return fmt.Errorf("-on-limit must be fail or abstain, got %q", *c.onLimit)
		}
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("-max-body must be >= 0")
	}
	return nil
}
