package delivery

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Doer is the HTTP client seam: production uses *http.Client, unit
// tests inject a function.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// DoerFunc adapts a function to the Doer interface.
type DoerFunc func(*http.Request) (*http.Response, error)

// Do calls f.
func (f DoerFunc) Do(r *http.Request) (*http.Response, error) { return f(r) }

// Config carries the manager's knobs; zero fields select the defaults
// noted on each.
type Config struct {
	// QueueDepth bounds admission to each tenant's outbound queue
	// (default 1024): an Enqueue that finds QueueDepth records already
	// waiting sheds the record and counts it; it never blocks. The bound
	// is not preallocated: the queue's memory follows its backlog, growing
	// with the records waiting and released as they drain. A retry whose
	// backoff expires re-enters past the bound, without waiting and
	// without being shed.
	QueueDepth int
	// Workers is the number of delivery goroutines per tenant
	// (default 4), started by the tenant's first enqueue; an idle worker
	// waits on the queue.
	Workers int
	// Timeout is the default per-attempt HTTP timeout (default 5s),
	// overridable per subscription.
	Timeout time.Duration
	// MaxAttempts is the default attempt budget per record (default 5),
	// overridable per subscription.
	MaxAttempts int
	// BackoffBase/BackoffMax bound the exponential retry backoff
	// (defaults 100ms and 30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive failures open an endpoint's circuit
	// (default 5); BreakerCooldown is how long it stays open before a
	// half-open probe (default 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DeadLetterDepth bounds each tenant's dead-letter ring
	// (default 256); the oldest entry is evicted (and counted) when a
	// new one arrives at capacity.
	DeadLetterDepth int
	// Clock injects time (default the real clock).
	Clock Clock
	// Client injects the HTTP transport. The default is an http.Client on
	// a transport of the manager's own that keeps as many idle connections
	// per endpoint as a tenant has Workers: http.DefaultTransport keeps 2,
	// so 4 workers posting to one endpoint would redial on every sixth
	// delivery. Per-attempt timeouts come from request contexts, not the
	// client.
	Client Doer
	// Jitter injects the backoff jitter source, a func returning [0,1)
	// (default math/rand.Float64). Tests pin it to 1 for determinism.
	Jitter func() float64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.DeadLetterDepth <= 0 {
		c.DeadLetterDepth = 256
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	return c
}

// Webhook is a subscription's delivery target: where to POST and the
// per-attempt overrides (zero fields fall back to the manager
// defaults).
type Webhook struct {
	URL         string
	Timeout     time.Duration
	MaxAttempts int
}

// Record is one pending delivery: a payload bound for one
// subscription's webhook, with its attempt accounting.
type Record struct {
	Tenant      string
	SubID       string
	URL         string
	Timeout     time.Duration
	MaxAttempts int
	Payload     []byte
	// ContentType is the POST body's media type; empty selects
	// "application/json" (the matchEvent envelope). Extraction
	// subscriptions deliver the matched subtree itself as
	// "application/xml".
	ContentType string

	Attempts   int
	LastError  string
	EnqueuedAt time.Time
}

// DeadLetter is one exhausted delivery as exposed by the dead-letter
// API: every attempt failed, so the record left the retry loop with
// its full accounting.
type DeadLetter struct {
	Subscription string          `json:"subscription"`
	URL          string          `json:"url"`
	Attempts     int             `json:"attempts"`
	LastError    string          `json:"lastError"`
	EnqueuedAt   time.Time       `json:"enqueuedAt"`
	DeadAt       time.Time       `json:"deadAt"`
	Payload      json.RawMessage `json:"payload,omitempty"`
}

// BreakerInfo is one endpoint's circuit state in a stats snapshot.
type BreakerInfo struct {
	URL   string
	State BreakerState
}

// Stats is one tenant's delivery accounting snapshot. The counter
// invariant after a completed drain: Enqueued = Successes +
// DeadLetters + Abandoned (sheds never enter the queue).
type Stats struct {
	Enqueued    int64
	Attempts    int64
	Successes   int64
	Failures    int64
	Retries     int64
	Sheds       int64
	DeadLetters int64
	DeadDropped int64
	Abandoned   int64
	// Outstanding counts the records enqueued but not yet delivered,
	// dead-lettered, or abandoned: queued + parked on a retry timer + in
	// flight.
	Outstanding int64
	// Queued counts the records waiting for a worker, retries due again
	// included: what the queue holds, and what QueueDepth bounds for
	// fresh records.
	Queued int64
	// LatencySeconds/LatencyCount accumulate successful-attempt wall
	// time, the sum/count pair scrapers turn into a mean.
	LatencySeconds float64
	LatencyCount   int64
	Breakers       []BreakerInfo
}

// Manager owns every tenant's outbound delivery pump: a tenant enqueues
// through the pump Open gives it (non-blocking, safe for concurrent use),
// and Drain integrates with the server's graceful shutdown.
type Manager struct {
	cfg Config

	// transport is the default client's, nil when the caller injected one:
	// the manager opened its connections, so Drain closes the idle ones.
	transport *http.Transport

	mu       sync.Mutex
	pumps    map[*Pump]struct{} // every pump not yet dropped
	named    map[string]*Pump   // the newest pump opened under each name
	draining bool
}

// NewManager builds a manager from cfg (zero fields take defaults).
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg.withDefaults(), pumps: make(map[*Pump]struct{}), named: make(map[string]*Pump)}
	if m.cfg.Client == nil {
		m.transport = http.DefaultTransport.(*http.Transport).Clone()
		m.transport.MaxIdleConnsPerHost = m.cfg.Workers
		m.cfg.Client = &http.Client{Transport: m.transport}
	}
	return m
}

// Open gives a tenant a pump of its own: the handle its deliveries are
// enqueued and dropped through. A pump already open under the same name
// stays with its holder, so a tenant deleted and re-created under one name
// has two pumps until the old one is dropped, and dropping the old one
// leaves the new one alone; Stats and Snapshot report the newest. Open
// returns nil once the manager is draining (a nil pump refuses every
// record).
func (m *Manager) Open(tenant string) *Pump {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.openLocked(tenant)
}

func (m *Manager) openLocked(tenant string) *Pump {
	if m.draining {
		return nil
	}
	p := newPump(tenant, m)
	m.pumps[p] = struct{}{}
	m.named[tenant] = p
	return p
}

// Stats snapshots the named tenant's newest pump's counters (zero value
// for an unknown tenant).
func (m *Manager) Stats(tenant string) Stats {
	m.mu.Lock()
	p := m.named[tenant]
	m.mu.Unlock()
	return p.Stats()
}

// Snapshot returns every live tenant's stats keyed by tenant name.
func (m *Manager) Snapshot() map[string]Stats {
	m.mu.Lock()
	pumps := make([]*Pump, 0, len(m.named))
	for _, p := range m.named {
		pumps = append(pumps, p)
	}
	m.mu.Unlock()
	out := make(map[string]Stats, len(pumps))
	for _, p := range pumps {
		out[p.tenant] = p.Stats()
	}
	return out
}

// Drain integrates with graceful shutdown: it refuses new enqueues,
// lets the workers flush queued and due-retry deliveries until ctx
// expires, then abandons whatever remains (canceling in-flight
// attempts) and tears the workers down. It returns the number of
// records abandoned — the count the caller persists to the drain log.
// Safe to call once; later calls (and Close after Drain) are no-ops.
func (m *Manager) Drain(ctx context.Context) int64 {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return 0
	}
	m.draining = true
	pumps := make([]*Pump, 0, len(m.pumps))
	for p := range m.pumps {
		pumps = append(pumps, p)
	}
	m.mu.Unlock()
	for _, p := range pumps {
		p.mu.Lock()
		p.draining = true
		p.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		for _, p := range pumps {
			p.records.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		for _, p := range pumps {
			p.forceAbandon()
		}
		<-done
	}
	var abandoned int64
	for _, p := range pumps {
		p.teardown()
		abandoned += p.abandoned.Load()
	}
	if m.transport != nil {
		m.transport.CloseIdleConnections()
	}
	return abandoned
}

// Close abandons everything immediately — the ungraceful teardown for
// tests and error paths.
func (m *Manager) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Drain(ctx)
}

// Pump is one tenant's delivery engine: the queue of records waiting for
// a worker, the worker goroutines (started by the first enqueue), the
// per-endpoint breakers, the retry timers, and the dead-letter ring. A
// tenant holds its pump from Manager.Open to Drop and enqueues through
// it, so its deliveries never meet another tenant's of the same name.
// Every method is safe for concurrent use and on a nil pump.
type Pump struct {
	tenant string
	m      *Manager

	ctx    context.Context
	cancel context.CancelFunc

	workers sync.WaitGroup // worker goroutines
	records sync.WaitGroup // outstanding records (enqueue → final outcome)

	mu        sync.Mutex
	ready     sync.Cond // on mu: a record was queued, or the workers stop
	queue     fifo      // records waiting for a worker
	started   bool      // the workers are running
	draining  bool      // fresh records are refused
	aborting  bool      // every record is abandoned
	stopped   bool      // the workers exit
	breakers  map[string]*breaker
	parked    map[*Record]Timer // records waiting on a retry timer
	dead      []DeadLetter      // ring, oldest at deadStart
	deadStart int

	outstanding atomic.Int64
	enqueued    atomic.Int64
	attempts    atomic.Int64
	successes   atomic.Int64
	failures    atomic.Int64
	retries     atomic.Int64
	sheds       atomic.Int64
	deadLetters atomic.Int64
	deadDropped atomic.Int64
	abandoned   atomic.Int64
	latNanos    atomic.Int64
	latCount    atomic.Int64
}

func newPump(tenant string, m *Manager) *Pump {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pump{
		tenant:   tenant,
		m:        m,
		ctx:      ctx,
		cancel:   cancel,
		breakers: make(map[string]*breaker),
		parked:   make(map[*Record]Timer),
	}
	p.ready.L = &p.mu
	return p
}

// Enqueue queues one JSON delivery, applying the manager defaults to zero
// Webhook overrides. It never blocks: when QueueDepth records are already
// waiting the record is shed and counted, and a draining manager or a
// dropped pump refuses it — the match path degrades gracefully rather than
// backing up. It reports whether the record was admitted.
func (p *Pump) Enqueue(subID string, hook Webhook, payload []byte) bool {
	return p.EnqueueRaw(subID, hook, "", payload)
}

// EnqueueRaw is Enqueue with an explicit payload Content-Type (empty
// selects "application/json") — the entry point for extraction
// subscriptions, whose webhook body is the matched subtree's XML rather
// than the JSON match envelope.
func (p *Pump) EnqueueRaw(subID string, hook Webhook, contentType string, payload []byte) bool {
	if p == nil {
		return false
	}
	rec := &Record{
		Tenant:      p.tenant,
		SubID:       subID,
		URL:         hook.URL,
		Timeout:     hook.Timeout,
		MaxAttempts: hook.MaxAttempts,
		Payload:     payload,
		ContentType: contentType,
		EnqueuedAt:  p.m.cfg.Clock.Now(),
	}
	if rec.Timeout <= 0 {
		rec.Timeout = p.m.cfg.Timeout
	}
	if rec.MaxAttempts <= 0 {
		rec.MaxAttempts = p.m.cfg.MaxAttempts
	}
	return p.enqueue(rec)
}

// Drop abandons and tears down a deleted tenant's pump: parked retries
// and queued records are discarded (counted as abandoned), its in-flight
// attempts are canceled, and later enqueues are refused. Another pump
// opened under the same name is untouched.
func (p *Pump) Drop() {
	if p == nil {
		return
	}
	m := p.m
	m.mu.Lock()
	delete(m.pumps, p)
	if m.named[p.tenant] == p {
		delete(m.named, p.tenant)
	}
	m.mu.Unlock()
	p.forceAbandon()
	p.records.Wait()
	p.teardown()
}

// enqueue admits one fresh record, shedding (never blocking) when
// QueueDepth records are already waiting.
func (p *Pump) enqueue(rec *Record) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return false
	}
	if p.queue.n >= p.m.cfg.QueueDepth {
		p.sheds.Add(1)
		return false
	}
	if !p.started {
		p.started = true
		p.workers.Add(p.m.cfg.Workers)
		for range p.m.cfg.Workers {
			go p.run()
		}
	}
	p.records.Add(1)
	p.enqueued.Add(1)
	p.outstanding.Add(1)
	p.queue.push(rec)
	p.ready.Signal()
	return true
}

// run is one worker: it takes the oldest queued record and attempts it,
// until teardown stops the pump.
func (p *Pump) run() {
	defer p.workers.Done()
	p.mu.Lock()
	for {
		for p.queue.n == 0 && !p.stopped {
			p.ready.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		rec := p.queue.pop()
		p.mu.Unlock()
		p.attempt(rec)
		p.mu.Lock()
	}
}

// finalize retires a record from the outstanding set; every admitted
// record passes through here exactly once (delivered, dead-lettered,
// or abandoned).
func (p *Pump) finalize() {
	p.outstanding.Add(-1)
	p.records.Done()
}

// attempt runs one delivery try: the breaker gate first (an open
// circuit parks the record until the cooldown without consuming an
// attempt), then the POST, then success/retry/dead-letter routing.
func (p *Pump) attempt(rec *Record) {
	p.mu.Lock()
	if p.aborting {
		p.mu.Unlock()
		p.abandon(rec)
		return
	}
	br := p.breakerFor(rec.URL)
	now := p.m.cfg.Clock.Now()
	ok, retryAt := br.allow(now)
	p.mu.Unlock()
	if !ok {
		p.park(rec, retryAt.Sub(now))
		return
	}

	rec.Attempts++
	p.attempts.Add(1)
	start := p.m.cfg.Clock.Now()
	err := p.post(rec)
	elapsed := p.m.cfg.Clock.Now().Sub(start)

	p.mu.Lock()
	br = p.breakerFor(rec.URL)
	if err == nil {
		// A success during abort still counts as delivered.
		br.success()
		p.mu.Unlock()
		p.successes.Add(1)
		p.latNanos.Add(int64(elapsed))
		p.latCount.Add(1)
		p.finalize()
		return
	}
	br.failure(p.m.cfg.Clock.Now())
	aborting := p.aborting
	p.mu.Unlock()

	p.failures.Add(1)
	rec.LastError = err.Error()
	switch {
	case aborting:
		p.abandon(rec)
	case rec.Attempts >= rec.MaxAttempts:
		p.deadletter(rec)
	default:
		p.retries.Add(1)
		p.park(rec, Backoff(p.m.cfg.BackoffBase, p.m.cfg.BackoffMax, rec.Attempts, p.m.cfg.Jitter()))
	}
}

// post performs the HTTP attempt under the record's timeout and the
// pump's cancellation context. Any non-2xx status is a failure.
func (p *Pump) post(rec *Record) error {
	ctx, cancel := context.WithTimeout(p.ctx, rec.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rec.URL, bytes.NewReader(rec.Payload))
	if err != nil {
		return err
	}
	ct := rec.ContentType
	if ct == "" {
		ct = "application/json"
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("X-Xpfilterd-Tenant", rec.Tenant)
	req.Header.Set("X-Xpfilterd-Subscription", rec.SubID)
	req.Header.Set("X-Xpfilterd-Attempt", strconv.Itoa(rec.Attempts))
	resp, err := p.m.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	// Drain a little so keep-alive can reuse the connection, then close.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("endpoint answered status %d", resp.StatusCode)
	}
	return nil
}

// park schedules a record's next attempt d from now via the injected
// clock. A parked record re-enters the queue when the timer fires.
func (p *Pump) park(rec *Record, d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.mu.Lock()
	if p.aborting {
		p.mu.Unlock()
		p.abandon(rec)
		return
	}
	tm := p.m.cfg.Clock.AfterFunc(d, func() { p.requeue(rec) })
	p.parked[rec] = tm
	p.mu.Unlock()
}

// requeue is the timer callback: a parked record goes back to the tail of
// the queue — past QueueDepth, which bounds fresh records only, so a retry
// is never shed and the timer's goroutine never waits — or is abandoned
// when the pump is going away.
func (p *Pump) requeue(rec *Record) {
	p.mu.Lock()
	delete(p.parked, rec)
	if p.aborting {
		p.mu.Unlock()
		p.abandon(rec)
		return
	}
	p.queue.push(rec)
	p.ready.Signal()
	p.mu.Unlock()
}

// abandon retires a record without delivery — drain-window expiry or
// tenant teardown. The count is what the drain log persists.
func (p *Pump) abandon(rec *Record) {
	_ = rec
	p.abandoned.Add(1)
	p.finalize()
}

// deadletter retires an attempt-exhausted record into the bounded ring.
func (p *Pump) deadletter(rec *Record) {
	// The dead-letter API serializes Payload as raw JSON; a non-JSON
	// payload (an extraction subscription's XML body) is wrapped in a
	// JSON string so the envelope stays well-formed.
	payload := json.RawMessage(rec.Payload)
	if !json.Valid(rec.Payload) {
		if b, err := json.Marshal(string(rec.Payload)); err == nil {
			payload = b
		} else {
			payload = nil
		}
	}
	dl := DeadLetter{
		Subscription: rec.SubID,
		URL:          rec.URL,
		Attempts:     rec.Attempts,
		LastError:    rec.LastError,
		EnqueuedAt:   rec.EnqueuedAt,
		DeadAt:       p.m.cfg.Clock.Now(),
		Payload:      payload,
	}
	p.mu.Lock()
	if len(p.dead) < p.m.cfg.DeadLetterDepth {
		p.dead = append(p.dead, dl)
	} else {
		p.dead[p.deadStart] = dl
		p.deadStart = (p.deadStart + 1) % len(p.dead)
		p.deadDropped.Add(1)
	}
	p.mu.Unlock()
	p.deadLetters.Add(1)
	p.finalize()
}

// breakerFor returns the endpoint's breaker; caller holds p.mu.
func (p *Pump) breakerFor(url string) *breaker {
	b, ok := p.breakers[url]
	if !ok {
		b = &breaker{threshold: p.m.cfg.BreakerThreshold, cooldown: p.m.cfg.BreakerCooldown}
		p.breakers[url] = b
	}
	return b
}

// forceAbandon flips the pump into abort mode: later enqueues are
// refused, parked timers are stopped and their records abandoned, queued
// records are taken and abandoned, and in-flight attempts are canceled
// (their failure path sees aborting and abandons too).
func (p *Pump) forceAbandon() {
	p.mu.Lock()
	if p.aborting {
		p.mu.Unlock()
		return
	}
	p.aborting, p.draining = true, true
	parked := p.parked
	p.parked = make(map[*Record]Timer)
	queued := p.queue.takeAll()
	p.mu.Unlock()

	p.cancel()
	for rec, tm := range parked {
		if tm.Stop() {
			p.abandon(rec)
		}
		// A timer that already fired finalizes via requeue's aborting
		// check (or a worker's attempt path).
	}
	for _, rec := range queued {
		p.abandon(rec)
	}
}

// teardown stops the workers after the record population has fully
// drained (records.Wait has returned), so the queue is empty. Idempotent.
func (p *Pump) teardown() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.ready.Broadcast()
	p.mu.Unlock()
	p.workers.Wait()
	p.cancel()
}

// Stats snapshots the tenant's counters and breaker states (zero value
// for a nil pump).
func (p *Pump) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	s := Stats{
		Enqueued:       p.enqueued.Load(),
		Attempts:       p.attempts.Load(),
		Successes:      p.successes.Load(),
		Failures:       p.failures.Load(),
		Retries:        p.retries.Load(),
		Sheds:          p.sheds.Load(),
		DeadLetters:    p.deadLetters.Load(),
		DeadDropped:    p.deadDropped.Load(),
		Abandoned:      p.abandoned.Load(),
		Outstanding:    p.outstanding.Load(),
		LatencySeconds: float64(p.latNanos.Load()) / 1e9,
		LatencyCount:   p.latCount.Load(),
	}
	p.mu.Lock()
	s.Queued = int64(p.queue.n)
	s.Breakers = make([]BreakerInfo, 0, len(p.breakers))
	for url, b := range p.breakers {
		s.Breakers = append(s.Breakers, BreakerInfo{URL: url, State: b.state})
	}
	p.mu.Unlock()
	sort.Slice(s.Breakers, func(i, j int) bool { return s.Breakers[i].URL < s.Breakers[j].URL })
	return s
}

// DeadLetters copies the tenant's dead-letter ring oldest first, plus how
// many older entries the bounded ring has evicted (nothing for a nil
// pump).
func (p *Pump) DeadLetters() ([]DeadLetter, int64) {
	if p == nil {
		return nil, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DeadLetter, 0, len(p.dead))
	for i := 0; i < len(p.dead); i++ {
		out = append(out, p.dead[(p.deadStart+i)%len(p.dead)])
	}
	return out, p.deadDropped.Load()
}
