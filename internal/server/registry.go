package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamxpath"
	"streamxpath/internal/delivery"
)

// Registry errors, mapped to HTTP statuses by the handlers.
var (
	ErrTenantExists   = errors.New("tenant already exists")
	ErrTenantNotFound = errors.New("tenant not found")
	ErrSubNotFound    = errors.New("subscription not found")
	ErrServerDraining = errors.New("server draining")
	// ErrSubLimit reports a tenant at its max-subscriptions cap; the
	// handler answers the typed "limit_exceeded" JSON error.
	ErrSubLimit      = errors.New("subscription limit reached")
	errTenantDeleted = errors.New("tenant deleted")
	errRestoreFailed = errors.New("subscription replace failed and the previous query could not be restored")
)

// TenantConfig is the per-tenant engine configuration fixed at creation
// time: the per-document resource budgets (zero value = the server
// defaults), the engine worker count, and the standing-subscription cap
// (0 = the server default; negative = explicitly unlimited).
type TenantConfig struct {
	Limits  streamxpath.Limits
	Workers int
	MaxSubs int
}

// MatchResult is one document's verdict set plus its accounting — what
// the ingest endpoint serializes.
type MatchResult struct {
	// Matched holds the matched subscription ids in insertion order: this
	// call's own slice (the pool appends the ids to a fresh one while it
	// holds the engine that ran the document).
	Matched []string
	// Subscriptions is the tenant's standing subscription count at match
	// time.
	Subscriptions int
	// Abstained reports graceful degradation under LimitAbstain.
	Abstained bool
	// Stats is the input accounting: bytes read/consumed, chunk count,
	// early exit and its direction. Buffered matches fill the byte
	// counts from the body length (the whole document is consumed).
	Stats streamxpath.ReaderStats
	// Mem is the live-memory accounting of this document.
	Mem streamxpath.MemStats
	// SkimmedBytes is how much of a buffered document was validated
	// without being dispatched to the matcher, every verdict being final
	// already (streamxpath.MatchResult.SkimmedBytes).
	SkimmedBytes int64
	// Fragments maps the ids of matched extraction-enabled
	// subscriptions to their extracted content — the matched element's
	// subtree as XML, or the decoded value for attribute-selecting
	// queries. Private copies: safe to hold past the request and to
	// hand to the async delivery queue. Nil when no extraction
	// subscription matched.
	Fragments map[string]string
}

// Tenant is one namespace: a FilterPool carrying the tenant's standing
// subscriptions, one record per subscription backing GET and delivery, and
// the tenant's metrics. mu is a reader/writer lock: document matching takes
// the read side — the Match*Result API returns each call's verdicts,
// fragments and accounting together, so concurrent ingest within one
// tenant is safe and correctly attributed — while subscription CRUD and
// teardown (which patch or close the shared indexes) take the write
// side and therefore still drain in-flight matches. The lock is per
// tenant: one tenant's traffic never blocks another's.
type Tenant struct {
	Name string

	mu      sync.RWMutex
	set     *streamxpath.FilterPool
	subs    map[string]subRecord
	limits  streamxpath.Limits
	maxSubs int
	closed  bool

	// docSeq sequences delivered documents per tenant; atomic because
	// concurrent matches deliver under the read lock.
	docSeq atomic.Int64

	// deliveries is the tenant's own delivery pump (nil when delivery is
	// disabled): a tenant re-created under this one's name gets another,
	// so deleting this one abandons only this one's records.
	deliveries *delivery.Pump
	metrics    *tenantMetrics
}

// subRecord is what a tenant keeps of one standing subscription beside its
// entry in the pool: the query source, whether it extracts, and its webhook
// target, nil for none.
type subRecord struct {
	query   string
	extract bool
	hook    *subHook
}

// SubInfo is one subscription as listed by the API.
type SubInfo struct {
	ID      string       `json:"id"`
	Query   string       `json:"query"`
	Extract bool         `json:"extract,omitempty"`
	Webhook *WebhookInfo `json:"webhook,omitempty"`
}

// WebhookInfo is the wire form of a subscription's delivery target.
type WebhookInfo struct {
	URL         string `json:"url"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
}

// hook converts the wire form to the delivery subsystem's overrides.
func (w *WebhookInfo) hook() delivery.Webhook {
	return delivery.Webhook{
		URL:         w.URL,
		Timeout:     time.Duration(w.TimeoutMS) * time.Millisecond,
		MaxAttempts: w.MaxAttempts,
	}
}

// webhookInfo converts a stored hook back to the wire form.
func webhookInfo(h delivery.Webhook) *WebhookInfo {
	return &WebhookInfo{
		URL:         h.URL,
		TimeoutMS:   int64(h.Timeout / time.Millisecond),
		MaxAttempts: h.MaxAttempts,
	}
}

// matchEvent is the webhook POST body: one matched subscription on one
// ingested document, sequenced per tenant so receivers can spot gaps.
type matchEvent struct {
	Event        string `json:"event"`
	Tenant       string `json:"tenant"`
	Subscription string `json:"subscription"`
	Query        string `json:"query"`
	Seq          int64  `json:"seq"`
}

// subHook is a subscription's webhook target with the head of its match
// events: everything before the seq value, encoded once, when the hook is
// set, by json.Marshal itself, so that a delivery appends only its seq.
type subHook struct {
	delivery.Webhook
	head []byte
}

// matchEventHead encodes the match event of subscription id on query up to
// its seq value. Seq is the struct's last field: json.Marshal's encoding of
// seq 0 ends in `0}`, and what precedes it is the same for every seq.
func matchEventHead(tenant, id, query string) []byte {
	b, err := json.Marshal(matchEvent{Event: "match", Tenant: tenant, Subscription: id, Query: query})
	if err != nil {
		return nil
	}
	return b[:len(b)-len("0}")]
}

// matchEventPayload completes a match event's head with seq.
func matchEventPayload(head []byte, seq int64) []byte {
	b := make([]byte, 0, len(head)+len("-9223372036854775808}"))
	b = append(b, head...)
	b = strconv.AppendInt(b, seq, 10)
	return append(b, '}')
}

// Limits returns the tenant's budgets (fixed at creation).
func (t *Tenant) Limits() streamxpath.Limits {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.limits
}

// Len returns the standing subscription count.
func (t *Tenant) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return 0
	}
	return t.set.Len()
}

// PutSubscription registers (or replaces) a subscription, reporting
// whether it was newly created. The query is validated through the
// library's Compile path before any engine mutation; on a replace the
// old query is removed first and restored if the new one is rejected
// (keeping its previous extraction flag), so a failed PUT never loses
// the standing subscription. extract enables fragment extraction: the
// matched element's subtree is captured and carried in match responses
// and webhook deliveries. hook, when non-nil, attaches a webhook
// delivery target; nil clears any existing one. Creating past the
// tenant's max-subscriptions cap answers ErrSubLimit (replaces always
// pass — they don't grow the set).
func (t *Tenant) PutSubscription(id, query string, extract bool, hook *delivery.Webhook) (created bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false, errTenantDeleted
	}
	old, exists := t.subs[id]
	if !exists && t.maxSubs > 0 && len(t.subs) >= t.maxSubs {
		return false, ErrSubLimit
	}
	rec := subRecord{query: query, extract: extract, hook: t.hookFor(id, query, hook)}
	if exists && old.query == query && old.extract == extract {
		t.subs[id] = rec
		return false, nil
	}
	if exists {
		t.set.Remove(id)
	}
	if err := t.addLocked(id, query, extract); err != nil {
		if exists {
			if rerr := t.addLocked(id, old.query, old.extract); rerr != nil {
				delete(t.subs, id)
				return false, fmt.Errorf("%w: %v", errRestoreFailed, err)
			}
		}
		return false, err
	}
	t.subs[id] = rec
	return !exists, nil
}

// addLocked registers one query on the engine, with or without fragment
// extraction. Caller holds t.mu.
func (t *Tenant) addLocked(id, query string, extract bool) error {
	if extract {
		return t.set.AddExtract(id, query)
	}
	return t.set.Add(id, query)
}

// hookFor returns subscription id's webhook target on query, nil for no
// hook.
func (t *Tenant) hookFor(id, query string, hook *delivery.Webhook) *subHook {
	if hook == nil {
		return nil
	}
	return &subHook{Webhook: *hook, head: matchEventHead(t.Name, id, query)}
}

// DeleteSubscription removes a subscription, reporting whether it
// existed.
func (t *Tenant) DeleteSubscription(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if _, ok := t.subs[id]; !ok {
		return false
	}
	t.set.Remove(id)
	delete(t.subs, id)
	return true
}

// subInfoLocked assembles the API view of one subscription.
func (t *Tenant) subInfoLocked(id string) SubInfo {
	rec := t.subs[id]
	info := SubInfo{ID: id, Query: rec.query, Extract: rec.extract}
	if rec.hook != nil {
		info.Webhook = webhookInfo(rec.hook.Webhook)
	}
	return info
}

// Subscription returns one subscription's query source.
func (t *Tenant) Subscription(id string) (SubInfo, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.subs[id]; !ok {
		return SubInfo{}, false
	}
	return t.subInfoLocked(id), true
}

// Subscriptions lists the tenant's subscriptions in insertion order.
func (t *Tenant) Subscriptions() []SubInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return nil
	}
	ids := t.set.IDs()
	out := make([]SubInfo, len(ids))
	for i, id := range ids {
		out[i] = t.subInfoLocked(id)
	}
	return out
}

// MaxSubs returns the tenant's subscription cap (0 = unlimited).
func (t *Tenant) MaxSubs() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxSubs
}

// MatchBuffered matches one in-memory document — the fast path for
// requests that arrived with a Content-Length. The document is validated
// to its end but dispatched only until every verdict is final
// (MatchResult.SkimmedBytes is the rest). It holds only the read
// side of the tenant lock, so any number of documents can be ingested
// into one tenant concurrently; the Match*Result API returns this
// call's verdicts, fragments and accounting together, so each request's
// response (and its webhook fan-out) is attributed to its own document.
func (t *Tenant) MatchBuffered(doc []byte) (MatchResult, error) {
	return t.match(doc, nil)
}

// MatchStream matches a document streamed from r through the chunked
// reader path: early exit stops consuming the wire, and the tenant's
// MaxDocBytes budget bounds how much of an unbounded body is ever read.
// Like MatchBuffered it holds only the read side of the tenant lock.
func (t *Tenant) MatchStream(r io.Reader) (MatchResult, error) {
	return t.match(nil, r)
}

// match is the one ingest body: under the read lock it matches the
// document — read from r, or doc when r is nil, which counts as read whole
// in one chunk — records it in the metrics and, when it did not fail,
// fans its matches out to the delivery queue.
func (t *Tenant) match(doc []byte, r io.Reader) (MatchResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return MatchResult{}, errTenantDeleted
	}
	var mr streamxpath.MatchResult
	var err error
	if r != nil {
		mr, err = t.set.MatchReaderResult(r)
	} else {
		mr, err = t.set.MatchBytesResult(doc)
		n := int64(len(doc))
		mr.ReaderStats = streamxpath.ReaderStats{BytesRead: n, BytesConsumed: n, Chunks: 1, Abstained: mr.Abstained}
	}
	res := t.finishRLocked(mr)
	t.metrics.recordDoc(res, err)
	if err != nil {
		return MatchResult{}, err
	}
	t.deliverRLocked(res)
	return res, nil
}

// deliverRLocked fans one matched document out to the delivery queue:
// one record per matched subscription that carries a webhook. A
// subscription with an extracted fragment receives the matched subtree
// itself as the POST body (Content-Type application/xml; tenant,
// subscription and attempt ride in the X-Xpfilterd-* headers); the rest
// receive the JSON matchEvent envelope, its head encoded when the hook was
// set and only the seq appended here. Enqueue never blocks — overflow
// sheds (counted by the manager), so a slow receiver cannot back up the
// match path. Caller holds t.mu.RLock; the subscription records are
// mutated only under the write lock.
func (t *Tenant) deliverRLocked(res MatchResult) {
	if t.deliveries == nil || len(res.Matched) == 0 {
		return
	}
	seq := t.docSeq.Add(1)
	for _, id := range res.Matched {
		hook := t.subs[id].hook
		if hook == nil {
			continue
		}
		if frag, ok := res.Fragments[id]; ok {
			t.deliveries.EnqueueRaw(id, hook.Webhook, "application/xml", []byte(frag))
			continue
		}
		if hook.head == nil {
			continue
		}
		t.deliveries.Enqueue(id, hook.Webhook, matchEventPayload(hook.head, seq))
	}
}

// finishRLocked folds one Match*Result outcome into the server's
// MatchResult: the id slice (the call's own, non-nil), private copies of
// the fragment bytes (the engine's fragments may alias the request body),
// this call's abstain flag and accounting. Caller holds t.mu.RLock.
func (t *Tenant) finishRLocked(mr streamxpath.MatchResult) MatchResult {
	res := MatchResult{
		Matched:       mr.MatchedIDs,
		Subscriptions: t.set.Len(),
		Abstained:     mr.Abstained,
		Stats:         mr.ReaderStats,
		Mem:           mr.MemStats,
		SkimmedBytes:  mr.SkimmedBytes,
	}
	if len(mr.Fragments) > 0 {
		res.Fragments = make(map[string]string, len(mr.Fragments))
		for _, f := range mr.Fragments {
			res.Fragments[f.ID] = string(f.Data)
		}
	}
	return res
}

// close marks the tenant deleted, so that requests still holding it are
// refused. Called with no new references reachable from the registry;
// waits for the in-flight matches (if any) via mu. The pool owns no
// goroutines, so there is nothing else to stop.
func (t *Tenant) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
}

// Registry maps tenant names to their engines. The registry lock only
// guards the map — every per-tenant operation runs under the tenant's
// own lock, so tenants are fully independent.
type Registry struct {
	defaults TenantConfig

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool

	delivery *delivery.Manager
	metrics  *Metrics
}

// NewRegistry returns an empty registry whose implicitly-created
// tenants use the given defaults. mgr, when non-nil, is the outbound
// webhook delivery manager tenants fan matched documents into; the
// registry owns its shutdown (Close tears it down).
func NewRegistry(defaults TenantConfig, m *Metrics, mgr *delivery.Manager) *Registry {
	if m == nil {
		m = NewMetrics()
	}
	return &Registry{
		defaults: defaults,
		tenants:  make(map[string]*Tenant),
		delivery: mgr,
		metrics:  m,
	}
}

// Metrics returns the registry's metrics collector.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Delivery returns the webhook delivery manager (nil when delivery is
// disabled).
func (r *Registry) Delivery() *delivery.Manager { return r.delivery }

// maxWorkers is the per-tenant engine count the server resolves by default
// (-workers, GOMAXPROCS when unset): the most a tenant may ask for.
func (r *Registry) maxWorkers() int {
	if r.defaults.Workers > 0 {
		return r.defaults.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// newTenant builds a tenant from cfg, filling unset fields from the
// registry defaults.
func (r *Registry) newTenant(name string, cfg TenantConfig) *Tenant {
	lim := cfg.Limits
	if lim == (streamxpath.Limits{}) {
		lim = r.defaults.Limits
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = r.defaults.Workers
	}
	maxSubs := cfg.MaxSubs
	if maxSubs == 0 {
		maxSubs = r.defaults.MaxSubs
	}
	if maxSubs < 0 {
		maxSubs = 0 // explicit "unlimited" override
	}
	set := streamxpath.NewFilterPool(workers)
	set.SetLimits(lim)
	t := &Tenant{
		Name:    name,
		set:     set,
		subs:    make(map[string]subRecord),
		limits:  lim,
		maxSubs: maxSubs,
		metrics: r.metrics.newTenant(name),
	}
	if r.delivery != nil {
		t.deliveries = r.delivery.Open(name)
	}
	return t
}

// Create registers a new tenant. ErrTenantExists if the name is taken.
func (r *Registry) Create(name string, cfg TenantConfig) (*Tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrServerDraining
	}
	if _, ok := r.tenants[name]; ok {
		return nil, ErrTenantExists
	}
	t := r.newTenant(name, cfg)
	r.tenants[name] = t
	return t, nil
}

// Get returns a tenant, or ErrTenantNotFound.
func (r *Registry) Get(name string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	if !ok {
		return nil, ErrTenantNotFound
	}
	return t, nil
}

// GetOrCreate returns the named tenant, creating it with the default
// config when absent — the implicit-creation path of subscription PUT.
func (r *Registry) GetOrCreate(name string) (*Tenant, error) {
	r.mu.RLock()
	t, ok := r.tenants[name]
	r.mu.RUnlock()
	if ok {
		return t, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrServerDraining
	}
	if t, ok := r.tenants[name]; ok {
		return t, nil
	}
	t = r.newTenant(name, TenantConfig{})
	r.tenants[name] = t
	return t, nil
}

// Delete removes a tenant and closes its engine (waiting for an
// in-flight match), reporting whether it existed. Its delivery pump and
// metric series go with it, by identity: a tenant created under the same
// name while the close waits keeps its own.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	t, ok := r.tenants[name]
	if ok {
		delete(r.tenants, name)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	t.close()
	t.deliveries.Drop()
	r.metrics.dropTenant(name, t.metrics)
	return true
}

// Names lists the tenants, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// snapshot returns the live tenants for metrics exposition.
func (r *Registry) snapshot() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close refuses new tenants and closes every engine — the last step of
// graceful drain, after the HTTP server has stopped accepting work.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	for _, t := range tenants {
		t.close()
	}
	if r.delivery != nil {
		// Idempotent: the server's graceful path has already drained the
		// manager by the time it closes the registry; this is the
		// backstop for direct registry users (tests, abrupt shutdown).
		r.delivery.Close()
	}
}
