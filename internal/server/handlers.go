package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"streamxpath"
	"streamxpath/internal/delivery"
)

// maxSubscriptionBytes caps a subscription PUT body (an XPath
// expression; 64KiB is generous) and a tenant-config body.
const maxSubscriptionBytes = 64 << 10

// apiError is the typed JSON error envelope every non-2xx response
// carries: {"error":{"code":"invalid_query","message":"..."}}.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Responses are an API, not HTML: leave extracted XML fragments
	// readable instead of <-escaping every angle bracket.
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, e)
}

// validName reports whether a tenant or subscription id is well-formed:
// 1-128 bytes of [A-Za-z0-9._-]. The restriction keeps names safe to
// embed verbatim in URLs, logs, and Prometheus label values.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// pathNames extracts and validates the {tenant} (and optionally {id})
// wildcards, writing the error response itself on failure.
func pathNames(w http.ResponseWriter, r *http.Request, wantID bool) (tenant, id string, ok bool) {
	tenant = r.PathValue("tenant")
	if !validName(tenant) {
		writeError(w, http.StatusBadRequest, "invalid_tenant",
			"tenant name must be 1-128 chars of [A-Za-z0-9._-], got %q", tenant)
		return "", "", false
	}
	if wantID {
		id = r.PathValue("id")
		if !validName(id) {
			writeError(w, http.StatusBadRequest, "invalid_subscription_id",
				"subscription id must be 1-128 chars of [A-Za-z0-9._-], got %q", id)
			return "", "", false
		}
	}
	return tenant, id, true
}

// limitsJSON is the wire form of streamxpath.Limits in tenant configs.
type limitsJSON struct {
	MaxDepth         int    `json:"maxDepth,omitempty"`
	MaxTokenBytes    int    `json:"maxTokenBytes,omitempty"`
	MaxBufferedBytes int    `json:"maxBufferedBytes,omitempty"`
	MaxLiveTuples    int    `json:"maxLiveTuples,omitempty"`
	MaxDocBytes      int64  `json:"maxDocBytes,omitempty"`
	Policy           string `json:"policy,omitempty"`
}

func (l limitsJSON) limits() (streamxpath.Limits, error) {
	out := streamxpath.Limits{
		MaxDepth:         l.MaxDepth,
		MaxTokenBytes:    l.MaxTokenBytes,
		MaxBufferedBytes: l.MaxBufferedBytes,
		MaxLiveTuples:    l.MaxLiveTuples,
		MaxDocBytes:      l.MaxDocBytes,
	}
	switch l.Policy {
	case "", "fail":
		out.Policy = streamxpath.LimitFail
	case "abstain":
		out.Policy = streamxpath.LimitAbstain
	default:
		return out, fmt.Errorf("policy must be \"fail\" or \"abstain\", got %q", l.Policy)
	}
	return out, nil
}

func limitsWire(l streamxpath.Limits) limitsJSON {
	out := limitsJSON{
		MaxDepth:         l.MaxDepth,
		MaxTokenBytes:    l.MaxTokenBytes,
		MaxBufferedBytes: l.MaxBufferedBytes,
		MaxLiveTuples:    l.MaxLiveTuples,
		MaxDocBytes:      l.MaxDocBytes,
		Policy:           "fail",
	}
	if l.Policy == streamxpath.LimitAbstain {
		out.Policy = "abstain"
	}
	return out
}

// tenantInfo is the GET /v1/tenants/{tenant} response body.
type tenantInfo struct {
	Tenant           string     `json:"tenant"`
	Subscriptions    int        `json:"subscriptions"`
	Limits           limitsJSON `json:"limits"`
	MaxSubscriptions int        `json:"maxSubscriptions,omitempty"`
}

// handlePutTenant creates a tenant explicitly, with an optional JSON
// config body ({"limits": {...}, "workers": N}); an empty body selects
// the server defaults. 201 on creation, 409 if the name is taken, 400 if
// N exceeds the server's own per-tenant engine count.
func (s *Server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	name, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	var cfg TenantConfig
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubscriptionBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "reading tenant config: %v", err)
		return
	}
	if len(body) > maxSubscriptionBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"tenant config exceeds %d bytes", maxSubscriptionBytes)
		return
	}
	if len(body) > 0 {
		var wire struct {
			Limits           limitsJSON `json:"limits"`
			Workers          int        `json:"workers"`
			MaxSubscriptions int        `json:"maxSubscriptions"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			writeError(w, http.StatusBadRequest, "invalid_config", "parsing tenant config: %v", err)
			return
		}
		lim, err := wire.Limits.limits()
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_config", "%v", err)
			return
		}
		// A tenant's ring holds one engine per worker: a request may ask for
		// fewer than the server would give it, never more.
		if most := s.reg.maxWorkers(); wire.Workers > most {
			writeError(w, http.StatusBadRequest, "invalid_config", "workers %d exceeds this server's %d", wire.Workers, most)
			return
		}
		cfg = TenantConfig{Limits: lim, Workers: wire.Workers, MaxSubs: wire.MaxSubscriptions}
	}
	t, err := s.reg.Create(name, cfg)
	switch {
	case errors.Is(err, ErrTenantExists):
		writeError(w, http.StatusConflict, "tenant_exists", "tenant %q already exists", name)
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	writeJSON(w, http.StatusCreated, tenantInfo{
		Tenant: name, Subscriptions: 0,
		Limits:           limitsWire(t.Limits()),
		MaxSubscriptions: t.MaxSubs(),
	})
}

// handleGetTenant reports one tenant's subscription count and budgets.
func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	name, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	t, err := s.reg.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", name)
		return
	}
	writeJSON(w, http.StatusOK, tenantInfo{
		Tenant: name, Subscriptions: t.Len(),
		Limits:           limitsWire(t.Limits()),
		MaxSubscriptions: t.MaxSubs(),
	})
}

// handleListTenants lists tenant names, sorted.
func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.reg.Names()})
}

// handleDeleteTenant removes a tenant and shuts its engine down,
// waiting for an in-flight match to reach its verdict.
func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	if !s.reg.Delete(name) {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "deleted": true})
}

// subscriptionBody parses a subscription PUT body. Two forms are
// accepted: a raw XPath expression (the original wire format — any body
// whose first non-space byte is not '{'), and a JSON envelope
// {"query": "...", "extract": true, "webhook": {"url": ...,
// "timeout_ms": ..., "max_attempts": ...}} that can enable fragment
// extraction and attach a delivery target. A JSON envelope without a
// webhook clears any existing one, and one without "extract" disables
// extraction (PUT is a full replace).
func subscriptionBody(body []byte) (query string, extract bool, hook *delivery.Webhook, err error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return string(body), false, nil, nil
	}
	var wire struct {
		Query   string       `json:"query"`
		Extract bool         `json:"extract"`
		Webhook *WebhookInfo `json:"webhook"`
	}
	if err := json.Unmarshal(trimmed, &wire); err != nil {
		return "", false, nil, fmt.Errorf("parsing subscription body: %v", err)
	}
	if wire.Query == "" {
		return "", false, nil, errors.New(`subscription envelope is missing "query"`)
	}
	if wire.Webhook != nil {
		if err := validateWebhook(wire.Webhook); err != nil {
			return "", false, nil, err
		}
		h := wire.Webhook.hook()
		hook = &h
	}
	return wire.Query, wire.Extract, hook, nil
}

// validateWebhook rejects malformed delivery targets before they reach
// the queue: the URL must be absolute http(s) with a host, and the
// overrides non-negative.
func validateWebhook(w *WebhookInfo) error {
	u, err := url.Parse(w.URL)
	if err != nil {
		return fmt.Errorf("webhook url: %v", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("webhook url must be absolute http(s), got %q", w.URL)
	}
	if w.TimeoutMS < 0 {
		return errors.New("webhook timeout_ms must be >= 0")
	}
	if w.MaxAttempts < 0 {
		return errors.New("webhook max_attempts must be >= 0")
	}
	return nil
}

// handlePutSubscription registers or replaces one subscription. The
// body is either a raw XPath expression or a JSON envelope carrying the
// query plus an optional webhook delivery target (see
// subscriptionBody). The tenant is created implicitly (with the
// server-default budgets) when it does not exist yet. 201 on create,
// 200 on replace, 400 with code "invalid_query" when the expression is
// rejected by the compile path, 429 with code "limit_exceeded" when the
// tenant is at its subscription cap.
func (s *Server) handlePutSubscription(w http.ResponseWriter, r *http.Request) {
	tenant, id, ok := pathNames(w, r, true)
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubscriptionBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_body", "reading query: %v", err)
		return
	}
	if len(body) > maxSubscriptionBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"query exceeds %d bytes", maxSubscriptionBytes)
		return
	}
	query, extract, hook, err := subscriptionBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_subscription", "%v", err)
		return
	}
	if query == "" {
		writeError(w, http.StatusBadRequest, "invalid_query", "empty query body")
		return
	}
	t, err := s.reg.GetOrCreate(tenant)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	created, err := t.PutSubscription(id, query, extract, hook)
	if err != nil {
		switch {
		case errors.Is(err, errTenantDeleted):
			writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q was deleted", tenant)
		case errors.Is(err, ErrSubLimit):
			writeError(w, http.StatusTooManyRequests, "limit_exceeded",
				"tenant %q is at its %d-subscription cap", tenant, t.MaxSubs())
		default:
			writeError(w, http.StatusBadRequest, "invalid_query", "%v", err)
		}
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	info := SubInfo{ID: id, Query: query, Extract: extract}
	if hook != nil {
		info.Webhook = webhookInfo(*hook)
	}
	writeJSON(w, status, info)
}

// handleDeadLetters reports a tenant's dead-letter ring: deliveries
// that exhausted their attempt budget, newest last, plus how many older
// ones the bounded ring has evicted.
func (s *Server) handleDeadLetters(w http.ResponseWriter, r *http.Request) {
	tenant, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	t, err := s.reg.Get(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", tenant)
		return
	}
	letters, dropped := t.deliveries.DeadLetters()
	if letters == nil {
		letters = []delivery.DeadLetter{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":      tenant,
		"deadletters": letters,
		"dropped":     dropped,
	})
}

// handleDeleteSubscription removes one subscription.
func (s *Server) handleDeleteSubscription(w http.ResponseWriter, r *http.Request) {
	tenant, id, ok := pathNames(w, r, true)
	if !ok {
		return
	}
	t, err := s.reg.Get(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", tenant)
		return
	}
	if !t.DeleteSubscription(id) {
		writeError(w, http.StatusNotFound, "subscription_not_found",
			"subscription %q not found in tenant %q", id, tenant)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// handleGetSubscription returns one subscription's query source.
func (s *Server) handleGetSubscription(w http.ResponseWriter, r *http.Request) {
	tenant, id, ok := pathNames(w, r, true)
	if !ok {
		return
	}
	t, err := s.reg.Get(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", tenant)
		return
	}
	sub, ok2 := t.Subscription(id)
	if !ok2 {
		writeError(w, http.StatusNotFound, "subscription_not_found",
			"subscription %q not found in tenant %q", id, tenant)
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

// handleListSubscriptions lists a tenant's subscriptions in insertion
// order.
func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	tenant, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	t, err := s.reg.Get(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", tenant)
		return
	}
	subs := t.Subscriptions()
	if subs == nil {
		subs = []SubInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "subscriptions": subs})
}

// matchResponse is the ingest verdict envelope. Fragments carries the
// extracted content of matched extraction-enabled subscriptions, keyed
// by subscription id; it is omitted when no extraction subscription
// matched.
type matchResponse struct {
	Tenant        string            `json:"tenant"`
	Matched       []string          `json:"matched"`
	Subscriptions int               `json:"subscriptions"`
	Abstained     bool              `json:"abstained"`
	Fragments     map[string]string `json:"fragments,omitempty"`
	Stats         struct {
		BytesRead       int64 `json:"bytesRead"`
		BytesConsumed   int64 `json:"bytesConsumed"`
		Chunks          int   `json:"chunks"`
		EarlyExit       bool  `json:"earlyExit"`
		DecidedNegative bool  `json:"decidedNegative"`
		Abstained       bool  `json:"abstained"`
	} `json:"stats"`
}

// bodyPool holds the buffers Content-Length bodies are read into, and
// maxPooledBody is the largest body that gets one.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// readBody reads a request body of declared length. A body of ordinary size
// goes into a pooled buffer sized by that length — io.ReadAll would grow a
// fresh one from 512 bytes for every request; release hands the buffer back,
// after which the document must not be read. A larger body is grown as it
// arrives, so that a length merely declared allocates nothing.
func readBody(r *http.Request) (doc []byte, release func(), err error) {
	if r.ContentLength > maxPooledBody {
		doc, err = io.ReadAll(r.Body)
		return doc, func() {}, err
	}
	buf := bodyPool.Get().(*[]byte)
	if int64(cap(*buf)) < r.ContentLength {
		*buf = make([]byte, r.ContentLength)
	}
	doc = (*buf)[:r.ContentLength]
	_, err = io.ReadFull(r.Body, doc)
	return doc, func() { bodyPool.Put(buf) }, err
}

// handleMatch ingests one document and answers with the verdict set.
// Bodies that arrived with a Content-Length are buffered and matched on
// the MatchBytes fast path (subject to the server's -max-body cap);
// chunked/streaming bodies run through MatchReader, so a mid-stream
// early exit stops reading the wire — the engine's decision propagates
// all the way to the client's upload.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	tenant, _, ok := pathNames(w, r, false)
	if !ok {
		return
	}
	t, err := s.reg.Get(tenant)
	if err != nil {
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", tenant)
		return
	}
	var res MatchResult
	if r.ContentLength >= 0 {
		if max := s.cfg.MaxBodyBytes; max > 0 && r.ContentLength > max {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"document of %d bytes exceeds the %d-byte buffered-body cap; use a chunked body",
				r.ContentLength, max)
			return
		}
		doc, release, err := readBody(r)
		if err != nil {
			release()
			writeError(w, http.StatusBadRequest, "bad_body", "reading document: %v", err)
			return
		}
		// MatchBuffered copies the fragments it reports (finishRLocked) and
		// keeps nothing else of the document, so the buffer goes straight back.
		res, err = t.MatchBuffered(doc)
		release()
		if err != nil {
			writeMatchError(w, tenant, err)
			return
		}
	} else {
		res, err = t.MatchStream(r.Body)
		if err != nil {
			writeMatchError(w, tenant, err)
			return
		}
	}
	resp := matchResponse{
		Tenant:        tenant,
		Matched:       res.Matched,
		Subscriptions: res.Subscriptions,
		Abstained:     res.Abstained,
		Fragments:     res.Fragments,
	}
	resp.Stats.BytesRead = res.Stats.BytesRead
	resp.Stats.BytesConsumed = res.Stats.BytesConsumed
	resp.Stats.Chunks = res.Stats.Chunks
	resp.Stats.EarlyExit = res.Stats.EarlyExit
	resp.Stats.DecidedNegative = res.Stats.DecidedNegative
	resp.Stats.Abstained = res.Stats.Abstained
	writeJSON(w, http.StatusOK, resp)
}

// writeMatchError maps a match failure to its typed JSON error: a
// resource-budget breach under the fail policy is 413 with the breached
// budget spelled out, a recovered worker panic is 500, a deleted-tenant
// race is 404, and everything else (malformed XML, premature end) is
// 400 "invalid_document".
func writeMatchError(w http.ResponseWriter, tenant string, err error) {
	var le *streamxpath.LimitError
	var pe *streamxpath.PanicError
	switch {
	case errors.Is(err, errTenantDeleted):
		writeError(w, http.StatusNotFound, "tenant_not_found", "tenant %q was deleted", tenant)
	case errors.As(err, &le):
		writeError(w, http.StatusRequestEntityTooLarge, "limit_exceeded",
			"resource budget breached: %s %d > %d", le.Resource, le.Observed, le.Limit)
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, "engine_fault", "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "invalid_document", "%v", err)
	}
}

// handleHealthz answers 200 while serving and 503 once draining, so
// load balancers stop routing before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Metrics().WritePrometheus(w, s.reg)
}
