package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamxpath/internal/delivery"
)

// webhookSink is the in-test delivery receiver: behave decides each
// request's fate by its 1-based ordinal (0 = 200 OK, 1 = 500, 2 = hang
// until the client cancels).
type webhookSink struct {
	srv    *httptest.Server
	behave func(n int) int

	mu     sync.Mutex
	seen   int
	bodies []string
}

const (
	sinkOK = iota
	sink500
	sinkHang
)

func newWebhookSink(behave func(n int) int) *webhookSink {
	s := &webhookSink{behave: behave}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		r.Body.Read(body)
		s.mu.Lock()
		s.seen++
		n := s.seen
		s.mu.Unlock()
		act := sinkOK
		if s.behave != nil {
			act = s.behave(n)
		}
		switch act {
		case sink500:
			http.Error(w, "injected", http.StatusInternalServerError)
		case sinkHang:
			<-r.Context().Done()
		default:
			s.mu.Lock()
			s.bodies = append(s.bodies, string(body))
			s.mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}
	}))
	return s
}

func (s *webhookSink) delivered() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bodies...)
}

func (s *webhookSink) requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// fastDeliveryConfig keeps retry schedules test-speed.
func fastDeliveryConfig() Config {
	return Config{
		DeliveryBackoff:    time.Millisecond,
		DeliveryBackoffMax: 5 * time.Millisecond,
		BreakerThreshold:   100, // out of the way unless a test wants it
		BreakerCooldown:    time.Millisecond,
	}
}

// pollFor polls cond for up to timeout — webhook delivery is
// asynchronous by design, so tests converge on its outcome.
func pollFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// putJSON PUTs a JSON subscription envelope.
func putJSON(t *testing.T, base, tenant, id, envelope string) resp {
	t.Helper()
	return do(t, "PUT", base+"/v1/tenants/"+tenant+"/subscriptions/"+id,
		strings.NewReader(envelope))
}

var matchingDoc = []byte(`<news><item><title>go</title></item></news>`)

// TestSubscriptionWebhookCRUD pins the two accepted PUT body forms: a
// raw XPath expression (the original wire format) and the JSON
// envelope that can attach a webhook. A raw-body replace clears the
// webhook — PUT is a full replace.
func TestSubscriptionWebhookCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	env := `{"query": "/news/item", "webhook": {"url": "http://127.0.0.1:9/hook", "timeout_ms": 500, "max_attempts": 3}}`
	r := putJSON(t, ts.URL, "acme", "s1", env)
	if r.status != http.StatusCreated {
		t.Fatalf("envelope PUT: status %d: %s", r.status, r.body)
	}
	var created SubInfo
	if err := json.Unmarshal(r.body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Webhook == nil || created.Webhook.URL != "http://127.0.0.1:9/hook" ||
		created.Webhook.TimeoutMS != 500 || created.Webhook.MaxAttempts != 3 {
		t.Fatalf("created webhook = %+v", created.Webhook)
	}

	r = do(t, "GET", ts.URL+"/v1/tenants/acme/subscriptions/s1", nil)
	var got SubInfo
	if err := json.Unmarshal(r.body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Query != "/news/item" || got.Webhook == nil || got.Webhook.TimeoutMS != 500 {
		t.Fatalf("GET subscription = %+v webhook %+v", got, got.Webhook)
	}

	// Raw-body replace: query swaps, webhook clears.
	r = putJSON(t, ts.URL, "acme", "s1", "/news//p")
	if r.status != http.StatusOK {
		t.Fatalf("raw replace: status %d: %s", r.status, r.body)
	}
	r = do(t, "GET", ts.URL+"/v1/tenants/acme/subscriptions/s1", nil)
	got = SubInfo{}
	if err := json.Unmarshal(r.body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Query != "/news//p" || got.Webhook != nil {
		t.Fatalf("after raw replace: %+v webhook %+v", got, got.Webhook)
	}

	// Malformed envelopes are rejected before touching the engine.
	for name, env := range map[string]string{
		"bad scheme":    `{"query": "/a", "webhook": {"url": "ftp://host/x"}}`,
		"no host":       `{"query": "/a", "webhook": {"url": "http://"}}`,
		"missing query": `{"webhook": {"url": "http://h/x"}}`,
		"bad json":      `{"query": `,
		"neg timeout":   `{"query": "/a", "webhook": {"url": "http://h/x", "timeout_ms": -1}}`,
	} {
		r := putJSON(t, ts.URL, "acme", "bad", env)
		if r.status != http.StatusBadRequest || errCode(t, r) != "invalid_subscription" {
			t.Errorf("%s: status %d code %s", name, r.status, r.body)
		}
	}
}

// TestWebhookDeliveryRetrySuccess drives the happy acceptance path: a
// receiver that fails its first attempt receives the delivery on the
// retry, and /metrics shows both attempts.
func TestWebhookDeliveryRetrySuccess(t *testing.T) {
	sink := newWebhookSink(func(n int) int {
		if n == 1 {
			return sink500
		}
		return sinkOK
	})
	defer sink.srv.Close()
	srv, ts := newTestServer(t, fastDeliveryConfig())

	env := fmt.Sprintf(`{"query": "/news/item", "webhook": {"url": %q}}`, sink.srv.URL)
	if r := putJSON(t, ts.URL, "acme", "s1", env); r.status != http.StatusCreated {
		t.Fatalf("PUT: %d %s", r.status, r.body)
	}
	if _, r := postMatch(t, ts.URL, "acme", matchingDoc, false); r.status != http.StatusOK {
		t.Fatalf("match: %d %s", r.status, r.body)
	}

	// The sink acknowledges before the manager finishes its bookkeeping,
	// so converge on the manager's view.
	pollFor(t, 5*time.Second, "retried delivery", func() bool {
		return srv.Registry().Delivery().Stats("acme").Successes == 1
	})
	if got := sink.delivered(); len(got) != 1 {
		t.Fatalf("sink delivered %d payloads", len(got))
	}
	var ev struct {
		Event        string `json:"event"`
		Tenant       string `json:"tenant"`
		Subscription string `json:"subscription"`
		Query        string `json:"query"`
		Seq          int64  `json:"seq"`
	}
	if err := json.Unmarshal([]byte(sink.delivered()[0]), &ev); err != nil {
		t.Fatalf("payload: %v: %s", err, sink.delivered()[0])
	}
	if ev.Event != "match" || ev.Tenant != "acme" || ev.Subscription != "s1" ||
		ev.Query != "/news/item" || ev.Seq != 1 {
		t.Fatalf("payload = %+v", ev)
	}

	st := srv.Registry().Delivery().Stats("acme")
	if st.Attempts != 2 || st.Successes != 1 || st.Retries != 1 || st.DeadLetters != 0 {
		t.Fatalf("stats = %+v", st)
	}
	metrics := do(t, "GET", ts.URL+"/metrics", nil)
	for _, want := range []string{
		`xpfilterd_delivery_attempts_total{tenant="acme"} 2`,
		`xpfilterd_delivery_successes_total{tenant="acme"} 1`,
		`xpfilterd_delivery_retries_total{tenant="acme"} 1`,
		`xpfilterd_delivery_queue_depth{tenant="acme"} 0`,
		`xpfilterd_delivery_queued{tenant="acme"} 0`,
	} {
		if !strings.Contains(string(metrics.body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	r := do(t, "GET", ts.URL+"/v1/tenants/acme/deadletters", nil)
	if r.status != http.StatusOK {
		t.Fatalf("deadletters: %d %s", r.status, r.body)
	}
	var dl struct {
		DeadLetters []delivery.DeadLetter `json:"deadletters"`
		Dropped     int64                 `json:"dropped"`
	}
	if err := json.Unmarshal(r.body, &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.DeadLetters) != 0 || dl.Dropped != 0 {
		t.Fatalf("deadletters = %+v", dl)
	}
}

// TestWebhookDeadLetterEndpoint drives the failure acceptance path: a
// permanently dead receiver dead-letters the delivery with exactly its
// attempt budget accounted, inspectable over the API and in /metrics.
func TestWebhookDeadLetterEndpoint(t *testing.T) {
	sink := newWebhookSink(func(int) int { return sink500 })
	defer sink.srv.Close()
	srv, ts := newTestServer(t, fastDeliveryConfig())

	env := fmt.Sprintf(`{"query": "/news/item", "webhook": {"url": %q, "max_attempts": 2}}`, sink.srv.URL)
	if r := putJSON(t, ts.URL, "acme", "doomed", env); r.status != http.StatusCreated {
		t.Fatalf("PUT: %d %s", r.status, r.body)
	}
	if _, r := postMatch(t, ts.URL, "acme", matchingDoc, false); r.status != http.StatusOK {
		t.Fatalf("match: %d %s", r.status, r.body)
	}

	pollFor(t, 5*time.Second, "dead letter", func() bool {
		return srv.Registry().Delivery().Stats("acme").DeadLetters == 1
	})
	r := do(t, "GET", ts.URL+"/v1/tenants/acme/deadletters", nil)
	var dl struct {
		DeadLetters []delivery.DeadLetter `json:"deadletters"`
	}
	if err := json.Unmarshal(r.body, &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.DeadLetters) != 1 {
		t.Fatalf("deadletters = %+v", dl)
	}
	got := dl.DeadLetters[0]
	if got.Subscription != "doomed" || got.Attempts != 2 || got.LastError == "" {
		t.Fatalf("dead letter = %+v", got)
	}
	st := srv.Registry().Delivery().Stats("acme")
	if st.Attempts != 2 || st.Successes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	metrics := do(t, "GET", ts.URL+"/metrics", nil)
	if !strings.Contains(string(metrics.body), `xpfilterd_delivery_dead_letters_total{tenant="acme"} 1`) {
		t.Fatalf("metrics missing dead-letter series:\n%s", metrics.body)
	}

	// Unknown tenants 404 rather than answering an empty ring.
	if r := do(t, "GET", ts.URL+"/v1/tenants/ghost/deadletters", nil); r.status != http.StatusNotFound {
		t.Fatalf("ghost deadletters: %d", r.status)
	}
}

// TestDrainWithPendingDeliveries is the satellite drain test: SIGTERM
// (Shutdown) while the receiver hangs must account for every queued
// record — flushed or abandoned, never lost — and leak no goroutines.
func TestDrainWithPendingDeliveries(t *testing.T) {
	sink := newWebhookSink(func(int) int { return sinkHang })
	defer sink.srv.Close()

	before := runtime.NumGoroutine()
	cfg := fastDeliveryConfig()
	cfg.DeliveryTimeout = time.Minute // the hang outlives the drain window
	srv, ts := newTestServer(t, cfg)

	env := fmt.Sprintf(`{"query": "/news/item", "webhook": {"url": %q}}`, sink.srv.URL)
	if r := putJSON(t, ts.URL, "acme", "s1", env); r.status != http.StatusCreated {
		t.Fatalf("PUT: %d %s", r.status, r.body)
	}
	if _, r := postMatch(t, ts.URL, "acme", matchingDoc, false); r.status != http.StatusOK {
		t.Fatalf("match: %d %s", r.status, r.body)
	}
	pollFor(t, 5*time.Second, "delivery in flight", func() bool { return sink.requests() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st := srv.Registry().Delivery().Stats("acme")
	if st.Outstanding != 0 {
		t.Fatalf("outstanding %d after drain", st.Outstanding)
	}
	if st.Abandoned != 1 {
		t.Fatalf("abandoned %d, want 1 (stats %+v)", st.Abandoned, st)
	}
	if st.Enqueued != st.Successes+st.DeadLetters+st.Abandoned {
		t.Fatalf("accounting broken: %+v", st)
	}

	// The hung receiver request was cancelled and every pump goroutine
	// exited; allow scheduler slack plus the sink's own machinery.
	pollFor(t, 5*time.Second, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= before+4
	})
}

// TestRecreatedTenantKeepsItsDeliveries: a tenant re-created under the name
// of one whose Delete is still waiting for a slow upload has a delivery pump
// and metric series of its own. The old tenant's teardown, when the upload
// ends, must neither abandon the new tenant's in-flight POST nor erase its
// series.
func TestRecreatedTenantKeepsItsDeliveries(t *testing.T) {
	gate := make(chan struct{})
	var closeGate sync.Once
	defer closeGate.Do(func() { close(gate) })
	var arrived, acked atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Add(1)
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		acked.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer sink.Close()
	mgr := delivery.NewManager(delivery.Config{Timeout: 30 * time.Second})
	reg := NewRegistry(TenantConfig{}, nil, mgr)
	defer reg.Close()

	old, err := reg.Create("a", TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.PutSubscription("s", "/news/item", false, nil); err != nil {
		t.Fatal(err)
	}
	// A chunked upload holds the old tenant: the first write returns once
	// the match is reading it.
	pr, pw := io.Pipe()
	uploaded := make(chan error, 1)
	go func() {
		_, err := old.MatchStream(pr)
		uploaded <- err
	}()
	if _, err := pw.Write([]byte("<news>")); err != nil {
		t.Fatal(err)
	}
	deleted := make(chan bool, 1)
	go func() { deleted <- reg.Delete("a") }()
	pollFor(t, 5*time.Second, "a to leave the registry", func() bool {
		_, err := reg.Get("a")
		return errors.Is(err, ErrTenantNotFound)
	})

	fresh, err := reg.Create("a", TenantConfig{})
	if err != nil {
		t.Fatalf("re-create a: %v", err)
	}
	if _, err := fresh.PutSubscription("s", "/news/item", false, &delivery.Webhook{URL: sink.URL}); err != nil {
		t.Fatal(err)
	}
	if res, err := fresh.MatchBuffered(matchingDoc); err != nil || len(res.Matched) != 1 {
		t.Fatalf("match on the new tenant: %v, matched %v", err, res.Matched)
	}
	pollFor(t, 5*time.Second, "the new tenant's POST in flight", func() bool { return arrived.Load() == 1 })

	// End the upload: the old tenant closes and its pump is dropped.
	if _, err := pw.Write([]byte("<item/></news>")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-uploaded; err != nil {
		t.Fatalf("old tenant's upload: %v", err)
	}
	if !<-deleted {
		t.Fatal("Delete reported no tenant")
	}

	closeGate.Do(func() { close(gate) })
	pollFor(t, 5*time.Second, "the new tenant's delivery", func() bool { return mgr.Stats("a").Successes == 1 })
	if st := fresh.deliveries.Stats(); st.Successes != 1 || st.Abandoned != 0 || acked.Load() != 1 {
		t.Fatalf("new tenant's deliveries: %+v, receiver acknowledged %d", st, acked.Load())
	}
	var exp bytes.Buffer
	reg.Metrics().WritePrometheus(&exp, reg)
	for _, want := range []string{
		`xpfilterd_documents_total{tenant="a"} 1`,
		`xpfilterd_subscriptions{tenant="a"} 1`,
		`xpfilterd_delivery_successes_total{tenant="a"} 1`,
		`xpfilterd_delivery_abandoned_total{tenant="a"} 0`,
	} {
		if !strings.Contains(exp.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exp.String())
	}
}
