package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"streamxpath"
	"streamxpath/internal/workload"
)

// testSubs is the standing subscription set of the equivalence tests:
// linear paths, descendant axes, wildcards, predicates, and a
// never-matching foreign root, registered in a fixed order so
// insertion-order verdicts are comparable.
var testSubs = []SubInfo{
	{ID: "item", Query: "/news/item"},
	{ID: "title", Query: "/news/item/title"},
	{ID: "desc", Query: "/news//p"},
	{ID: "prio", Query: "/news/item[priority > 5]"},
	{ID: "kw", Query: `/news/item[keyword = "go"]`},
	{ID: "wild", Query: "/news/*/keyword"},
	{ID: "feed", Query: "/feed/entry"},
	{ID: "descpred", Query: "//item[keyword]/body"},
}

// newTestServer returns a Server and an httptest front end over its
// full middleware-wrapped handler.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg, discardLogger())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Registry().Close()
	})
	return srv, ts
}

// newDirectSet returns a FilterPool loaded with testSubs — the ground
// truth the HTTP verdicts must reproduce.
func newDirectSet(t *testing.T, lim streamxpath.Limits) *streamxpath.FilterPool {
	t.Helper()
	set := streamxpath.NewFilterPool(2)
	for _, s := range testSubs {
		if err := set.Add(s.ID, s.Query); err != nil {
			t.Fatalf("Add(%s): %v", s.ID, err)
		}
	}
	set.SetLimits(lim)
	return set
}

// rootedSubs is the early-exit subscription set: every member is
// rooted at /news or /feed, so the dead-state analysis can kill the
// whole set at a foreign document's root element. (testSubs cannot
// early-exit negatively: its //-descendant members stay live to the
// last byte.)
var rootedSubs = []SubInfo{
	{ID: "item", Query: "/news/item"},
	{ID: "title", Query: "/news/item/title"},
	{ID: "prio", Query: "/news/item[priority > 5]"},
	{ID: "feed", Query: "/feed/entry"},
}

// norm maps a nil id slice to the empty one so verdicts decoded from
// JSON (always non-nil) compare equal to library results.
func norm(ids []string) []string {
	if ids == nil {
		return []string{}
	}
	return ids
}

// seedSubs registers the given subscriptions under the named tenant
// over HTTP.
func seedSubs(t *testing.T, base, tenant string, subs []SubInfo) {
	t.Helper()
	for _, s := range subs {
		resp := do(t, "PUT", base+"/v1/tenants/"+tenant+"/subscriptions/"+s.ID,
			strings.NewReader(s.Query))
		if resp.status != http.StatusCreated {
			t.Fatalf("PUT subscription %s: status %d: %s", s.ID, resp.status, resp.body)
		}
	}
}

// seedTenant registers testSubs under the named tenant over HTTP.
func seedTenant(t *testing.T, base, tenant string) {
	t.Helper()
	seedSubs(t, base, tenant, testSubs)
}

type resp struct {
	status int
	body   []byte
}

func do(t *testing.T, method, url string, body io.Reader) resp {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp{status: r.StatusCode, body: raw}
}

// chunkedReader hides the underlying reader's type so the HTTP client
// sends the body with Transfer-Encoding: chunked — the server's
// streaming ingest path.
type chunkedReader struct{ io.Reader }

// postMatch sends one document to the ingest endpoint and decodes the
// verdict envelope.
func postMatch(t *testing.T, base, tenant string, doc []byte, stream bool) (matchResponse, resp) {
	t.Helper()
	var body io.Reader = bytes.NewReader(doc)
	if stream {
		body = chunkedReader{bytes.NewReader(doc)}
	}
	r := do(t, "POST", base+"/v1/tenants/"+tenant+"/match", body)
	var mr matchResponse
	if r.status == http.StatusOK {
		if err := json.Unmarshal(r.body, &mr); err != nil {
			t.Fatalf("decoding verdict: %v: %s", err, r.body)
		}
	}
	return mr, r
}

// errCode extracts the typed error code from a non-2xx body.
func errCode(t *testing.T, r resp) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(r.body, &e); err != nil {
		t.Fatalf("decoding error body: %v: %s", err, r.body)
	}
	return e.Error.Code
}

// corpusDocs returns the equivalence corpus: random news feeds (mixed
// positive verdicts), a catalog document (negative early exit on the
// streaming path: no /news or /feed subscription can ever match it),
// and a minimal empty feed.
func corpusDocs(t *testing.T) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var docs [][]byte
	for i := 0; i < 6; i++ {
		xml, err := workload.RandomNewsFeed(rng, 5+rng.Intn(40)).XML()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, []byte(xml))
	}
	var catalog bytes.Buffer
	catalog.WriteString("<catalog>")
	// Big enough (~2 MiB) that the first streaming read — one transport
	// buffer or one DefaultChunkSize chunk — stays under 10% of the doc,
	// matching the library's own negative-early-exit threshold.
	for i := 0; i < 32000; i++ {
		fmt.Fprintf(&catalog, "<item id=\"%d\"><name>n%d</name><priority>%d</priority></item>", i, i, i%10)
	}
	catalog.WriteString("</catalog>")
	docs = append(docs, catalog.Bytes())
	docs = append(docs, []byte("<news></news>"))
	return docs
}

// TestMatchEquivalence is the acceptance criterion: verdicts from the
// ingest endpoint — buffered and chunked alike — are identical (same
// ids, same order) to direct FilterPool calls on the same
// corpus, and the streaming path's early-exit accounting matches the
// library's.
func TestMatchEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedTenant(t, ts.URL, "equiv")
	direct := newDirectSet(t, streamxpath.Limits{})

	for i, doc := range corpusDocs(t) {
		wantBuf, err := direct.MatchBytes(doc)
		if err != nil {
			t.Fatalf("doc %d: direct MatchBytes: %v", i, err)
		}
		want := norm(append([]string(nil), wantBuf...))

		got, r := postMatch(t, ts.URL, "equiv", doc, false)
		if r.status != http.StatusOK {
			t.Fatalf("doc %d buffered: status %d: %s", i, r.status, r.body)
		}
		if !reflect.DeepEqual(got.Matched, want) {
			t.Errorf("doc %d buffered: matched %v, want %v", i, got.Matched, want)
		}
		if got.Stats.BytesRead != int64(len(doc)) || got.Stats.BytesConsumed != int64(len(doc)) {
			t.Errorf("doc %d buffered: stats %+v, want full-doc byte counts %d", i, got.Stats, len(doc))
		}

		wantStream, err := direct.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("doc %d: direct MatchReader: %v", i, err)
		}
		wantRS := wantStream.ReaderStats
		if !reflect.DeepEqual(norm(append([]string(nil), wantStream.MatchedIDs...)), want) {
			t.Fatalf("doc %d: library reader/bytes disagree: %v vs %v", i, wantStream.MatchedIDs, want)
		}
		got, r = postMatch(t, ts.URL, "equiv", doc, true)
		if r.status != http.StatusOK {
			t.Fatalf("doc %d chunked: status %d: %s", i, r.status, r.body)
		}
		if !reflect.DeepEqual(got.Matched, want) {
			t.Errorf("doc %d chunked: matched %v, want %v", i, got.Matched, want)
		}
		if got.Stats.EarlyExit != wantRS.EarlyExit || got.Stats.DecidedNegative != wantRS.DecidedNegative {
			t.Errorf("doc %d chunked: early-exit (%v,%v), want (%v,%v)", i,
				got.Stats.EarlyExit, got.Stats.DecidedNegative, wantRS.EarlyExit, wantRS.DecidedNegative)
		}
		if got.Stats.BytesConsumed != wantRS.BytesConsumed {
			t.Errorf("doc %d chunked: consumed %d, want %d", i, got.Stats.BytesConsumed, wantRS.BytesConsumed)
		}
	}
}

// trickle yields at most 1 KiB per Read, as a slow uploader's body does.
type trickle struct{ r io.Reader }

func (t trickle) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), 1<<10)]) }

// TestMatchEarlyExitNegative pins that a chunked upload of a foreign
// document stops consuming almost immediately: the dead-state analysis
// decides every /news- and /feed-rooted subscription at the catalog
// root — and stops reading the wire there, however small the document.
func TestMatchEarlyExitNegative(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	seedSubs(t, ts.URL, "neg", rootedSubs)
	docs := corpusDocs(t)
	catalog := docs[len(docs)-2]
	got, r := postMatch(t, ts.URL, "neg", catalog, true)
	if r.status != http.StatusOK {
		t.Fatalf("status %d: %s", r.status, r.body)
	}
	if len(got.Matched) != 0 {
		t.Fatalf("matched %v, want none", got.Matched)
	}
	if !got.Stats.EarlyExit || !got.Stats.DecidedNegative {
		t.Fatalf("stats %+v, want negative early exit", got.Stats)
	}
	if got.Stats.BytesConsumed >= int64(len(catalog))/10 {
		t.Fatalf("consumed %d of %d bytes, want <10%%", got.Stats.BytesConsumed, len(catalog))
	}

	// A 16 KiB document arriving 1 KiB at a time without a Content-Length:
	// the body is never staged, so the rest of it is never read.
	cut := bytes.LastIndex(catalog[:16<<10], []byte("<item "))
	small := append(catalog[:cut:cut], "</catalog>"...)
	req := httptest.NewRequest("POST", "/v1/tenants/neg/match", trickle{bytes.NewReader(small)})
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("trickled: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Stats.EarlyExit || !got.Stats.DecidedNegative || got.Stats.BytesRead >= int64(len(small)) {
		t.Fatalf("trickled: stats %+v, want a negative early exit before all %d bytes were read", got.Stats, len(small))
	}
}

// TestMatchAbstainEquivalence covers the degraded mode: a tenant whose
// budgets use the abstain policy returns 200 with the verdicts decided
// before the breach — the same answer as the library under the same
// limits — while a fail-policy tenant answers 413 with the typed code.
func TestMatchAbstainEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	lim := streamxpath.Limits{MaxDepth: 64, Policy: streamxpath.LimitAbstain}
	cfgBody := `{"limits": {"maxDepth": 64, "policy": "abstain"}}`
	if r := do(t, "PUT", ts.URL+"/v1/tenants/abst", strings.NewReader(cfgBody)); r.status != http.StatusCreated {
		t.Fatalf("create tenant: status %d: %s", r.status, r.body)
	}
	seedTenant(t, ts.URL, "abst")
	direct := newDirectSet(t, lim)

	deep := []byte("<news><item><title>t</title><keyword>go</keyword>" +
		strings.Repeat("<d>", 500) + strings.Repeat("</d>", 500) + "</item></news>")

	directRes, err := direct.MatchBytesResult(deep)
	if err != nil {
		t.Fatalf("direct MatchBytes under abstain: %v", err)
	}
	if !directRes.Abstained {
		t.Fatal("direct set did not abstain; the document no longer breaches MaxDepth")
	}
	want := directRes.MatchedIDs
	for _, stream := range []bool{false, true} {
		got, r := postMatch(t, ts.URL, "abst", deep, stream)
		if r.status != http.StatusOK {
			t.Fatalf("stream=%v: status %d: %s", stream, r.status, r.body)
		}
		if !got.Abstained || !got.Stats.Abstained {
			t.Errorf("stream=%v: abstained flags (%v,%v), want true", stream, got.Abstained, got.Stats.Abstained)
		}
		if !reflect.DeepEqual(got.Matched, norm(append([]string(nil), want...))) {
			t.Errorf("stream=%v: matched %v, want %v", stream, got.Matched, want)
		}
	}

	// Same budgets under the fail policy: a typed 413.
	if r := do(t, "PUT", ts.URL+"/v1/tenants/faily", strings.NewReader(`{"limits": {"maxDepth": 64}}`)); r.status != http.StatusCreated {
		t.Fatalf("create fail tenant: status %d: %s", r.status, r.body)
	}
	seedTenant(t, ts.URL, "faily")
	for _, stream := range []bool{false, true} {
		_, r := postMatch(t, ts.URL, "faily", deep, stream)
		if r.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("stream=%v: status %d, want 413: %s", stream, r.status, r.body)
		}
		if code := errCode(t, r); code != "limit_exceeded" {
			t.Fatalf("stream=%v: code %q, want limit_exceeded", stream, code)
		}
	}
}

// TestCRUD walks the subscription and tenant lifecycle, including the
// typed error codes.
func TestCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	// Explicit tenant creation; duplicate is a conflict.
	if r := do(t, "PUT", base+"/v1/tenants/acme", nil); r.status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", r.status, r.body)
	}
	if r := do(t, "PUT", base+"/v1/tenants/acme", nil); r.status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", r.status)
	} else if errCode(t, r) != "tenant_exists" {
		t.Fatalf("duplicate create: wrong code: %s", r.body)
	}

	// Subscription upsert: create 201, replace 200, visible via GET.
	if r := do(t, "PUT", base+"/v1/tenants/acme/subscriptions/s1", strings.NewReader("/news/item")); r.status != http.StatusCreated {
		t.Fatalf("put sub: status %d: %s", r.status, r.body)
	}
	if r := do(t, "PUT", base+"/v1/tenants/acme/subscriptions/s1", strings.NewReader("/news/item/title")); r.status != http.StatusOK {
		t.Fatalf("replace sub: status %d: %s", r.status, r.body)
	}
	r := do(t, "GET", base+"/v1/tenants/acme/subscriptions/s1", nil)
	if r.status != http.StatusOK || !bytes.Contains(r.body, []byte("/news/item/title")) {
		t.Fatalf("get sub: status %d: %s", r.status, r.body)
	}

	// Invalid query: typed 400, and a failed replace keeps the old query.
	r = do(t, "PUT", base+"/v1/tenants/acme/subscriptions/s1", strings.NewReader("][not-xpath"))
	if r.status != http.StatusBadRequest || errCode(t, r) != "invalid_query" {
		t.Fatalf("invalid query: status %d code %s", r.status, r.body)
	}
	r = do(t, "GET", base+"/v1/tenants/acme/subscriptions/s1", nil)
	if !bytes.Contains(r.body, []byte("/news/item/title")) {
		t.Fatalf("failed replace lost the old query: %s", r.body)
	}

	// Implicit tenant creation via subscription PUT; listing order.
	if r := do(t, "PUT", base+"/v1/tenants/implicit/subscriptions/a", strings.NewReader("/a")); r.status != http.StatusCreated {
		t.Fatalf("implicit create: status %d: %s", r.status, r.body)
	}
	if r := do(t, "PUT", base+"/v1/tenants/implicit/subscriptions/b", strings.NewReader("/b")); r.status != http.StatusCreated {
		t.Fatalf("implicit create b: status %d: %s", r.status, r.body)
	}
	r = do(t, "GET", base+"/v1/tenants/implicit/subscriptions", nil)
	var listing struct {
		Subscriptions []SubInfo `json:"subscriptions"`
	}
	if err := json.Unmarshal(r.body, &listing); err != nil {
		t.Fatalf("listing: %v: %s", err, r.body)
	}
	if len(listing.Subscriptions) != 2 || listing.Subscriptions[0].ID != "a" || listing.Subscriptions[1].ID != "b" {
		t.Fatalf("listing order: %+v", listing.Subscriptions)
	}

	// Tenant list includes both.
	r = do(t, "GET", base+"/v1/tenants", nil)
	if !bytes.Contains(r.body, []byte("acme")) || !bytes.Contains(r.body, []byte("implicit")) {
		t.Fatalf("tenant list: %s", r.body)
	}

	// Deletes and their 404s.
	if r := do(t, "DELETE", base+"/v1/tenants/acme/subscriptions/s1", nil); r.status != http.StatusOK {
		t.Fatalf("delete sub: status %d", r.status)
	}
	if r := do(t, "DELETE", base+"/v1/tenants/acme/subscriptions/s1", nil); r.status != http.StatusNotFound || errCode(t, r) != "subscription_not_found" {
		t.Fatalf("delete missing sub: status %d: %s", r.status, r.body)
	}
	if r := do(t, "DELETE", base+"/v1/tenants/acme", nil); r.status != http.StatusOK {
		t.Fatalf("delete tenant: status %d", r.status)
	}
	if r := do(t, "GET", base+"/v1/tenants/acme", nil); r.status != http.StatusNotFound || errCode(t, r) != "tenant_not_found" {
		t.Fatalf("get deleted tenant: status %d: %s", r.status, r.body)
	}
	if _, r := postMatch(t, ts.URL, "acme", []byte("<a/>"), false); r.status != http.StatusNotFound {
		t.Fatalf("match on deleted tenant: status %d", r.status)
	}

	// Name validation.
	if r := do(t, "PUT", base+"/v1/tenants/bad%20name", nil); r.status != http.StatusBadRequest || errCode(t, r) != "invalid_tenant" {
		t.Fatalf("bad tenant name: status %d: %s", r.status, r.body)
	}
	if r := do(t, "PUT", base+"/v1/tenants/ok/subscriptions/bad%2Fid", strings.NewReader("/a")); r.status != http.StatusBadRequest {
		t.Fatalf("bad sub id: status %d: %s", r.status, r.body)
	}
}

// TestMalformedDocument maps a parse failure to the typed 400.
func TestMalformedDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedTenant(t, ts.URL, "m")
	for _, stream := range []bool{false, true} {
		_, r := postMatch(t, ts.URL, "m", []byte("<a><b></a>"), stream)
		if r.status != http.StatusBadRequest || errCode(t, r) != "invalid_document" {
			t.Fatalf("stream=%v: status %d: %s", stream, r.status, r.body)
		}
	}
}

// TestMaxBodyCap pins the buffered-body cap (streaming bodies are
// governed by tenant MaxDocBytes instead).
func TestMaxBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	seedTenant(t, ts.URL, "cap")
	big := []byte("<news>" + strings.Repeat("<item></item>", 100) + "</news>")
	_, r := postMatch(t, ts.URL, "cap", big, false)
	if r.status != http.StatusRequestEntityTooLarge || errCode(t, r) != "body_too_large" {
		t.Fatalf("status %d: %s", r.status, r.body)
	}
}

// TestMetricsExposition drives a few documents through two tenants and
// asserts the Prometheus exposition carries the acceptance-criteria
// series: document counters, early-exit direction counters, abstain
// and limit-breach counters, subscription gauges, and the MemStats
// gauges.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedSubs(t, ts.URL, "m1", rootedSubs)
	if r := do(t, "PUT", ts.URL+"/v1/tenants/m2", strings.NewReader(`{"limits": {"maxDepth": 8, "policy": "abstain"}}`)); r.status != http.StatusCreated {
		t.Fatalf("create m2: %d", r.status)
	}
	if r := do(t, "PUT", ts.URL+"/v1/tenants/m2/subscriptions/s", strings.NewReader("/news/item")); r.status != http.StatusCreated {
		t.Fatalf("seed m2: %d", r.status)
	}

	docs := corpusDocs(t)
	for _, doc := range docs[:3] {
		if _, r := postMatch(t, ts.URL, "m1", doc, false); r.status != http.StatusOK {
			t.Fatalf("m1 match: %d: %s", r.status, r.body)
		}
	}
	// Negative early exit on the streaming path.
	if _, r := postMatch(t, ts.URL, "m1", docs[len(docs)-2], true); r.status != http.StatusOK {
		t.Fatalf("m1 catalog: %d", r.status)
	}
	// Abstained document on m2.
	deep := []byte("<news>" + strings.Repeat("<d>", 64) + strings.Repeat("</d>", 64) + "</news>")
	if mr, r := postMatch(t, ts.URL, "m2", deep, false); r.status != http.StatusOK || !mr.Abstained {
		t.Fatalf("m2 abstain: %d abstained=%v", r.status, mr.Abstained)
	}

	r := do(t, "GET", ts.URL+"/metrics", nil)
	if r.status != http.StatusOK {
		t.Fatalf("/metrics: %d", r.status)
	}
	body := string(r.body)
	for _, want := range []string{
		`xpfilterd_documents_total{tenant="m1"} 4`,
		`xpfilterd_documents_total{tenant="m2"} 1`,
		`xpfilterd_early_exit_total{tenant="m1",outcome="negative"} 1`,
		`xpfilterd_abstained_total{tenant="m2"} 1`,
		`xpfilterd_limit_breaches_total{tenant="m1"} 0`,
		`xpfilterd_subscriptions{tenant="m1"} 4`,
		`xpfilterd_subscriptions{tenant="m2"} 1`,
		`xpfilterd_events_total{tenant="m1"}`,
		`xpfilterd_bytes_consumed_total{tenant="m1"}`,
		`xpfilterd_mem_peak_live_tuples{tenant="m1"}`,
		`xpfilterd_mem_optimality_ratio{tenant="m1"}`,
		`xpfilterd_http_requests_total{method="POST",code="200"}`,
		`xpfilterd_uptime_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestMetricsSkimmedBytes: a buffered document whose verdicts are all final
// early is validated to its end without being dispatched, and /metrics
// says how much of it — beside bytes_read and bytes_consumed, which still
// count the whole body. A tenant whose subscriptions stay open to the last
// byte reports none.
func TestMetricsSkimmedBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedSubs(t, ts.URL, "dead", rootedSubs) // all dead at <catalog>
	seedSubs(t, ts.URL, "open", []SubInfo{{ID: "any", Query: "//nowhere"}})
	catalog := []byte("<catalog>" + strings.Repeat("<item><name>n</name></item>", 1000) + "</catalog>")
	for _, tenant := range []string{"dead", "open"} {
		if mr, r := postMatch(t, ts.URL, tenant, catalog, false); r.status != http.StatusOK || len(mr.Matched) != 0 {
			t.Fatalf("%s: status %d, matched %v", tenant, r.status, mr.Matched)
		}
	}
	body := string(do(t, "GET", ts.URL+"/metrics", nil).body)
	series := func(name, tenant string) int {
		t.Helper()
		prefix := fmt.Sprintf("%s{tenant=%q} ", name, tenant)
		_, rest, ok := strings.Cut(body, prefix)
		if !ok {
			t.Fatalf("/metrics has no %s", prefix)
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("%s%s: %v", prefix, line, err)
		}
		return v
	}
	for _, tenant := range []string{"dead", "open"} {
		if got := series("xpfilterd_bytes_consumed_total", tenant); got != len(catalog) {
			t.Errorf("%s: bytes_consumed_total = %d, want the whole %d-byte body", tenant, got, len(catalog))
		}
	}
	if got := series("xpfilterd_skimmed_bytes_total", "dead"); got < len(catalog)-8<<10 || got >= len(catalog) {
		t.Errorf("dead: skimmed_bytes_total = %d of %d bytes, want all but the first few KiB", got, len(catalog))
	}
	if got := series("xpfilterd_skimmed_bytes_total", "open"); got != 0 {
		t.Errorf("open: skimmed_bytes_total = %d, want 0", got)
	}
}

// TestMetricsGroupProbes: xpfilterd_predicate_group_probes_total counts the
// values a tenant's predicate groups resolved — one per candidate value, not
// one per subscriber — summed over its documents.
func TestMetricsGroupProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedSubs(t, ts.URL, "thresholds", []SubInfo{
		{ID: "low", Query: "/catalog/item[priority > 1]"},
		{ID: "mid", Query: "/catalog/item[priority > 4]"},
		{ID: "high", Query: "/catalog/item[priority > 7]"},
	})
	seedSubs(t, ts.URL, "plain", []SubInfo{{ID: "any", Query: "/catalog/item/priority"}})
	catalog := []byte("<catalog><item><priority>0</priority></item><item><priority>5</priority></item><item><priority>x</priority></item></catalog>")
	for _, tenant := range []string{"thresholds", "thresholds", "plain"} {
		if _, r := postMatch(t, ts.URL, tenant, catalog, false); r.status != http.StatusOK {
			t.Fatalf("%s: status %d", tenant, r.status)
		}
	}
	body := string(do(t, "GET", ts.URL+"/metrics", nil).body)
	for tenant, want := range map[string]string{"thresholds": "6", "plain": "0"} {
		if line := fmt.Sprintf("xpfilterd_predicate_group_probes_total{tenant=%q} %s\n", tenant, want); !strings.Contains(body, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestHealthz pins the liveness answer.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if r := do(t, "GET", ts.URL+"/healthz", nil); r.status != http.StatusOK {
		t.Fatalf("healthz: %d", r.status)
	}
}

// TestVersionFlagSmoke covers the -version plumbing the binaries share.
func TestVersionFlagSmoke(t *testing.T) {
	// The binaries print buildinfo.String; its own unit test pins the
	// format. Here we only assert the server package does not interfere
	// with flag registration (RegisterFlags on a fresh FlagSet).
	var cfg Config
	fs := newFlagSet()
	cfg.RegisterFlags(fs)
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-on-limit", "abstain"}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Finish(); err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:0" || cfg.DefaultLimits.Policy != streamxpath.LimitAbstain {
		t.Fatalf("parsed config: %+v", cfg)
	}
	var bad Config
	fs2 := newFlagSet()
	bad.RegisterFlags(fs2)
	if err := fs2.Parse([]string{"-on-limit", "nope"}); err != nil {
		t.Fatal(err)
	}
	if err := bad.Finish(); err == nil {
		t.Fatal("Finish accepted -on-limit nope")
	}
}

// TestMatchShortBody: a buffered body that ends before its declared
// Content-Length is a 400 bad_body, read into a pooled buffer or not.
func TestMatchShortBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seedTenant(t, ts.URL, "short")
	for _, declared := range []int{64, maxPooledBody + 1} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/tenants/short/match HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n<news><item/>", declared)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		r, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("Content-Length %d: %v", declared, err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		conn.Close()
		if got := (resp{status: r.StatusCode, body: raw}); got.status != http.StatusBadRequest || errCode(t, got) != "bad_body" {
			t.Fatalf("Content-Length %d: status %d: %s", declared, got.status, raw)
		}
	}
}

// TestMatchBodiesDoNotMix: the buffered path reads bodies into pooled
// buffers and hands each back when its match returns. Two tenants posting
// at once must each get fragments of their own documents only — under -race
// a buffer handed back while anything still read it would also be a reported
// race.
func TestMatchBodiesDoNotMix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tenants := []string{"left", "right"}
	for _, tn := range tenants {
		r := do(t, "PUT", ts.URL+"/v1/tenants/"+tn+"/subscriptions/who",
			strings.NewReader(`{"query": "/doc/owner", "extract": true}`))
		if r.status != http.StatusCreated {
			t.Fatalf("PUT subscription for %s: status %d: %s", tn, r.status, r.body)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		tn := tenants[g%2]
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Documents of varying length, so the buffers change hands
				// between sizes as well as between tenants.
				want := fmt.Sprintf("<owner>%s-%d-%d</owner>", tn, g, i)
				doc := "<doc>" + strings.Repeat("<pad/>", 20*(i%50)) + want + "</doc>"
				r, err := http.Post(ts.URL+"/v1/tenants/"+tn+"/match", "application/xml", strings.NewReader(doc))
				if err != nil {
					t.Errorf("%s: %v", tn, err)
					return
				}
				var mr matchResponse
				err = json.NewDecoder(r.Body).Decode(&mr)
				r.Body.Close()
				if err != nil || r.StatusCode != http.StatusOK {
					t.Errorf("%s: document %d: status %d, %v", tn, i, r.StatusCode, err)
					return
				}
				if got := mr.Fragments["who"]; got != want {
					t.Errorf("%s: document %d: fragment %q, want %q", tn, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMatchEventPayloadIsMarshal pins the webhook body a delivery builds —
// the head encoded when the hook was set, then the seq — byte for byte to
// json.Marshal of the whole event, for names and queries json.Marshal
// escapes (HTML characters, quotes, backslashes, control and non-ASCII
// characters, invalid UTF-8) and seqs at both ends of the range.
func TestMatchEventPayloadIsMarshal(t *testing.T) {
	names := []string{"t", "<a&b>", `q"uo\te`, "naïve/日本", "line\nbreak\u2028", "bad\xffutf8"}
	queries := []string{"/news/item", `/a[b = "x<y>&z"]`, "//item[keyword = 'é']"}
	for _, tenant := range names {
		for _, id := range names {
			for _, q := range queries {
				head := matchEventHead(tenant, id, q)
				for _, seq := range []int64{0, 1, 42, math.MaxInt64} {
					want, err := json.Marshal(matchEvent{Event: "match", Tenant: tenant, Subscription: id, Query: q, Seq: seq})
					if err != nil {
						t.Fatal(err)
					}
					if got := matchEventPayload(head, seq); !bytes.Equal(got, want) {
						t.Errorf("tenant %q, subscription %q, query %q, seq %d:\n got  %s\n want %s", tenant, id, q, seq, got, want)
					}
				}
			}
		}
	}
}
