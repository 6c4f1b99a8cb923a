package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"streamxpath"
)

// markerDoc builds a news document whose only matching item carries a
// per-caller marker in its keyword text and whose length is unique to
// the caller (the <pad> run), so a response's fragment and byte
// accounting identify exactly which request produced it.
func markerDoc(g, i int) ([]byte, string) {
	marker := fmt.Sprintf("doc-%d-%d", g, i)
	pad := strings.Repeat("x", 16*(g+1)+i%7)
	doc := fmt.Sprintf(
		`<news><item><keyword>%s</keyword><pad>%s</pad></item></news>`, marker, pad)
	want := fmt.Sprintf(`<item><keyword>%s</keyword><pad>%s</pad></item>`, marker, pad)
	return []byte(doc), want
}

// TestConcurrentIngestPerCallAttribution is the tenant-concurrency
// acceptance test: many goroutines POST distinct documents to ONE
// tenant simultaneously (ingest holds only the read side of the tenant
// lock), and every response must carry its own document's fragment and
// its own document's byte accounting — not another in-flight call's.
// Run with -race this also proves the shared engine access is sound.
func TestConcurrentIngestPerCallAttribution(t *testing.T) {
	reg := NewRegistry(TenantConfig{}, NewMetrics(), nil)
	defer reg.Close()
	tn, err := reg.GetOrCreate("hammer")
	if err != nil {
		t.Fatal(err)
	}
	// An extraction subscription every document matches (each with a
	// different subtree), plus a descendant subscription that keeps the
	// set live to the last byte so chunked accounting covers the whole
	// document.
	if _, err := tn.PutSubscription("kw", "//item[keyword]", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.PutSubscription("pad", "//pad", false, nil); err != nil {
		t.Fatal(err)
	}

	goroutines, iters := 8, 40
	if testing.Short() {
		goroutines, iters = 4, 10
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc, want := markerDoc(g, i)
				var res MatchResult
				var err error
				if i%2 == 0 {
					res, err = tn.MatchBuffered(doc)
				} else {
					res, err = tn.MatchStream(bytes.NewReader(doc))
				}
				if err != nil {
					errc <- fmt.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if got := res.Fragments["kw"]; got != want {
					errc <- fmt.Errorf("g%d i%d: fragment attributed to wrong call:\n  got  %q\n  want %q", g, i, got, want)
					return
				}
				if res.Stats.BytesRead != int64(len(doc)) {
					errc <- fmt.Errorf("g%d i%d: BytesRead = %d, want %d (own document)",
						g, i, res.Stats.BytesRead, len(doc))
					return
				}
				if res.Abstained || res.Stats.Abstained {
					errc <- fmt.Errorf("g%d i%d: spurious abstain flag from a concurrent call", g, i)
					return
				}
				if len(res.Matched) != 2 {
					errc <- fmt.Errorf("g%d i%d: matched = %v, want [kw pad]", g, i, res.Matched)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentIngestHTTPAttribution runs the same per-call
// attribution check over the full HTTP stack: two goroutines stream
// distinct documents into one tenant through /match and verify each
// JSON response names its own document's fragment and stats.
func TestConcurrentIngestHTTPAttribution(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	envelope := `{"query": "//item[keyword]", "extract": true}`
	if r := putJSON(t, ts.URL, "dual", "kw", envelope); r.status != 201 {
		t.Fatalf("PUT subscription: %d: %s", r.status, r.body)
	}
	if r := do(t, "PUT", ts.URL+"/v1/tenants/dual/subscriptions/pad",
		strings.NewReader("//pad")); r.status != 201 {
		t.Fatalf("PUT subscription: %d", r.status)
	}

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc, want := markerDoc(g, i)
				mr, r := postMatch(t, ts.URL, "dual", doc, i%2 == 1)
				if r.status != 200 {
					errc <- fmt.Errorf("g%d i%d: status %d: %s", g, i, r.status, r.body)
					return
				}
				if got := mr.Fragments["kw"]; got != want {
					errc <- fmt.Errorf("g%d i%d: fragment attributed to wrong request:\n  got  %q\n  want %q", g, i, got, want)
					return
				}
				if mr.Stats.BytesRead != int64(len(doc)) {
					errc <- fmt.Errorf("g%d i%d: BytesRead = %d, want %d", g, i, mr.Stats.BytesRead, len(doc))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentIngestAbstainAttribution: one goroutine streams
// oversized documents that abstain under the tenant's byte budget
// while another streams small documents that never breach it — the
// small caller must never observe the big caller's abstain flag (the
// regression the per-call MatchResult flags exist to prevent).
func TestConcurrentIngestAbstainAttribution(t *testing.T) {
	reg := NewRegistry(TenantConfig{}, NewMetrics(), nil)
	defer reg.Close()
	tn, err := reg.Create("mixed", TenantConfig{Limits: streamxpath.Limits{
		MaxDocBytes: 4096,
		Policy:      streamxpath.LimitAbstain,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.PutSubscription("kw", "//item[keyword]", true, nil); err != nil {
		t.Fatal(err)
	}

	small, wantSmall := markerDoc(0, 0)
	big := []byte("<news><item><keyword>big</keyword><pad>" +
		strings.Repeat("y", 8192) + "</pad></item></news>")

	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			res, err := tn.MatchStream(bytes.NewReader(big))
			if err != nil {
				errc <- fmt.Errorf("big %d: %v", i, err)
				return
			}
			if !res.Abstained {
				errc <- fmt.Errorf("big %d: oversized document did not abstain", i)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			res, err := tn.MatchStream(bytes.NewReader(small))
			if err != nil {
				errc <- fmt.Errorf("small %d: %v", i, err)
				return
			}
			if res.Abstained || res.Stats.Abstained {
				errc <- fmt.Errorf("small %d: inherited a concurrent call's abstain flag", i)
				return
			}
			if got := res.Fragments["kw"]; got != wantSmall {
				errc <- fmt.Errorf("small %d: fragment = %q, want %q", i, got, wantSmall)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestResultIsThisCallsOwn is the server leg of the library test of the
// same name: under concurrent Tenant.MatchBuffered every response's memory
// accounting is its own request's — documents of different depth are told
// apart by res.Mem.MaxDepth — and xpfilterd_events_total, which sums
// res.Mem.Events, comes to exactly what a sequential FilterSet counts for
// the same documents.
func TestResultIsThisCallsOwn(t *testing.T) {
	metrics := NewMetrics()
	reg := NewRegistry(TenantConfig{}, metrics, nil)
	defer reg.Close()
	tn, err := reg.GetOrCreate("own")
	if err != nil {
		t.Fatal(err)
	}
	seq := streamxpath.NewFilterSet()
	// "never" keeps a document undecided to its last byte, so every event
	// of it is dispatched and counted.
	for id, q := range map[string]string{"pad": "//pad", "never": "//never"} {
		if _, err := tn.PutSubscription(id, q, false, nil); err != nil {
			t.Fatal(err)
		}
		if err := seq.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	goroutines, iters := 4, 100
	if testing.Short() {
		iters = 25
	}
	docs := make([][]byte, goroutines)
	want := make([]streamxpath.MemStats, goroutines)
	total := 0
	for g := range docs {
		depth := 5 + 7*g
		docs[g] = []byte("<news><pad>" + strings.Repeat("x", 64*(g+1)) + "</pad>" +
			strings.Repeat("<d>", depth) + strings.Repeat("</d>", depth) + "</news>")
		res, err := seq.MatchBytesResult(docs[g])
		if err != nil {
			t.Fatal(err)
		}
		if want[g] = res.MemStats; want[g].MaxDepth != depth+1 {
			t.Fatalf("document %d: sequential MaxDepth = %d, want %d", g, want[g].MaxDepth, depth+1)
		}
		total += iters * want[g].Events
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := tn.MatchBuffered(docs[g])
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if res.Mem.MaxDepth != want[g].MaxDepth || res.Mem.Events != want[g].Events {
					t.Errorf("g%d i%d: another request's accounting: depth %d events %d, own document has depth %d events %d",
						g, i, res.Mem.MaxDepth, res.Mem.Events, want[g].MaxDepth, want[g].Events)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var exposition bytes.Buffer
	metrics.WritePrometheus(&exposition, reg)
	_, rest, ok := strings.Cut(exposition.String(), `xpfilterd_events_total{tenant="own"} `)
	if !ok {
		t.Fatal("/metrics has no xpfilterd_events_total for the tenant")
	}
	line, _, _ := strings.Cut(rest, "\n")
	if got, err := strconv.Atoi(line); err != nil || got != total {
		t.Fatalf("xpfilterd_events_total = %q (%v), want %d: the sum of the documents' own event counts", line, err, total)
	}
}
