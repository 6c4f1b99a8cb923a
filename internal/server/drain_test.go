package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newFlagSet() *flag.FlagSet {
	return flag.NewFlagSet("test", flag.ContinueOnError)
}

// TestGracefulDrain is the lifecycle acceptance test: Shutdown with an
// in-flight streaming match lets that match run to its verdict while
// new requests are answered 503 with the typed "draining" code, and
// both Serve and Shutdown return cleanly.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{
		Addr:         "127.0.0.1:0",
		DrainGrace:   2 * time.Second,
		DrainTimeout: 15 * time.Second,
	}
	srv := New(cfg, discardLogger())
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	base := "http://" + srv.Addr()

	// A subscription that cannot decide early: the descendant axis
	// never dies and the predicate stays unsatisfied until the document
	// provides it, so the engine reads the body to the end.
	if r := do(t, "PUT", base+"/v1/tenants/d/subscriptions/pending", strings.NewReader("//item[marker]")); r.status != http.StatusCreated {
		t.Fatalf("seed: status %d: %s", r.status, r.body)
	}

	// Start a streaming match and park it mid-document: the pipe write
	// only returns once the server has consumed the prefix, so after it
	// the request is provably in-flight.
	pr, pw := io.Pipe()
	type outcome struct {
		mr   matchResponse
		code int
		err  error
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/tenants/d/match", "application/xml", pr)
		if err != nil {
			resc <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var mr matchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &mr); err != nil {
				resc <- outcome{err: fmt.Errorf("decoding: %w: %s", err, raw)}
				return
			}
		}
		resc <- outcome{mr: mr, code: resp.StatusCode}
	}()
	if _, err := pw.Write([]byte("<news><item><title>x</title></item>")); err != nil {
		t.Fatal(err)
	}
	// The pipe write only proves the transport sent bytes; wait until
	// the handler is actually counted in flight (it is the only request)
	// so the drain gate cannot race ahead of it.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if srv.reg.Metrics().inflight.Load() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("match request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Begin the drain and observe the 503 window.
	shutdownErr := make(chan error, 1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(shutdownCtx) }()

	deadline := time.Now().Add(cfg.DrainGrace)
	saw503 := false
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/healthz")
		if err != nil {
			break // grace expired and the listener closed; too late
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusServiceUnavailable {
			if !bytes.Contains(body, []byte("draining")) {
				t.Fatalf("503 body missing draining code: %s", body)
			}
			saw503 = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !saw503 {
		t.Fatal("never observed a 503 during the drain grace window")
	}
	// A new ingest request is refused the same way.
	if resp, err := http.Post(base+"/v1/tenants/d/match", "application/xml", strings.NewReader("<a></a>")); err == nil {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("new request during drain: status %d: %s", resp.StatusCode, raw)
		}
	}

	// Complete the in-flight document: its verdict must come back 200
	// despite the drain — no lost verdicts.
	if _, err := pw.Write([]byte("<item><marker>hit</marker></item></news>")); err != nil {
		t.Fatalf("finishing in-flight body: %v", err)
	}
	pw.Close()
	out := <-resc
	if out.err != nil {
		t.Fatalf("in-flight match failed: %v", out.err)
	}
	if out.code != http.StatusOK {
		t.Fatalf("in-flight match: status %d", out.code)
	}
	if len(out.mr.Matched) != 1 || out.mr.Matched[0] != "pending" {
		t.Fatalf("in-flight verdict %v, want [pending]", out.mr.Matched)
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestConcurrentCRUDAndIngest hammers one tenant with subscription
// churn, buffered and chunked ingest, listings, and metric scrapes from
// many goroutines — the -race acceptance criterion. A second tenant
// runs untouched traffic concurrently to verify tenant independence.
// Every match must answer 200: a subscription change that reached an
// engine mid-document would abandon that document (engine.Add/Remove
// refuse its remaining events), so a pass also pins that the matchers
// make mutations wait for the documents in flight.
func TestConcurrentCRUDAndIngest(t *testing.T) {
	srv := New(Config{}, discardLogger())
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Registry().Close()
	}()
	seedTenant(t, ts.URL, "churn")
	seedTenant(t, ts.URL, "steady")

	docs := corpusDocs(t)
	iters := 60
	if testing.Short() {
		iters = 15
	}
	client := &http.Client{}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	req := func(method, url string, body io.Reader, accept ...int) {
		r, err := http.NewRequest(method, url, body)
		if err != nil {
			report(err)
			return
		}
		resp, err := client.Do(r)
		if err != nil {
			report(err)
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, a := range accept {
			if resp.StatusCode == a {
				return
			}
		}
		report(fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, raw))
	}

	// Writer: churn one subscription id with alternating queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			q := "/news/item"
			if i%2 == 1 {
				q = "//item[keyword]"
			}
			req("PUT", ts.URL+"/v1/tenants/churn/subscriptions/flapping", strings.NewReader(q),
				http.StatusCreated, http.StatusOK)
			if i%3 == 2 {
				req("DELETE", ts.URL+"/v1/tenants/churn/subscriptions/flapping", nil,
					http.StatusOK, http.StatusNotFound)
			}
		}
	}()
	// Ingesters on the churning tenant, buffered and chunked.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc := docs[(g+i)%len(docs)]
				var body io.Reader = bytes.NewReader(doc)
				if i%2 == 1 {
					body = chunkedReader{bytes.NewReader(doc)}
				}
				req("POST", ts.URL+"/v1/tenants/churn/match", body, http.StatusOK)
			}
		}(g)
	}
	// Steady tenant traffic plus listings and scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			req("POST", ts.URL+"/v1/tenants/steady/match", bytes.NewReader(docs[i%len(docs)]), http.StatusOK)
			req("GET", ts.URL+"/v1/tenants/churn/subscriptions", nil, http.StatusOK)
			req("GET", ts.URL+"/metrics", nil, http.StatusOK)
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
