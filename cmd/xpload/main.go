// Command xpload is the load harness for xpfilterd: it seeds a tenant
// with standing subscriptions, hammers the ingest endpoint from N
// concurrent clients over a generated news-feed corpus — mixing
// buffered (Content-Length) and chunked (streaming) bodies — and
// reports docs/s, latency percentiles, and the error count, optionally
// writing the report to a JSON file.
//
// Usage:
//
//	xpload -addr 127.0.0.1:8080 -clients 64 -requests 5000
//	xpload -addr $(cat /tmp/xpfilterd.addr) -o load.json
//
// With -webhook the harness also measures the outbound delivery path:
// it runs an in-process webhook receiver, registers the subscriptions
// with a callback pointing at it, and reports how many deliveries (and
// payload bytes) arrived once the queue settles. Adding -extract
// registers the subscriptions with fragment extraction, so each
// delivery carries the matched subtree as its XML body and the
// delivered_bytes_per_sec figure measures content-based routing
// throughput rather than envelope chatter.
//
// With -sink the harness is instead a standalone fault-injectable
// webhook receiver for end-to-end scripts: it answers POST / with 200
// (after -sink-fail-first injected 500s), reports its counters on
// GET /stats, replays the last delivery verbatim (body and
// Content-Type) on GET /last — so scripts can assert an extraction
// webhook carried the matched subtree itself — and runs until SIGTERM:
//
//	xpload -sink -addr 127.0.0.1:0 -addr-file /tmp/sink.addr -sink-fail-first 1
//
// The harness exits non-zero if any request failed, so it doubles as
// the CI end-to-end assertion that a drained daemon lost no verdicts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamxpath/internal/buildinfo"
	"streamxpath/internal/workload"
)

// subTemplates are cycled to build the standing subscription set; all
// are rooted to match (or provably not match) the news-feed corpus, so
// the run exercises positive verdicts, negative dead-state exits, and
// predicate evaluation together.
var subTemplates = []string{
	"/news/item",
	"/news/item/title",
	"/news//p",
	"/news/item[priority > %d]",
	`/news/item[keyword = "go"]`,
	"/news/*/keyword",
	"/feed/entry", // never matches: negative early exit at the root
	"//item[keyword]/body",
}

type result struct {
	latency time.Duration
	err     error
}

func main() {
	var (
		addr     = flag.String("addr", "", "xpfilterd address (host:port; required)")
		tenant   = flag.String("tenant", "xpload", "tenant namespace to create and hammer")
		clients  = flag.Int("clients", 64, "concurrent client goroutines")
		requests = flag.Int("requests", 5000, "total documents to POST")
		subs     = flag.Int("subs", 32, "standing subscriptions to register")
		docs     = flag.Int("docs", 32, "distinct corpus documents to generate")
		items    = flag.Int("items", 40, "news items per corpus document")
		chunked  = flag.Float64("chunked", 0.25, "fraction of requests sent as chunked/streaming bodies")
		seed     = flag.Int64("seed", 1, "corpus RNG seed")
		out      = flag.String("o", "", "write the report as JSON to this file")
		keep     = flag.Bool("keep", false, "leave the tenant and its subscriptions in place afterwards")
		version  = flag.Bool("version", false, "print version and exit")

		webhook     = flag.Bool("webhook", false, "measure webhook delivery: run an in-process receiver and subscribe with callbacks")
		webhookWait = flag.Duration("webhook-wait", 10*time.Second, "max wait for the delivery queue to settle after the hammer")
		extract     = flag.Bool("extract", false, "register subscriptions with fragment extraction: match responses and webhook bodies carry the matched subtree")

		sinkMode      = flag.Bool("sink", false, "run as a standalone webhook receiver instead of a load generator")
		sinkFailFirst = flag.Int("sink-fail-first", 0, "sink mode: answer 500 to the first N requests (forces retries)")
		addrFile      = flag.String("addr-file", "", "sink mode: write the bound address to this file")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("xpload"))
		return
	}
	if *sinkMode {
		runSink(*addr, *addrFile, *sinkFailFirst)
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "xpload: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	base := "http://" + strings.TrimPrefix(*addr, "http://")

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *clients * 2,
			MaxIdleConnsPerHost: *clients * 2,
		},
	}

	// Corpus: serialized random news feeds. Generated up front so the
	// hammer loop measures the server, not the generator.
	rng := rand.New(rand.NewSource(*seed))
	corpus := make([][]byte, *docs)
	for i := range corpus {
		xml, err := workload.RandomNewsFeed(rng, *items).XML()
		if err != nil {
			fatal(fmt.Errorf("generating corpus: %w", err))
		}
		corpus[i] = []byte(xml)
	}

	// Webhook mode: an in-process receiver counts what the daemon
	// delivers back — records and payload bytes, so extraction runs
	// report delivered bytes/s (the content-based-routing throughput).
	var received, receivedBytes atomic.Int64
	var hookURL string
	if *webhook {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(fmt.Errorf("webhook receiver listen: %w", err))
		}
		defer ln.Close()
		go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := io.Copy(io.Discard, r.Body)
			received.Add(1)
			receivedBytes.Add(n)
			w.WriteHeader(http.StatusOK)
		}))
		hookURL = "http://" + ln.Addr().String() + "/hook"
	}

	// Seed the tenant and its subscriptions.
	mustDo(client, "PUT", base+"/v1/tenants/"+*tenant, nil, http.StatusCreated, http.StatusConflict)
	for i := 0; i < *subs; i++ {
		tmpl := subTemplates[i%len(subTemplates)]
		q := tmpl
		if strings.Contains(tmpl, "%d") {
			q = fmt.Sprintf(tmpl, i%10)
		}
		body := q
		if hookURL != "" || *extract {
			fields := map[string]any{"query": q}
			if hookURL != "" {
				fields["webhook"] = map[string]any{"url": hookURL}
			}
			if *extract {
				fields["extract"] = true
			}
			envelope, err := json.Marshal(fields)
			if err != nil {
				fatal(err)
			}
			body = string(envelope)
		}
		mustDo(client, "PUT", fmt.Sprintf("%s/v1/tenants/%s/subscriptions/sub-%04d", base, *tenant, i),
			strings.NewReader(body), http.StatusCreated, http.StatusOK)
	}
	if !*keep {
		defer mustDo(client, "DELETE", base+"/v1/tenants/"+*tenant, nil, http.StatusOK)
	}

	// Hammer: requests are striped over the clients; each client walks
	// the corpus round-robin, streaming every chunkEvery-th body.
	matchURL := base + "/v1/tenants/" + *tenant + "/match"
	chunkEvery := 0
	if *chunked > 0 {
		chunkEvery = int(1 / *chunked)
	}
	perClient := *requests / *clients
	if perClient == 0 {
		perClient = 1
	}
	total := perClient * *clients
	results := make([]result, total)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := c*perClient + i
				doc := corpus[n%len(corpus)]
				stream := chunkEvery > 0 && n%chunkEvery == 0
				t0 := time.Now()
				err := post(client, matchURL, doc, stream)
				results[n] = result{latency: time.Since(t0), err: err}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Webhook mode: let the outbound queue settle — stop once the
	// received count holds still for a second, or at -webhook-wait.
	var webhooksReceived, webhookBytes int64
	if *webhook {
		deadline := time.Now().Add(*webhookWait)
		last, lastGrew := received.Load(), time.Now()
		for time.Now().Before(deadline) && time.Since(lastGrew) < time.Second {
			time.Sleep(100 * time.Millisecond)
			if n := received.Load(); n != last {
				last, lastGrew = n, time.Now()
			}
		}
		webhooksReceived = received.Load()
		webhookBytes = receivedBytes.Load()
	}

	// Aggregate.
	var errs int
	var firstErr error
	var bytesSent int64
	lats := make([]time.Duration, 0, total)
	for i, r := range results {
		if r.err != nil {
			errs++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		bytesSent += int64(len(corpus[i%len(corpus)]))
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1e3
	}

	report := map[string]any{
		"captured":      time.Now().UTC().Format(time.RFC3339),
		"addr":          *addr,
		"tenant":        *tenant,
		"clients":       *clients,
		"requests":      total,
		"subscriptions": *subs,
		"chunked_frac":  *chunked,
		"errors":        errs,
		"elapsed_s":     elapsed.Seconds(),
		"docs_per_sec":  float64(total-errs) / elapsed.Seconds(),
		"mb_per_sec":    float64(bytesSent) / elapsed.Seconds() / 1e6,
		"p50_ms":        pct(0.50),
		"p90_ms":        pct(0.90),
		"p99_ms":        pct(0.99),
	}
	if *webhook {
		report["webhooks_received"] = webhooksReceived
		report["webhooks_per_sec"] = float64(webhooksReceived) / elapsed.Seconds()
		report["delivered_bytes"] = webhookBytes
		report["delivered_bytes_per_sec"] = float64(webhookBytes) / elapsed.Seconds()
		report["extract"] = *extract
	}
	fmt.Printf("xpload: %d docs, %d clients, %d subs: %.0f docs/s, %.1f MB/s, p50 %.2fms p90 %.2fms p99 %.2fms, %d errors\n",
		total, *clients, *subs, report["docs_per_sec"], report["mb_per_sec"],
		report["p50_ms"], report["p90_ms"], report["p99_ms"], errs)
	if *webhook {
		fmt.Printf("xpload: %d webhook deliveries received (%.0f/s, %.2f MB/s delivered over the hammer window)\n",
			webhooksReceived, report["webhooks_per_sec"],
			float64(webhookBytes)/elapsed.Seconds()/1e6)
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "xpload: first error: %v\n", firstErr)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("xpload: wrote %s\n", *out)
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// chunkedBody hides the concrete reader type so net/http cannot learn
// the length and must send Transfer-Encoding: chunked — the streaming
// ingest path on the server side.
type chunkedBody struct{ io.Reader }

// post sends one document, buffered or chunked, and verifies the
// response is a well-formed verdict.
func post(client *http.Client, url string, doc []byte, stream bool) error {
	var body io.Reader = bytes.NewReader(doc)
	if stream {
		body = chunkedBody{bytes.NewReader(doc)}
	}
	req, err := http.NewRequest("POST", url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var verdict struct {
		Matched *[]string `json:"matched"`
	}
	if err := json.Unmarshal(raw, &verdict); err != nil {
		return fmt.Errorf("bad verdict body: %w", err)
	}
	if verdict.Matched == nil {
		return fmt.Errorf("verdict missing matched ids: %s", bytes.TrimSpace(raw))
	}
	return nil
}

// mustDo performs a setup/teardown request, dying unless the status is
// one of want.
func mustDo(client *http.Client, method, url string, body io.Reader, want ...int) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, w := range want {
		if resp.StatusCode == w {
			return
		}
	}
	fatal(fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw)))
}

// runSink serves the standalone webhook receiver: POST anything gets a
// 200 — except the first failFirst requests, which get an injected 500
// so end-to-end scripts can force (and then observe) a retry. GET
// /stats reports the counters; GET /last replays the most recent
// delivered body with its original Content-Type, letting scripts
// assert what the daemon actually POSTed (for extraction
// subscriptions: the matched subtree, not a JSON envelope). Runs until
// SIGINT/SIGTERM, then prints the final counters as JSON.
func runSink(addr, addrFile string, failFirst int) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var requests, injected, delivered atomic.Int64
	var lastMu sync.Mutex
	var lastBody []byte
	var lastCT string
	statsJSON := func() []byte {
		buf, _ := json.Marshal(map[string]int64{
			"requests":  requests.Load(),
			"injected":  injected.Load(),
			"delivered": delivered.Load(),
		})
		return append(buf, '\n')
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(statsJSON())
	})
	mux.HandleFunc("GET /last", func(w http.ResponseWriter, _ *http.Request) {
		lastMu.Lock()
		body, ct := lastBody, lastCT
		lastMu.Unlock()
		if body == nil {
			http.Error(w, "no delivery received yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", ct)
		w.Write(body)
	})
	mux.HandleFunc("POST /", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		io.Copy(io.Discard, r.Body)
		n := requests.Add(1)
		if n <= int64(failFirst) {
			injected.Add(1)
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		delivered.Add(1)
		lastMu.Lock()
		lastBody, lastCT = body, r.Header.Get("Content-Type")
		lastMu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("sink listen %s: %w", addr, err))
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(fmt.Errorf("writing addr-file: %w", err))
		}
	}
	fmt.Fprintf(os.Stderr, "xpload: sink listening on %s (fail-first %d)\n", ln.Addr(), failFirst)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	os.Stdout.Write(statsJSON())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xpload: %v\n", err)
	os.Exit(1)
}
