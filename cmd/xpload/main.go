// Command xpload drives xpfilterd end to end: it seeds a tenant with
// standing subscriptions and posts a generated news-feed corpus from N
// concurrent clients — mixing buffered (Content-Length) and chunked
// (streaming) bodies — checking that every response is a verdict. It
// measures nothing: serving throughput is the benchmark's serve workload
// (bench/run.sh --workload serve).
//
// Usage:
//
//	xpload -addr 127.0.0.1:8080 -clients 64 -requests 5000
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

func main() {
	var (
		addr     = flag.String("addr", "", "xpfilterd address (host:port; required)")
		tenant   = flag.String("tenant", "xpload", "tenant namespace to create and post to")
		clients  = flag.Int("clients", 64, "concurrent client goroutines")
		requests = flag.Int("requests", 5000, "total documents to POST")
		subs     = flag.Int("subs", 32, "standing subscriptions to register")
		docs     = flag.Int("docs", 32, "distinct corpus documents to generate")
		items    = flag.Int("items", 40, "news items per corpus document")
		chunked  = flag.Float64("chunked", 0.25, "fraction of requests sent as chunked/streaming bodies")
		seed     = flag.Int64("seed", 1, "corpus RNG seed")
		keep     = flag.Bool("keep", false, "leave the tenant and its subscriptions in place afterwards")
		version  = flag.Bool("version", false, "print version and exit")

		sinkMode      = flag.Bool("sink", false, "run as a standalone webhook receiver instead of posting documents")
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

	rng := rand.New(rand.NewSource(*seed))
	corpus := make([][]byte, *docs)
	for i := range corpus {
		xml, err := workload.RandomNewsFeed(rng, *items).XML()
		if err != nil {
			fatal(fmt.Errorf("generating corpus: %w", err))
		}
		corpus[i] = []byte(xml)
	}

	// Seed the tenant and its subscriptions.
	mustDo(client, "PUT", base+"/v1/tenants/"+*tenant, nil, http.StatusCreated, http.StatusConflict)
	for i := 0; i < *subs; i++ {
		q := subTemplates[i%len(subTemplates)]
		if strings.Contains(q, "%d") {
			q = fmt.Sprintf(q, i%10)
		}
		mustDo(client, "PUT", fmt.Sprintf("%s/v1/tenants/%s/subscriptions/sub-%04d", base, *tenant, i),
			strings.NewReader(q), http.StatusCreated, http.StatusOK)
	}
	if !*keep {
		defer mustDo(client, "DELETE", base+"/v1/tenants/"+*tenant, nil, http.StatusOK)
	}

	// Requests are striped over the clients; each client walks the corpus
	// round-robin, streaming every chunkEvery-th body.
	matchURL := base + "/v1/tenants/" + *tenant + "/match"
	chunkEvery := 0
	if *chunked > 0 {
		chunkEvery = int(1 / *chunked)
	}
	perClient := max(*requests / *clients, 1)
	total := perClient * *clients
	errs := make([]error, total)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := c*perClient + i
				stream := chunkEvery > 0 && n%chunkEvery == 0
				errs[n] = post(client, matchURL, corpus[n%len(corpus)], stream)
			}
		}(c)
	}
	wg.Wait()

	failed := 0
	for _, err := range errs {
		if err != nil {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "xpload: first error: %v\n", err)
			}
			failed++
		}
	}
	fmt.Printf("xpload: %d docs, %d clients, %d subs, %d errors\n", total, *clients, *subs, failed)
	if failed > 0 {
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
