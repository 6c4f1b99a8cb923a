package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamxpath/internal/delivery"
	"streamxpath/internal/server"
)

// tenantName is the one tenant every workload's server holds.
const tenantName = "bench"

// sink is the in-process webhook receiver: it answers 200 and counts what
// arrived, fragment bytes apart from JSON match events.
type sink struct {
	srv      *http.Server
	url      string
	done     chan struct{}
	posts    atomic.Int64
	xmlBytes atomic.Int64
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	s := &sink{url: "http://" + ln.Addr().String() + "/", done: make(chan struct{})}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body) // a short body shows as a byte-count mismatch
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/xml") {
			s.xmlBytes.Add(n)
		}
		s.posts.Add(1)
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed at close
	}()
	return s, nil
}

func (s *sink) close() {
	_ = s.srv.Close() // nothing to flush: the receiver holds no state worth saving
	<-s.done
}

// serveInst is an in-process xpfilterd on a loopback port, its one tenant
// holding the workload's subscriptions, with the webhook sink beside it.
type serveInst struct {
	sp    *spec
	nproc int
	srv   *server.Server
	done  chan error
	sink  *sink
	hc    *http.Client
	base  string // http://host:port/v1/tenants/bench
	ring  *ring
	ops   atomic.Int64 // requests so far; selects document and body framing

	// wantPosts and wantXMLBytes are the deliveries the match responses
	// imply; the sink's totals must reach them.
	wantPosts    atomic.Int64
	wantXMLBytes atomic.Int64
}

// startServe boots the daemon the way cmd/xpfilterd does (text slog handler,
// here into io.Discard), registers the subscriptions over HTTP and sends the
// warm-up pass: every document once with a Content-Length and once chunked.
func startServe(sp *spec) (*serveInst, error) {
	snk, err := startSink()
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	si := &serveInst{
		sp: sp, nproc: nproc, sink: snk, ring: newRing(sp.subs), done: make(chan error, 1),
		srv: server.New(server.Config{
			Addr:    "127.0.0.1:0",
			Workers: nproc,
			// Deep enough that the closed loop, which outruns the
			// delivery workers on a small host, sheds nothing: a shed
			// is a lost delivery and counts as a failed operation.
			DeliveryQueue: 1 << 18,
			DrainTimeout:  30 * time.Second,
		}, slog.New(slog.NewTextHandler(io.Discard, nil))),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc,
			MaxConnsPerHost:     nproc,
		}},
	}
	if err := si.srv.Listen(); err != nil {
		snk.close()
		return nil, err
	}
	go func() { si.done <- si.srv.Serve() }()
	si.base = "http://" + si.srv.Addr() + "/v1/tenants/" + tenantName

	for _, s := range sp.subs {
		if err := si.put(s); err != nil {
			si.close()
			return nil, err
		}
	}
	var buf bytes.Buffer
	for i := 0; i < 2*len(sp.docs); i++ {
		d, chunked := i%len(sp.docs), i >= len(sp.docs)
		if err := si.post(sp.docs[d], chunked, &buf); err != nil {
			si.close()
			return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
		}
		si.check(nil, d, chunked, buf.Bytes())
	}
	return si, nil
}

// close shuts the daemon down gracefully and waits for it.
func (si *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = si.srv.Shutdown(ctx) // a drain that times out tears connections down; nothing to recover here
	<-si.done
	si.hc.CloseIdleConnections()
	si.sink.close()
}

func (si *serveInst) do(method, url string, body io.Reader, buf *bytes.Buffer, want ...int) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	resp, err := si.hc.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, url, err)
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return nil
		}
	}
	return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
}

// put registers one subscription through the API's JSON envelope.
func (si *serveInst) put(s sub) error {
	env := map[string]any{"query": si.sp.queries[s.q], "extract": s.extract}
	if s.hook != hookNone {
		env["webhook"] = map[string]any{"url": si.sink.url}
	}
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	return si.do("PUT", si.base+"/subscriptions/"+s.id, bytes.NewReader(body), &buf, 200, 201)
}

// post sends one document and leaves the response body in buf. A chunked
// request hides the body's length from net/http, which then streams it.
func (si *serveInst) post(doc []byte, chunked bool, buf *bytes.Buffer) error {
	var body io.Reader = bytes.NewReader(doc)
	if chunked {
		body = struct{ io.Reader }{body}
	}
	return si.do("POST", si.base+"/match", body, buf, 200)
}

// check compares one match response with the reference (skipped when orc is
// nil, during warm-up) and books the deliveries it implies: the verdict set
// is exactly the reference's, every matched extract subscription carries a
// fragment, and every fragment equals the reference's subtree.
func (si *serveInst) check(orc *oracle, d int, chunked bool, body []byte) bool {
	var resp struct {
		Matched   []string          `json:"matched"`
		Fragments map[string]string `json:"fragments"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	p, ok, frags := 0, true, 0
	si.ring.each(func(s *sub) bool {
		matched := p < len(resp.Matched) && resp.Matched[p] == s.id
		if matched {
			p++
		}
		if orc != nil && matched != orc.truth[d][s.q] {
			ok = false
		}
		if !matched {
			return true
		}
		frag, has := resp.Fragments[s.id]
		if has {
			frags++
		}
		if has != s.extract || (orc != nil && has && !orc.fragmentOK(d, s.q, chunked, frag)) {
			ok = false
		}
		if s.hook != hookNone {
			si.wantPosts.Add(1)
		}
		if s.hook == hookXML {
			si.wantXMLBytes.Add(int64(len(frag)))
		}
		return true
	})
	return ok && p == len(resp.Matched) && frags == len(resp.Fragments)
}

// request sends the next document of the cycle, three of four with a
// Content-Length and the fourth chunked, and checks the answer.
func (si *serveInst) request(orc *oracle, buf *bytes.Buffer) (bytes int, ok bool) {
	op := int(si.ops.Add(1) - 1)
	d, chunked := op%len(si.sp.docs), op%4 == 3
	doc := si.sp.docs[d]
	if err := si.post(doc, chunked, buf); err != nil {
		return len(doc), false
	}
	return len(doc), si.check(orc, d, chunked, buf.Bytes())
}

// closedRound has nproc connections each send its next request when the
// previous response is read, n requests in all.
func (si *serveInst) closedRound(n int, orc *oracle, tr *tracer, st *e2eStats) {
	var next, failed, sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < si.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for next.Add(1) <= int64(n) {
				t0 := time.Now()
				size, ok := si.request(orc, &buf)
				tr.recordOp(t0, time.Now(), counts{Bytes: int64(size)})
				sent.Add(int64(size))
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	st.docsPerS = append(st.docsPerS, float64(n)/wall)
	st.mbPerS = append(st.mbPerS, float64(sent.Load())/1e6/wall)
	st.attempted += int64(n)
	st.failed += failed.Load()
}

// openRound sends n requests on a fixed schedule of serveRate per second,
// whatever the server does, over the same nproc connections. Each request
// is timed from when it was due, so a stall costs every request queued
// behind it; lag is how late the generator itself sent.
func (si *serveInst) openRound(n int, orc *oracle, tr *tracer, st *e2eStats) (lag99 float64) {
	lat, lag := make([]float64, n), make([]float64, n)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < si.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(i) * time.Second / serveRate)
				sleepUntil(due)
				sent := time.Now()
				size, ok := si.request(orc, &buf)
				end := time.Now()
				tr.recordOp(due, end, counts{Bytes: int64(size)})
				lat[i], lag[i] = us(end.Sub(due)), us(sent.Sub(due))
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st.p50us = append(st.p50us, percentile(lat, 50))
	st.p99us = append(st.p99us, percentile(lat, 99))
	st.attempted += int64(n)
	st.failed += failed.Load()
	return percentile(lag, 99)
}

// sleepUntil blocks the calling thread until t. time.Sleep will not do: an
// idle Go scheduler waits in epoll with a millisecond timeout, so a sleep
// shorter than that overshoots by half a millisecond on average, which at
// this arrival rate is more than a request takes.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the lag is measured either way
	}
}

// mutate replaces the oldest subscription over the API, on one connection,
// and returns the time from the first call to the first match response
// under the new set.
func (si *serveInst) mutate(orc *oracle, st *e2eStats) (ackUs float64, err error) {
	var buf bytes.Buffer
	start := time.Now()
	old, fresh := si.ring.rotate()
	if err := si.do("DELETE", si.base+"/subscriptions/"+old, nil, &buf, 200); err != nil {
		return 0, err
	}
	if err := si.put(fresh); err != nil {
		return 0, err
	}
	_, ok := si.request(orc, &buf)
	ackUs = us(time.Since(start))
	st.attempted++
	if !ok {
		st.failed++
	}
	return ackUs, nil
}

func (si *serveInst) deliveryStats() delivery.Stats {
	return si.srv.Registry().Delivery().Stats(tenantName)
}

// drain waits until every queued delivery has been delivered, dead-lettered
// or abandoned, and returns how long that took.
func (si *serveInst) drain() time.Duration {
	start := time.Now()
	for si.deliveryStats().Outstanding > 0 && time.Since(start) < 30*time.Second {
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// e2e runs phase A (closed loop: throughput), phase B (open loop at
// serveRate: latency), the mutation phase, and then waits for the delivery
// queue to drain.
func (si *serveInst) e2e(ph phase, orc *oracle, tr *tracer) (*e2eStats, error) {
	st := &e2eStats{layer: metrics{}}
	var rss rssPeak
	si.drain() // deliveries of earlier phases are theirs, not this one's
	before := si.deliveryStats()
	posts0, xml0 := si.sink.posts.Load(), si.sink.xmlBytes.Load()
	want0 := si.wantPosts.Load()

	// Queue depth is sampled every 10 ms for as long as requests flow.
	var peak int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if o := si.deliveryStats().Outstanding; o > peak {
					peak = o
				}
			}
		}
	}()

	var m0 runtime.MemStats
	// Collect, and return to the OS what set-up and the reference left
	// idle in the heap: the scavenger returns it on its own schedule, and
	// RSS would measure that schedule (16-24 MB on scan between runs).
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < ph.minRounds || time.Since(start) < ph.budget*4/10; r++ {
		si.closedRound(si.sp.roundOps, orc, tr, st)
		rss.sample()
	}
	var lag []float64
	for r := 0; r < ph.minRounds || time.Since(start) < ph.budget*9/10; r++ {
		lag = append(lag, si.openRound(si.sp.openOps, orc, tr, st))
		rss.sample()
	}
	st.account(&m0)
	var err error
	for r := 0; r < ackRounds && ph.ackOps > 0 && err == nil; r++ {
		acks := make([]float64, 0, ph.ackOps)
		for i := 0; i < ph.ackOps && err == nil; i++ {
			var ack float64
			ack, err = si.mutate(orc, st)
			acks = append(acks, ack)
		}
		st.addAcks(acks)
	}
	drain := si.drain()
	wall := time.Since(start)
	close(stop)
	<-sampled
	if err != nil {
		return nil, err
	}
	rss.sample()
	st.rssMB = rss.mb()

	after := si.deliveryStats()
	l := st.layer
	l.set("gen.sched_lag_p99_us", slices.Min(lag), "us", len(lag))
	l.set("delivery.enqueued", float64(after.Enqueued-before.Enqueued), "count", 0)
	l.set("delivery.attempts", float64(after.Attempts-before.Attempts), "count", 0)
	l.set("delivery.successes", float64(after.Successes-before.Successes), "count", 0)
	l.set("delivery.retries", float64(after.Retries-before.Retries), "count", 0)
	l.set("delivery.sheds", float64(after.Sheds-before.Sheds), "count", 0)
	l.set("delivery.dead_letters", float64(after.DeadLetters-before.DeadLetters), "count", 0)
	l.set("delivery.useful_frac", ratio(float64(after.Successes-before.Successes), float64(after.Attempts-before.Attempts)), "ratio", 0)
	l.set("delivery.attempt_ms_mean", 1000*ratio(after.LatencySeconds-before.LatencySeconds, float64(after.LatencyCount-before.LatencyCount)), "ms", int(after.LatencyCount-before.LatencyCount))
	l.set("delivery.outstanding_peak", float64(peak), "count", 0)
	l.set("delivery.drain_s", drain.Seconds(), "s", 1)
	l.set("delivery.delivered_frac", ratio(float64(si.sink.posts.Load()-posts0), float64(si.wantPosts.Load()-want0)), "ratio", 0)
	l.set("delivery.delivered_mb_per_s", float64(si.sink.xmlBytes.Load()-xml0)/1e6/wall.Seconds(), "MB/s", 0)
	return st, nil
}

// noDelivery books the delivery layer's counters for a workload whose
// subscriptions carry no webhook: nothing is enqueued, so every count is a
// true 0, and a closed loop has no schedule to lag behind.
func noDelivery(l metrics) {
	for _, name := range []string{"delivery.enqueued", "delivery.attempts", "delivery.successes",
		"delivery.retries", "delivery.sheds", "delivery.dead_letters", "delivery.outstanding_peak"} {
		l.set(name, 0, "count", 0)
	}
	l.set("delivery.useful_frac", 0, "ratio", 0)
	l.set("delivery.delivered_frac", 0, "ratio", 0)
	l.set("delivery.attempt_ms_mean", 0, "ms", 0)
	l.set("delivery.drain_s", 0, "s", 0)
	l.set("delivery.delivered_mb_per_s", 0, "MB/s", 0)
	l.set("gen.sched_lag_p99_us", 0, "us", 0)
}

// undelivered is how many webhook POSTs the responses implied and the sink
// never received, after a final drain; a fragment byte total that differs
// counts as one more.
func (si *serveInst) undelivered() int64 {
	si.drain()
	missing := si.wantPosts.Load() - si.sink.posts.Load()
	if missing < 0 {
		missing = -missing
	}
	if si.wantXMLBytes.Load() != si.sink.xmlBytes.Load() {
		missing++
	}
	return missing
}
