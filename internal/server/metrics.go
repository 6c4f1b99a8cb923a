package server

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamxpath"
	"streamxpath/internal/delivery"
)

// Metrics is the daemon's metric store, exposed in Prometheus text
// format by the /metrics handler. It is hand-rolled — counters are
// atomics, the exposition is a sorted walk — so the module stays
// stdlib-only. Counters are cumulative since process start; rates
// (docs/s, early-exit fractions) are derived by the scraper from
// successive samples, which is the Prometheus idiom.
type Metrics struct {
	start time.Time

	mu      sync.Mutex
	tenants map[string]*tenantMetrics
	// httpReqs counts finished requests by method and status code.
	httpReqs map[reqKey]int64
	// httpSecondsSum/httpSecondsCount accumulate request wall time, the
	// classic sum/count pair a scraper turns into a rate-averaged
	// latency.
	httpSecondsSum   float64
	httpSecondsCount int64

	inflight atomic.Int64
}

// reqKey labels one xpfilterd_http_requests_total series.
type reqKey struct {
	method string
	code   int
}

// NewMetrics returns an empty metric store.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		tenants:  make(map[string]*tenantMetrics),
		httpReqs: make(map[reqKey]int64),
	}
}

// tenantMetrics is one tenant's document counters. All fields are
// atomics so the match path never takes the exposition lock.
type tenantMetrics struct {
	docs          atomic.Int64
	docErrors     atomic.Int64
	limitBreaches atomic.Int64
	abstained     atomic.Int64
	events        atomic.Int64
	bytesRead     atomic.Int64
	bytesConsumed atomic.Int64
	skimmedBytes  atomic.Int64
	groupProbes   atomic.Int64
	earlyExitPos  atomic.Int64
	earlyExitNeg  atomic.Int64

	mu      sync.Mutex
	lastMem streamxpath.MemStats
}

// newTenant starts a new tenant's counters, which replace any series
// still held under its name by a deleted tenant that has not finished
// closing.
func (m *Metrics) newTenant(name string) *tenantMetrics {
	tm := &tenantMetrics{}
	m.mu.Lock()
	m.tenants[name] = tm
	m.mu.Unlock()
	return tm
}

// dropTenant forgets a deleted tenant's series, unless a new tenant's
// counters have taken its name.
func (m *Metrics) dropTenant(name string, tm *tenantMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tenants[name] == tm {
		delete(m.tenants, name)
	}
}

// recordDoc folds one match call's outcome into the counters.
func (tm *tenantMetrics) recordDoc(res MatchResult, err error) {
	if tm == nil {
		return
	}
	if err != nil {
		tm.docErrors.Add(1)
		var le *streamxpath.LimitError
		if errors.As(err, &le) {
			tm.limitBreaches.Add(1)
		}
		return
	}
	tm.docs.Add(1)
	tm.events.Add(int64(res.Mem.Events))
	tm.bytesRead.Add(res.Stats.BytesRead)
	tm.bytesConsumed.Add(res.Stats.BytesConsumed)
	tm.skimmedBytes.Add(res.SkimmedBytes)
	tm.groupProbes.Add(int64(res.Mem.GroupProbes))
	if res.Stats.EarlyExit {
		if res.Stats.DecidedNegative {
			tm.earlyExitNeg.Add(1)
		} else {
			tm.earlyExitPos.Add(1)
		}
	}
	if res.Abstained {
		tm.abstained.Add(1)
	}
	tm.mu.Lock()
	tm.lastMem = res.Mem
	tm.mu.Unlock()
}

// recordHTTP folds one finished HTTP request into the counters.
func (m *Metrics) recordHTTP(method string, code int, elapsed time.Duration) {
	m.mu.Lock()
	m.httpReqs[reqKey{method, code}]++
	m.httpSecondsSum += elapsed.Seconds()
	m.httpSecondsCount++
	m.mu.Unlock()
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. reg supplies the live per-tenant gauges (subscription counts);
// nil is allowed in tests.
func (m *Metrics) WritePrometheus(w io.Writer, reg *Registry) {
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	writeHeader("xpfilterd_uptime_seconds", "Seconds since process start.", "gauge")
	fmt.Fprintf(w, "xpfilterd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	writeHeader("xpfilterd_http_requests_in_flight", "HTTP requests currently being served.", "gauge")
	fmt.Fprintf(w, "xpfilterd_http_requests_in_flight %d\n", m.inflight.Load())

	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.httpReqs))
	for k := range m.httpReqs {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].method != reqKeys[j].method {
			return reqKeys[i].method < reqKeys[j].method
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	reqVals := make([]int64, len(reqKeys))
	for i, k := range reqKeys {
		reqVals[i] = m.httpReqs[k]
	}
	secSum, secCount := m.httpSecondsSum, m.httpSecondsCount
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	tms := make([]*tenantMetrics, len(names))
	for i, name := range names {
		tms[i] = m.tenants[name]
	}
	m.mu.Unlock()

	writeHeader("xpfilterd_http_requests_total", "Finished HTTP requests by method and status code.", "counter")
	for i, k := range reqKeys {
		fmt.Fprintf(w, "xpfilterd_http_requests_total{method=%q,code=\"%d\"} %d\n", k.method, k.code, reqVals[i])
	}

	writeHeader("xpfilterd_http_request_seconds", "Total wall time of finished HTTP requests.", "counter")
	fmt.Fprintf(w, "xpfilterd_http_request_seconds_sum %.6f\n", secSum)
	fmt.Fprintf(w, "xpfilterd_http_request_seconds_count %d\n", secCount)

	counter := func(name, help string, get func(*tenantMetrics) int64) {
		writeHeader(name, help, "counter")
		for i, tn := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, tn, get(tms[i]))
		}
	}
	counter("xpfilterd_documents_total", "Documents matched to a verdict (docs/s derives from this).",
		func(tm *tenantMetrics) int64 { return tm.docs.Load() })
	counter("xpfilterd_document_errors_total", "Documents that failed (parse error, limit breach under fail policy, bad body).",
		func(tm *tenantMetrics) int64 { return tm.docErrors.Load() })
	counter("xpfilterd_events_total", "SAX events dispatched to the matcher (events/s derives from this).",
		func(tm *tenantMetrics) int64 { return tm.events.Load() })
	counter("xpfilterd_bytes_read_total", "Document bytes pulled from request bodies.",
		func(tm *tenantMetrics) int64 { return tm.bytesRead.Load() })
	counter("xpfilterd_bytes_consumed_total", "Document bytes actually tokenized (early exit stops short of bytes read).",
		func(tm *tenantMetrics) int64 { return tm.bytesConsumed.Load() })
	counter("xpfilterd_skimmed_bytes_total", "Consumed bytes of buffered documents validated without dispatch, every verdict being final already.",
		func(tm *tenantMetrics) int64 { return tm.skimmedBytes.Load() })
	counter("xpfilterd_predicate_group_probes_total", "Candidate values resolved against a predicate group (subscriptions differing only in one comparison's constant): one search each, whatever the group's size.",
		func(tm *tenantMetrics) int64 { return tm.groupProbes.Load() })
	counter("xpfilterd_limit_breaches_total", "Documents refused on a resource-budget breach (LimitFail policy).",
		func(tm *tenantMetrics) int64 { return tm.limitBreaches.Load() })
	counter("xpfilterd_abstained_total", "Documents degraded to partial verdicts on a budget breach (LimitAbstain policy).",
		func(tm *tenantMetrics) int64 { return tm.abstained.Load() })

	writeHeader("xpfilterd_early_exit_total", "Documents whose verdicts latched before end of input, by decision direction (fractions derive against documents_total).", "counter")
	for i, tn := range names {
		fmt.Fprintf(w, "xpfilterd_early_exit_total{tenant=%q,outcome=\"positive\"} %d\n", tn, tms[i].earlyExitPos.Load())
		fmt.Fprintf(w, "xpfilterd_early_exit_total{tenant=%q,outcome=\"negative\"} %d\n", tn, tms[i].earlyExitNeg.Load())
	}

	// Live gauges come from the registry (subscription counts) and the
	// last document's MemStats (the PR 7 live-memory accounting, with
	// the paper's lower-bound optimality ratio).
	if reg != nil {
		writeHeader("xpfilterd_subscriptions", "Standing subscriptions per tenant.", "gauge")
		for _, t := range reg.snapshot() {
			fmt.Fprintf(w, "xpfilterd_subscriptions{tenant=%q} %d\n", t.Name, t.Len())
		}
		if mgr := reg.Delivery(); mgr != nil {
			writeDelivery(w, mgr.Snapshot())
		}
	}
	gauge := func(name, help string, get func(streamxpath.MemStats) float64) {
		writeHeader(name, help, "gauge")
		for i, tn := range names {
			tms[i].mu.Lock()
			mem := tms[i].lastMem
			tms[i].mu.Unlock()
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, tn, get(mem))
		}
	}
	gauge("xpfilterd_mem_peak_live_tuples", "Peak live matching state of the tenant's last document (frontier tuples + scopes + pendings).",
		func(ms streamxpath.MemStats) float64 { return float64(ms.PeakLiveTuples) })
	gauge("xpfilterd_mem_peak_buffered_bytes", "Peak buffered candidate-text bytes of the tenant's last document (the paper's w term): numeric comparisons, string functions and other truth sets buffer, textual = and != stream through a cursor and hold none.",
		func(ms streamxpath.MemStats) float64 { return float64(ms.PeakBufferedBytes) })
	gauge("xpfilterd_mem_estimated_bits", "Estimated state bits of the tenant's last document under the paper's cost model.",
		func(ms streamxpath.MemStats) float64 { return float64(ms.EstimatedBits) })
	gauge("xpfilterd_mem_lower_bound_bits", "The paper's FS(Q)*ceil(log2 d) lower bound for the tenant's last document.",
		func(ms streamxpath.MemStats) float64 { return float64(ms.LowerBoundBits) })
	gauge("xpfilterd_mem_optimality_ratio", "Estimated bits over the paper's lower bound for the tenant's last document.",
		func(ms streamxpath.MemStats) float64 { return ms.OptimalityRatio })
}

// writeDelivery renders the outbound webhook delivery series from a
// per-tenant stats snapshot.
func writeDelivery(w io.Writer, snap map[string]delivery.Stats) {
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	counter := func(name, help string, get func(delivery.Stats) int64) {
		writeHeader(name, help, "counter")
		for _, tn := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, tn, get(snap[tn]))
		}
	}
	counter("xpfilterd_delivery_enqueued_total", "Delivery records accepted onto the outbound queue.",
		func(s delivery.Stats) int64 { return s.Enqueued })
	counter("xpfilterd_delivery_attempts_total", "Webhook POST attempts, including retries.",
		func(s delivery.Stats) int64 { return s.Attempts })
	counter("xpfilterd_delivery_successes_total", "Deliveries acknowledged 2xx by the receiver.",
		func(s delivery.Stats) int64 { return s.Successes })
	counter("xpfilterd_delivery_failures_total", "Failed delivery attempts (non-2xx, transport error, timeout).",
		func(s delivery.Stats) int64 { return s.Failures })
	counter("xpfilterd_delivery_retries_total", "Deliveries rescheduled with backoff after a failed attempt.",
		func(s delivery.Stats) int64 { return s.Retries })
	counter("xpfilterd_delivery_shed_total", "Deliveries dropped on enqueue because the tenant's queue was full.",
		func(s delivery.Stats) int64 { return s.Sheds })
	counter("xpfilterd_delivery_dead_letters_total", "Deliveries that exhausted their attempt budget.",
		func(s delivery.Stats) int64 { return s.DeadLetters })
	counter("xpfilterd_delivery_abandoned_total", "Deliveries abandoned by drain or tenant deletion.",
		func(s delivery.Stats) int64 { return s.Abandoned })

	writeHeader("xpfilterd_delivery_queue_depth", "Delivery records not yet at a terminal outcome: queued, parked on a retry timer, or in flight (not the queue alone; see xpfilterd_delivery_queued).", "gauge")
	for _, tn := range names {
		fmt.Fprintf(w, "xpfilterd_delivery_queue_depth{tenant=%q} %d\n", tn, snap[tn].Outstanding)
	}

	writeHeader("xpfilterd_delivery_queued", "Delivery records waiting in the queue for a worker, due retries included: what the queue depth bound limits for fresh records.", "gauge")
	for _, tn := range names {
		fmt.Fprintf(w, "xpfilterd_delivery_queued{tenant=%q} %d\n", tn, snap[tn].Queued)
	}

	writeHeader("xpfilterd_delivery_breaker_state", "Circuit state per webhook endpoint: 0 closed, 1 open, 2 half-open.", "gauge")
	for _, tn := range names {
		for _, b := range snap[tn].Breakers {
			fmt.Fprintf(w, "xpfilterd_delivery_breaker_state{tenant=%q,endpoint=%q} %d\n", tn, b.URL, int(b.State))
		}
	}

	writeHeader("xpfilterd_delivery_seconds", "Total wall time of successful webhook POSTs.", "counter")
	for _, tn := range names {
		fmt.Fprintf(w, "xpfilterd_delivery_seconds_sum{tenant=%q} %.6f\n", tn, snap[tn].LatencySeconds)
		fmt.Fprintf(w, "xpfilterd_delivery_seconds_count{tenant=%q} %d\n", tn, snap[tn].LatencyCount)
	}
}
