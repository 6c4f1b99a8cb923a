package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"streamxpath"
	"streamxpath/internal/delivery"
	"streamxpath/internal/engine"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/server"
)

// arm is one rung of the ladder: a call stack one layer deeper than the arm
// below it, run on the same document. The arms are replays, not nested
// intervals, so a layer's self time is its arm minus the next-inner arm.
type arm struct {
	name  string // metric suffix, "L0" … "L7c"
	layer string // the package whose call the arm adds
	outer int    // index of the next-outer arm, whose span is this span's parent; -1 for none
	run   armFunc

	// samples[doc] are the arm's times on that document, in µs.
	samples [][]float64
}

// armFunc runs an arm on document d and returns the interval of the call
// into the layer, the work counted at its boundary, and whether the answer
// agreed with the reference.
type armFunc func(d int, doc []byte) (start, end time.Time, c counts, ok bool)

// us is the arm's cost per document: the mean over the corpus of each
// document's fastest replay. Differences between arms are a few percent of
// an arm, and on a shared host only the fastest of several replays is free
// of preemption; a median lets that noise turn a thin layer's self time
// negative.
func (a *arm) us() float64 {
	per := make([]float64, len(a.samples))
	for d, s := range a.samples {
		per[d] = slices.Min(s)
	}
	return mean(per)
}

// p50 is the median document's fastest replay, comparable with doc_p50_us.
func (a *arm) p50() float64 {
	per := make([]float64, len(a.samples))
	for d, s := range a.samples {
		per[d] = slices.Min(s)
	}
	return median(per)
}

// ladder holds what the arms call into; it is built from the spec alone,
// apart from the live server the two outermost arms send to.
type ladder struct {
	sp   *spec
	arms []*arm
	ring *ring // the unmutated set the ladder's own matchers hold

	eng  *engine.Engine
	afs  *streamxpath.AdaptiveFilterSet
	regs []*server.Registry
	// addPerSub is FilterSet.Add's wall time per subscription.
	addPerSub time.Duration

	events, fragments, fragBytes, respBytes, rescanned int64
	stats                                              []engine.Stats
	mem                                                []engine.MemStats
	failed                                             int64
}

func (l *ladder) close() {
	l.afs.Close()
	for _, r := range l.regs {
		r.Close()
	}
}

// routedToTrie reports which shared index the engine gives a query to.
func routedToTrie(src string) (bool, error) {
	q, err := query.Parse(src)
	if err != nil {
		return false, err
	}
	e := engine.New()
	if err := e.Add("q", q); err != nil {
		return false, err
	}
	return e.Stats().TrieRouted > 0, nil
}

// newEngine builds an engine holding the subscriptions keep admits.
func newEngine(sp *spec, keep func(s sub) bool) (*engine.Engine, error) {
	e := engine.New()
	for _, s := range sp.subs {
		if !keep(s) {
			continue
		}
		q, err := query.Parse(sp.queries[s.q])
		if err != nil {
			return nil, err
		}
		if s.extract {
			err = e.AddExtract(s.id, q)
		} else {
			err = e.Add(s.id, q)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// drive feeds one buffered document through a tokenizer into an engine (or
// nowhere, for the tokenizer alone) and returns the event count.
func drive(tok *sax.TokenizerBytes, e *engine.Engine, doc []byte) (int64, error) {
	tok.Reset(doc)
	var n int64
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if e != nil {
			if err := e.ProcessBytes(ev); err != nil {
				return n, err
			}
		}
	}
}

func newTenant(reg *server.Registry, sp *spec, hookURL string) (*server.Tenant, error) {
	t, err := reg.Create(tenantName, server.TenantConfig{})
	if err != nil {
		return nil, err
	}
	for _, s := range sp.subs {
		var hook *delivery.Webhook
		if s.hook != hookNone {
			hook = &delivery.Webhook{URL: hookURL}
		}
		if _, err := t.PutSubscription(s.id, sp.queries[s.q], s.extract, hook); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newLadder builds every arm. si is the workload's live server (for a
// library workload, one started for the ladder, without webhooks).
func newLadder(sp *spec, si *serveInst, orc *oracle) (*ladder, error) {
	l := &ladder{sp: sp, ring: newRing(sp.subs)}
	nproc := runtime.NumCPU()
	trie := make([]bool, len(sp.queries))
	for i, src := range sp.queries {
		var err error
		if trie[i], err = routedToTrie(src); err != nil {
			return nil, err
		}
	}
	var err error
	if l.eng, err = newEngine(sp, func(sub) bool { return true }); err != nil {
		return nil, err
	}
	fs := streamxpath.NewFilterSet()
	start := time.Now()
	for _, s := range sp.subs {
		if err := addSub(fs.Add, fs.AddExtract, sp, s); err != nil {
			return nil, err
		}
	}
	l.addPerSub = time.Since(start) / time.Duration(len(sp.subs))
	l.afs = streamxpath.NewAdaptiveFilterSet(nproc)
	for _, s := range sp.subs {
		if err := addSub(l.afs.Add, l.afs.AddExtract, sp, s); err != nil {
			return nil, err
		}
	}
	// L5: a tenant with no delivery manager. L5d: the same tenant on a
	// registry whose manager POSTs nowhere, so what it adds is the JSON
	// event marshal and the Enqueue.
	plain := server.NewRegistry(server.TenantConfig{Workers: nproc}, nil, nil)
	nowhere := delivery.DoerFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
	})
	enq := server.NewRegistry(server.TenantConfig{Workers: nproc}, nil,
		delivery.NewManager(delivery.Config{Client: nowhere, QueueDepth: 1 << 18}))
	l.regs = []*server.Registry{plain, enq}
	tPlain, err := newTenant(plain, sp, "http://127.0.0.1:9/")
	if err != nil {
		return nil, err
	}
	tEnq, err := newTenant(enq, sp, "http://127.0.0.1:9/")
	if err != nil {
		return nil, err
	}
	handler := si.srv.Handler()

	tok0 := sax.NewTokenizerBytes(nil, nil)
	tokE := sax.NewTokenizerBytes(nil, l.eng.Symbols())
	stok := sax.NewStreamTokenizer(nil)
	var frags []engine.Fragment
	var buf bytes.Buffer

	// Every arm times its own call, so that building a request before it
	// and checking the answer after it are not charged to the layer.
	engineArm := func(e *engine.Engine, tok *sax.TokenizerBytes, mode engine.CaptureMode, after func(counts)) armFunc {
		return func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			start := time.Now()
			e.SetCapture(mode)
			e.Reset()
			n, err := drive(tok, e, doc)
			if mode != engine.CaptureOff {
				frags = e.AppendFragments(frags[:0], doc)
			}
			end := time.Now()
			c := counts{Bytes: int64(len(doc)), Events: n, Matched: int64(e.MatchedCount())}
			if mode != engine.CaptureOff {
				c.Fragments = int64(len(frags))
			}
			if after != nil {
				after(c)
			}
			return start, end, c, err == nil
		}
	}
	matcherArm := func(match func(doc []byte) ([]string, error)) armFunc {
		return func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			start := time.Now()
			ids, err := match(doc)
			end := time.Now()
			return start, end, counts{Bytes: int64(len(doc)), Matched: int64(len(ids))},
				err == nil && l.ring.matches(orc.truth[d], ids)
		}
	}
	handlerArm := func(chunked bool) armFunc {
		return func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			req := httptest.NewRequest("POST", "/v1/tenants/"+tenantName+"/match", bytes.NewReader(doc))
			if chunked {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			start := time.Now()
			handler.ServeHTTP(rec, req)
			end := time.Now()
			l.respBytes += int64(rec.Body.Len())
			return start, end, counts{Bytes: int64(len(doc))},
				rec.Code == http.StatusOK && si.check(orc, d, chunked, rec.Body.Bytes())
		}
	}
	httpArm := func(chunked bool) armFunc {
		return func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			start := time.Now()
			err := si.post(doc, chunked, &buf)
			end := time.Now()
			return start, end, counts{Bytes: int64(len(doc))},
				err == nil && si.check(orc, d, chunked, buf.Bytes())
		}
	}

	l.arms = []*arm{
		{name: "L0", layer: "sax", outer: 1, run: func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			start := time.Now()
			n, err := drive(tok0, nil, doc)
			end := time.Now()
			l.events += n
			return start, end, counts{Bytes: int64(len(doc)), Events: n}, err == nil
		}},
		{name: "L1", layer: "engine", outer: 2, run: engineArm(l.eng, tokE, engine.CaptureOff, func(counts) {
			l.stats = append(l.stats, l.eng.Stats())
		})},
		{name: "L2", layer: "engine.capture", outer: 3, run: engineArm(l.eng, tokE, engine.CaptureSlice, func(c counts) {
			l.fragments += c.Fragments
			for _, f := range frags {
				l.fragBytes += int64(len(f.Data))
			}
			l.mem = append(l.mem, l.eng.MemStats())
		})},
		{name: "L3", layer: "streamxpath.filterset", outer: 4, run: matcherArm(func(doc []byte) ([]string, error) {
			res, err := fs.MatchBytesResult(doc)
			return res.MatchedIDs, err
		})},
		{name: "L4", layer: "parallel.adaptive", outer: 5, run: matcherArm(func(doc []byte) ([]string, error) {
			res, err := l.afs.MatchBytesResult(doc)
			return res.MatchedIDs, err
		})},
		{name: "L5", layer: "server.tenant", outer: 6, run: matcherArm(func(doc []byte) ([]string, error) {
			res, err := tPlain.MatchBuffered(doc)
			return res.Matched, err
		})},
		{name: "L5d", layer: "server.enqueue", outer: 7, run: matcherArm(func(doc []byte) ([]string, error) {
			res, err := tEnq.MatchBuffered(doc)
			return res.Matched, err
		})},
		{name: "L6", layer: "server.handler", outer: 8, run: handlerArm(false)},
		{name: "L7", layer: "server.http", outer: -1, run: httpArm(false)},
		{name: "L6c", layer: "server.handler", outer: 10, run: handlerArm(true)},
		{name: "L7c", layer: "server.http", outer: -1, run: httpArm(true)},
		// A side arm: the chunked tokenizer the streamed path uses.
		{name: "L0s", layer: "sax.stream", outer: 9, run: func(d int, doc []byte) (time.Time, time.Time, counts, bool) {
			var ss sax.StreamStats
			var n int64
			start := time.Now()
			stok.Reset()
			_, err := stok.Drive(bytes.NewReader(doc), sp.chunk, &ss,
				func(sax.ByteEvent) error { n++; return nil }, nil, nil)
			end := time.Now()
			l.rescanned += int64(stok.Rescanned())
			return start, end, counts{Bytes: ss.BytesRead, Events: n}, err == nil
		}},
	}
	// Two more side arms where the set is split between the two indexes
	// (serve): the engine with only the subscriptions one index evaluates.
	if st := l.eng.Stats(); st.NFARouted > 0 && st.TrieRouted > 0 {
		for _, side := range []struct {
			name, layer string
			trie        bool
		}{{"L1n", "engine.nfa", false}, {"L1t", "engine.trie", true}} {
			e, err := newEngine(sp, func(s sub) bool { return trie[s.q] == side.trie })
			if err != nil {
				return nil, err
			}
			tok := sax.NewTokenizerBytes(nil, e.Symbols())
			l.arms = append(l.arms, &arm{name: side.name, layer: side.layer, outer: 1,
				run: engineArm(e, tok, engine.CaptureOff, nil)})
		}
	}
	for _, a := range l.arms {
		a.samples = make([][]float64, len(sp.docs))
	}
	return l, nil
}

// pass replays every document through every arm once, one trace per
// document. The order is arm by arm, not document by document: an arm then
// meets the corpus the way the measured loop does, with its own tables warm
// from the previous document rather than evicted by the other arms'.
func (l *ladder) pass(tr *tracer) {
	traces := make([]int64, len(l.sp.docs))
	for d := range traces {
		traces[d] = tr.newTrace()
	}
	for i, a := range l.arms {
		for d, doc := range l.sp.docs {
			start, end, c, ok := a.run(d, doc)
			tr.record(traces[d], i, a.outer, a.layer, start, end, c)
			a.samples[d] = append(a.samples[d], us(end.Sub(start)))
			if !ok {
				l.failed++
			}
		}
	}
}

func (l *ladder) arm(name string) *arm {
	for _, a := range l.arms {
		if a.name == name {
			return a
		}
	}
	panic("ladder: no arm " + name) // a misspelt name in this file
}

// self is a layer's own time per document: its arm minus the arm below.
func (l *ladder) self(outer, inner string) float64 {
	return l.arm(outer).us() - l.arm(inner).us()
}

// report turns the samples into the per-layer metrics the ladder yields.
func (l *ladder) report(m metrics) {
	passes := len(l.arms[0].samples[0])
	runs := float64(passes * len(l.sp.docs)) // how often each arm ran
	docs := float64(len(l.sp.docs))
	bytesPerDoc := float64(l.sp.docBytes()) / docs
	eventsPerDoc := float64(l.events) / runs

	for _, name := range []string{"L0", "L1", "L2", "L3", "L4", "L5", "L5d", "L6", "L7", "L6c", "L7c", "L0s"} {
		m.set("ladder."+name+"_us", l.arm(name).us(), "us", passes)
	}
	l0 := l.arm("L0")
	m.set("sax.bytes.ns_per_byte", 1000*l0.us()/bytesPerDoc, "ns", passes)
	m.set("sax.bytes.ns_per_event", 1000*l0.us()/eventsPerDoc, "ns", passes)
	// The corpus split by whether a document carries entity references;
	// 0 for a half the corpus does not have.
	var plainUs, plainB, entUs, entB float64
	for d, s := range l0.samples {
		if l.sp.entity[d] {
			entUs, entB = entUs+median(s), entB+float64(len(l.sp.docs[d]))
		} else {
			plainUs, plainB = plainUs+median(s), plainB+float64(len(l.sp.docs[d]))
		}
	}
	m.set("sax.bytes.plain.ns_per_byte", 1000*ratio(plainUs, plainB), "ns", passes)
	m.set("sax.bytes.entity.ns_per_byte", 1000*ratio(entUs, entB), "ns", passes)
	m.set("sax.stream.ns_per_byte", 1000*l.arm("L0s").us()/bytesPerDoc, "ns", passes)
	m.set("sax.events_per_doc", eventsPerDoc, "count", 0)
	m.set("sax.rescan_frac", float64(l.rescanned)/runs/bytesPerDoc, "ratio", 0)

	// The engine's time per event, by the index that spent it: all of
	// L1 - L0 where one index holds every subscription (and 0 for the
	// other), the side arms where the set is split.
	st := l.eng.Stats()
	perEvent := func(sideArm string, routed, otherRouted int) float64 {
		switch {
		case routed == 0:
			return 0
		case otherRouted == 0:
			return 1000 * l.self("L1", "L0") / eventsPerDoc
		default:
			return 1000 * l.self(sideArm, "L0") / eventsPerDoc
		}
	}
	m.set("engine.nfa.ns_per_event", perEvent("L1n", st.NFARouted, st.TrieRouted), "ns", passes)
	m.set("engine.trie.ns_per_event", perEvent("L1t", st.TrieRouted, st.NFARouted), "ns", passes)
	var visits, tuples, bits, lower, boundRatio, buffered []float64
	for _, s := range l.stats {
		visits = append(visits, ratio(float64(s.TupleVisits), float64(s.Events)))
		tuples = append(tuples, float64(s.PeakTuples))
	}
	for _, s := range l.mem {
		bits = append(bits, float64(s.EstimatedBits))
		lower = append(lower, float64(s.LowerBoundBits))
		boundRatio = append(boundRatio, s.OptimalityRatio)
		buffered = append(buffered, float64(s.PeakBufferedBytes))
	}
	m.set("engine.trie.visits_per_event", median(visits), "count", 0)
	m.set("engine.trie.peak_tuples", median(tuples), "count", 0)
	m.set("engine.nfa_routed", float64(st.NFARouted), "count", 0)
	m.set("engine.trie_routed", float64(st.TrieRouted), "count", 0)
	m.set("engine.shared_states", float64(st.SharedStates), "count", 0)
	m.set("engine.sharing_ratio", ratio(float64(st.SpineSteps), float64(st.SharedStates)), "ratio", 0)
	m.set("engine.dfa.states", float64(st.DFAStates), "count", 0)
	m.set("engine.dfa.transitions", float64(st.DFATransitions), "count", 0)
	m.set("engine.mem.estimated_bits", median(bits), "bits", 0)
	m.set("engine.mem.lower_bound_bits", median(lower), "bits", 0)
	m.set("engine.mem.bound_ratio", median(boundRatio), "ratio", 0)
	m.set("engine.mem.peak_buffered_b", median(buffered), "B", 0)
	m.set("engine.capture.us_per_doc", l.self("L2", "L1"), "us", passes)
	m.set("engine.capture.fragments_per_doc", float64(l.fragments)/runs, "count", 0)
	m.set("engine.capture.bytes_per_doc", float64(l.fragBytes)/runs, "B", 0)

	m.set("query.compile.us_per_sub", us(l.addPerSub), "us", len(l.sp.subs))
	m.set("streamxpath.filterset.self_us_per_doc", l.self("L3", "L2"), "us", passes)
	m.set("parallel.adaptive.self_us_per_doc", l.self("L4", "L3"), "us", passes)
	m.set("server.tenant.self_us_per_doc", l.self("L5", "L4"), "us", passes)
	m.set("server.enqueue.self_us_per_doc", l.self("L5d", "L5"), "us", passes)
	m.set("server.handler.self_us_per_doc", l.self("L6", "L5d"), "us", passes)
	m.set("server.resp_bytes_per_doc", float64(l.respBytes)/(2*runs), "B", 0)
	m.set("server.http.self_us_per_doc", l.self("L7", "L6"), "us", passes)
	m.set("server.chunked.self_us_per_doc", l.self("L7c", "L6c"), "us", passes)
}
