package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamxpath"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// The measurements below are the per-layer numbers no ladder arm gives:
// each times calls into one package's exported functions, on the workload's
// own corpus and subscriptions.

// recompile measures compile-on-dirty and what it costs the documents that
// follow: n times over, replace one subscription of an engine holding the
// workload's set and time Reset (which compiles), then the 1st document
// after it (cold: the lazy DFA re-materializes) and the 15th (warm).
func recompile(sp *spec, n int, m metrics) error {
	e, err := newEngine(sp, func(sub) bool { return true })
	if err != nil {
		return err
	}
	tok := sax.NewTokenizerBytes(nil, e.Symbols())
	doc := func(i int) (time.Duration, error) {
		start := time.Now()
		e.Reset()
		_, err := drive(tok, e, sp.docs[i%len(sp.docs)])
		return time.Since(start), err
	}
	for i := 0; i < 2*len(sp.docs); i++ {
		if _, err := doc(i); err != nil {
			return err
		}
	}
	r := newRing(sp.subs)
	var compile, cold, warm []float64
	for i := 0; i < n; i++ {
		old, fresh := r.rotate()
		q, err := query.Parse(sp.queries[fresh.q])
		if err != nil {
			return err
		}
		start := time.Now()
		e.Remove(old)
		if fresh.extract {
			err = e.AddExtract(fresh.id, q)
		} else {
			err = e.Add(fresh.id, q)
		}
		e.Reset()
		compile = append(compile, us(time.Since(start)))
		if err != nil {
			return err
		}
		for k := 0; k < 15; k++ {
			t, err := doc(i*15 + k)
			if err != nil {
				return err
			}
			switch k {
			case 0:
				cold = append(cold, us(t))
			case 14:
				warm = append(warm, us(t))
			}
		}
	}
	m.set("engine.compile.us_p50", median(compile), "us", n)
	m.set("engine.cold_doc.us_p50", median(cold), "us", n)
	m.set("engine.warm_doc.us_p50", median(warm), "us", n)
	return nil
}

// coreFilter runs the paper's Section 8 algorithm, the public Filter, with
// the workload's first query over the corpus.
func coreFilter(sp *spec, orc *oracle, eventsPerDoc float64, m metrics) (failed int64, err error) {
	q, err := streamxpath.Compile(sp.queries[0])
	if err != nil {
		return 0, err
	}
	f, err := q.NewFilter()
	if err != nil {
		return 0, err
	}
	var bits []float64
	var busy time.Duration
	const passes = 3 // the first one warms up
	for pass := 0; pass < passes; pass++ {
		for d, doc := range sp.docs {
			start := time.Now()
			ok, err := f.MatchBytes(doc)
			if pass > 0 {
				busy += time.Since(start)
				bits = append(bits, float64(f.Stats().EstimatedBits))
			}
			if err != nil || ok != orc.truth[d][0] {
				failed++
			}
		}
	}
	events := eventsPerDoc * float64((passes-1)*len(sp.docs))
	m.set("core.filter.ns_per_event", float64(busy.Nanoseconds())/events, "ns", (passes-1)*len(sp.docs))
	m.set("core.filter.estimated_bits", median(bits), "bits", 0)
	return failed, nil
}

// earlyExit reads every document through MatchReaderResult with two
// subscriptions decidable from a prefix, one positively at the first item
// and one negatively at the root, and reports the share of the document's
// bytes the tokenizer consumed. It is a count and repeats exactly.
func earlyExit(sp *spec, m metrics) error {
	root := sp.docs[0][1:bytes.IndexByte(sp.docs[0], '>')]
	set := streamxpath.NewFilterSet()
	if err := set.Add("pos", "/"+string(root)+"/item"); err != nil {
		return err
	}
	if err := set.Add("neg", "/nomatch/item"); err != nil {
		return err
	}
	set.SetChunkSize(4 << 10)
	var consumed, total int64
	for _, doc := range sp.docs {
		res, err := set.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			return err
		}
		if len(res.MatchedIDs) != 1 || res.MatchedIDs[0] != "pos" {
			return fmt.Errorf("%s: early-exit probe matched %v, want [pos]", sp.name, res.MatchedIDs)
		}
		consumed += res.ReaderStats.BytesConsumed
		total += int64(len(doc))
	}
	m.set("streamxpath.earlyexit.read_frac", float64(consumed)/float64(total), "ratio", 0)
	return nil
}

// parallelModes runs the corpus through the sequential FilterSet with one
// feeder, and through FilterPool and ParallelFilterSet with nproc workers
// and nproc feeders, ops documents each. On a 1-core host the comparison
// says nothing about scaling; the run record carries nproc.
func parallelModes(sp *spec, ops int, m metrics) error {
	nproc := runtime.NumCPU()
	seq := streamxpath.NewFilterSet()
	pool := streamxpath.NewFilterPool(nproc)
	sharded := streamxpath.NewParallelFilterSet(nproc)
	defer sharded.Close()
	for _, s := range sp.subs {
		for _, add := range []func(id, q string) error{seq.Add, pool.Add, sharded.Add} {
			if err := add(s.id, sp.queries[s.q]); err != nil {
				return err
			}
		}
	}
	modes := []struct {
		name    string
		feeders int
		match   func(doc []byte) ([]string, error)
	}{
		{"sequential", 1, seq.MatchBytes},
		{"pool", nproc, pool.MatchBytes},
		{"sharded", nproc, sharded.MatchBytes},
	}
	for _, mode := range modes {
		for _, doc := range sp.docs { // warm every replica's caches
			if _, err := mode.match(doc); err != nil {
				return err
			}
		}
		var next, errs atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < mode.feeders; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(ops) {
						return
					}
					if _, err := mode.match(sp.docs[int(i)%len(sp.docs)]); err != nil {
						errs.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if n := errs.Load(); n > 0 {
			return fmt.Errorf("%s: parallel.%s: %d documents failed", sp.name, mode.name, n)
		}
		m.set("parallel."+mode.name+".docs_per_s", float64(ops)/time.Since(start).Seconds(), "docs/s", ops)
	}
	return nil
}
