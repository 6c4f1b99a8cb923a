package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"streamxpath"
)

// system is a workload's program under test, set up and warm: a FilterSet
// for the library workloads, an in-process xpfilterd for serve.
type system interface {
	// e2e runs the workload's measured phase within ph and returns what it
	// saw. With a tracer every operation is also recorded as a span.
	e2e(ph phase, orc *oracle, tr *tracer) (*e2eStats, error)
	close()
}

// e2eStats is one measured phase. Per-round slices have one entry per
// round. The run reports its best round: the largest throughput, the
// smallest latency percentile. On a shared host other tenants only ever
// slow a round down (rounds of one run on the reference host ranged from
// 845 to 1,261 docs/s while the best rounds of three such runs read 1,249,
// 1,264 and 1,255), so the best round estimates the program's cost and the
// median round the host's mood.
type e2eStats struct {
	docsPerS []float64
	mbPerS   []float64
	p50us    []float64
	p99us    []float64
	// ackP50us and ackP95us are percentiles of a round's mutation acks:
	// Remove+Add → return of the first Match under the new set.
	ackP50us []float64
	ackP95us []float64
	acks     int

	attempted, failed int64
	allocPerDoc       float64
	// liveHeapMB is the reachable heap after a collection at the end of
	// the phase; rssMB the largest VmRSS sampled at its round ends.
	liveHeapMB, rssMB float64
	// layer holds the per-layer numbers only a loaded run can give
	// (delivery accounting, generator lag); reported by the traced run.
	layer metrics
}

// minRounds is the least number of rounds a measured phase runs, however
// short the time budget.
const minRounds = 9

// libInst is a FilterSet holding the workload's subscriptions.
type libInst struct {
	sp   *spec
	set  *streamxpath.FilterSet
	ring *ring
	ops  int // operations so far; selects the next document and mutation
	// lat is a round's latencies, reused so that gen.alloc_b_per_doc, the
	// 0-alloc gate on scan, counts the library's garbage and not the
	// harness's.
	lat []float64
}

func addSub(add, addExtract func(id, q string) error, sp *spec, s sub) error {
	if s.extract {
		return addExtract(s.id, sp.queries[s.q])
	}
	return add(s.id, sp.queries[s.q])
}

// startLibrary compiles the subscriptions and runs the warm-up pass: what a
// library caller pays before the first timed document.
func startLibrary(sp *spec) (*libInst, error) {
	li := &libInst{sp: sp, set: streamxpath.NewFilterSet(), ring: newRing(sp.subs)}
	for _, s := range sp.subs {
		if err := addSub(li.set.Add, li.set.AddExtract, sp, s); err != nil {
			return nil, err
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, doc := range sp.docs {
			if _, err := li.match(doc); err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
			}
		}
	}
	return li, nil
}

func (li *libInst) close() {}

func (li *libInst) match(doc []byte) ([]string, error) {
	if li.sp.result {
		res, err := li.set.MatchBytesResult(doc)
		return res.MatchedIDs, err
	}
	return li.set.MatchBytes(doc)
}

// mutate replaces the oldest subscription by a new one with the same query.
func (li *libInst) mutate() error {
	old, fresh := li.ring.rotate()
	if !li.set.Remove(old) {
		return fmt.Errorf("%s: remove %s: no such subscription", li.sp.name, old)
	}
	return addSub(li.set.Add, li.set.AddExtract, li.sp, fresh)
}

// round runs ops operations on one goroutine, closed loop, replacing a
// subscription before every mutateEvery-th (0: never). Throughput is
// operations over the time spent inside the library's calls, so the
// harness's own checking between calls is not charged to the library.
func (li *libInst) round(ops, mutateEvery int, orc *oracle, tr *tracer, st *e2eStats) error {
	lat := li.lat[:0]
	var acks []float64
	var busy time.Duration
	var bytes int64
	for i := 0; i < ops; i++ {
		d := li.ops % len(li.sp.docs)
		doc := li.sp.docs[d]
		mutated := mutateEvery > 0 && li.ops%mutateEvery == 0
		li.ops++

		start := time.Now()
		if mutated {
			if err := li.mutate(); err != nil {
				return err
			}
		}
		call := time.Now()
		ids, err := li.match(doc)
		end := time.Now()

		tr.recordOp(start, end, counts{Bytes: int64(len(doc)), Matched: int64(len(ids))})
		busy += end.Sub(start)
		bytes += int64(len(doc))
		lat = append(lat, us(end.Sub(call)))
		if mutated {
			acks = append(acks, us(end.Sub(start)))
		}
		st.attempted++
		if err != nil || !li.ring.matches(orc.truth[d], ids) {
			st.failed++
		}
	}
	st.docsPerS = append(st.docsPerS, float64(ops)/busy.Seconds())
	st.mbPerS = append(st.mbPerS, float64(bytes)/1e6/busy.Seconds())
	sort.Float64s(lat)
	st.p50us = append(st.p50us, sortedPercentile(lat, 50))
	st.p99us = append(st.p99us, sortedPercentile(lat, 99))
	st.addAcks(acks)
	li.lat = lat
	return nil
}

// account closes the timed rounds' memory books: garbage produced per
// operation since m0 was read, and the heap still reachable after a
// collection.
func (st *e2eStats) account(m0 *runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	st.allocPerDoc = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(st.attempted)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.liveHeapMB = float64(m1.HeapAlloc) / 1e6
}

// addAcks books one round's mutation acks.
func (st *e2eStats) addAcks(acks []float64) {
	if len(acks) > 0 {
		st.ackP50us = append(st.ackP50us, percentile(acks, 50))
		st.ackP95us = append(st.ackP95us, percentile(acks, 95))
		st.acks += len(acks)
	}
}

// The steady workloads time their mutations after their rounds, in ackRounds
// rounds of ackOps mutations each, and only in the traced run, which is the
// one that reports them; churn takes its acks from its rounds.
const (
	ackRounds = 5
	ackOps    = 40
)

func (li *libInst) e2e(ph phase, orc *oracle, tr *tracer) (*e2eStats, error) {
	st := &e2eStats{layer: metrics{}}
	var rss rssPeak
	var m0 runtime.MemStats
	// Collect, and return to the OS what set-up and the reference left
	// idle in the heap: the scavenger returns it on its own schedule, and
	// RSS would measure that schedule (16-24 MB on scan between runs).
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < ph.minRounds || time.Since(start) < ph.budget; r++ {
		if err := li.round(li.sp.roundOps, li.sp.mutateEvery, orc, tr, st); err != nil {
			return nil, err
		}
		rss.sample()
	}
	st.account(&m0)
	if li.sp.mutateEvery == 0 && ph.ackOps > 0 {
		// The steady workloads mutate after their rounds: every operation
		// of this phase carries a mutation. Its rounds' throughput and
		// latency are of no interest; only the acks are kept.
		ack := &e2eStats{}
		for r := 0; r < ackRounds; r++ {
			if err := li.round(ph.ackOps, 1, orc, tr, ack); err != nil {
				return nil, err
			}
		}
		st.ackP50us, st.ackP95us, st.acks = ack.ackP50us, ack.ackP95us, ack.acks
		st.attempted += ack.attempted
		st.failed += ack.failed
		rss.sample()
	}
	st.rssMB = rss.mb()
	noDelivery(st.layer)
	return st, nil
}

// stateBits is the paper's quantity: the median over the corpus of the bits
// of matching state the evaluator held at its peak, by the cost model of
// MemStats. It is a count, taken outside the timed phase from a FilterSet
// with the workload's subscriptions.
func stateBits(sp *spec) (float64, error) {
	set := streamxpath.NewFilterSet()
	for _, s := range sp.subs {
		if err := addSub(set.Add, set.AddExtract, sp, s); err != nil {
			return 0, err
		}
	}
	bits := make([]float64, len(sp.docs))
	for i, doc := range sp.docs {
		res, err := set.MatchBytesResult(doc)
		if err != nil {
			return 0, err
		}
		bits[i] = float64(res.MemStats.EstimatedBits)
	}
	return median(bits), nil
}
