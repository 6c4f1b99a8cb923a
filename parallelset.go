package streamxpath

import "runtime"

// FilterPool is the concurrent dissemination engine: one subscription index
// and a ring of N engines over it, matching whole documents independently. A
// subscription is linked once, whatever N, and the merged NFA's lazy DFA is
// one memo that every engine reads and extends; an engine adds only
// per-document state (its NFA runner's stack, trie matcher and tokenizers),
// so the pool's heap stays close to a FilterSet's — which is the same
// matcher with a ring of one. Each Match call checks out an idle engine, so a document
// feed spreads across cores with no coordination beyond the checkout, and
// the feed's name vocabulary is interned once, in the index's concurrent
// symbol table. Add, Remove, SetLimits and Stats wait for in-flight Match
// calls to drain; a Match call waits only for an idle engine.
//
// Match contract: every Match method is safe to call from any number of
// goroutines, returns freshly allocated slices (calls run concurrently, so
// there is no shared buffer to reuse), and its MatchResult is the call's
// own — everything in it is read off the engine before the engine goes
// back. Results are identical to the sequential FilterSet's.
//
// It is the one concurrent matcher: xpfilterd tenants, xpfilter -workers
// and examples/dissemination run on it. An event-sharded engine that split
// one document's subscriptions across cores, and a per-document chooser
// between it and the pool, were measured at 0.21–0.50× of the sequential
// FilterSet and deleted; the two types below are what is left of them.
type FilterPool struct {
	matcher
}

// NewFilterPool returns an empty pool with the given number of engines;
// workers < 1 selects GOMAXPROCS.
func NewFilterPool(workers int) *FilterPool {
	p := &FilterPool{}
	p.init(workersOr(workers), false)
	return p
}

// Workers returns the number of engines.
func (p *FilterPool) Workers() int { return len(p.engs) }

// ParallelFilterSet is a FilterPool under the name of the event-sharded
// engine it replaced.
//
// Deprecated: use FilterPool. The type stays only while the benchmark
// ledger still constructs it.
type ParallelFilterSet struct{ *FilterPool }

// NewParallelFilterSet returns NewFilterPool(workers) as a ParallelFilterSet.
//
// Deprecated: use NewFilterPool.
func NewParallelFilterSet(workers int) *ParallelFilterSet {
	return &ParallelFilterSet{NewFilterPool(workers)}
}

// Close does nothing: a pool owns no goroutines.
//
// Deprecated: FilterPool needs no Close.
func (*ParallelFilterSet) Close() {}

// AdaptiveFilterSet is a FilterPool under the name of the per-document
// chooser it replaced.
//
// Deprecated: use FilterPool.
type AdaptiveFilterSet = ParallelFilterSet

// NewAdaptiveFilterSet returns NewFilterPool(workers) as an
// AdaptiveFilterSet.
//
// Deprecated: use NewFilterPool.
func NewAdaptiveFilterSet(workers int) *AdaptiveFilterSet { return NewParallelFilterSet(workers) }

// workersOr resolves a worker count: n < 1 selects GOMAXPROCS.
func workersOr(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
