package streamxpath

import (
	"runtime"

	"streamxpath/internal/parallel"
)

// FilterPool is the document-parallel dissemination engine: a pool of
// complete engine replicas, each carrying every subscription, matching
// whole documents independently. Each Match call checks out an idle
// replica, so a document feed spreads across cores with no coordination
// beyond the checkout. All replicas share one concurrent symbol table,
// so the feed's name vocabulary is interned once, whichever replica sees
// a name first. Add, Remove, SetLimits and Stats wait for in-flight Match
// calls to drain; a Match call never waits for another.
//
// Match contract: every Match method is safe to call from any number of
// goroutines, returns freshly allocated slices (calls run concurrently, so
// there is no shared buffer to reuse), and its MatchResult is the call's
// own — everything in it is read off the replica before the replica goes
// back. Results are identical to the sequential FilterSet's.
//
// It is the one concurrent matcher the shipped programs use (xpfilterd
// tenants, xpfilter -workers, examples/dissemination). The two types below
// it stay only because the benchmark ledger still constructs them; they
// measured 0.25–0.50× of the sequential FilterSet there (ROADMAP 2(a)).
type FilterPool struct {
	matcher
	p *parallel.Pool
}

// NewFilterPool returns an empty pool with the given number of replica
// workers; workers < 1 selects GOMAXPROCS.
func NewFilterPool(workers int) *FilterPool {
	p := &FilterPool{p: parallel.NewPool(workersOr(workers))}
	p.b = p.p
	return p
}

// Workers returns the replica count.
func (p *FilterPool) Workers() int { return p.p.Workers() }

// ParallelFilterSet is the multi-core FilterSet: subscriptions are
// hash-sharded across N independent copies of the shared dissemination
// engine, all bound to one concurrent symbol table. Each document is
// tokenized exactly once (on the calling goroutine, through the
// interned-symbol byte fast path) and its symbol events are fanned out
// to per-shard worker goroutines through reusable batched event rings;
// the per-shard match sets are merged back into subscription insertion
// order, so results are identical to the sequential FilterSet's on every
// document.
//
// This mode parallelizes one document at a time across cores — the right
// shape when the subscription set is large.
//
// Match contract: Match calls from multiple goroutines are safe but
// serialize (to match many documents concurrently instead, use
// FilterPool); each returns freshly allocated slices and a MatchResult
// assembled before the next document may start, whose MemStats aggregates
// the shards' accounting (peaks sum, depth is the maximum). MatchBytes
// dispatches every event (there is no skim, so SkimmedBytes is 0);
// MatchReader broadcasts each chunk's events as it arrives, overlapping
// I/O, tokenization and matching, and abandons the reader once every
// shard's verdicts are decided.
//
// A ParallelFilterSet owns worker goroutines: call Close when done.
type ParallelFilterSet struct {
	matcher
	s *parallel.Sharded
}

// NewParallelFilterSet returns an empty set with the given number of
// shards; shards < 1 selects GOMAXPROCS.
func NewParallelFilterSet(shards int) *ParallelFilterSet {
	s := &ParallelFilterSet{s: parallel.NewSharded(workersOr(shards))}
	s.b = s.s
	return s
}

// Shards returns the shard count.
func (s *ParallelFilterSet) Shards() int { return s.s.Shards() }

// Close stops the shard worker goroutines. The set is unusable
// afterwards; Close is idempotent.
func (s *ParallelFilterSet) Close() { s.s.Close() }

// AdaptiveFilterSet picks the parallel mode per document: documents
// below a size threshold (32 KiB) — or subscription sets below a count
// threshold (256), where per-shard work is too thin to amortize the event
// broadcast — match on a FilterPool replica (document-parallel, no fan-out
// overhead), and everything else fans out on the event-sharded engine.
// Both halves share one symbol table and carry every subscription, so
// the routing decision is free and results are identical either way.
// MatchReader peeks the first threshold bytes to learn the size class
// before committing: a document that ends within them matches on a
// replica; a larger one streams chunked — sequentially on a replica when
// the subscription set is below the count threshold (bounded memory
// without fan-out overhead), event-sharded otherwise.
//
// Match contract: as FilterPool's on the replica route and
// ParallelFilterSet's on the sharded one — concurrent calls are safe,
// slices are freshly allocated, the MatchResult is the call's own —
// and reader-path fragments are canonical re-serializations on every
// route (even a fully staged small document: the staging buffer is
// recycled).
//
// An AdaptiveFilterSet owns worker goroutines: call Close when done.
type AdaptiveFilterSet struct {
	matcher
	a *parallel.Auto
}

// NewAdaptiveFilterSet returns an empty adaptive set with the given
// number of shards/replicas; workers < 1 selects GOMAXPROCS.
func NewAdaptiveFilterSet(workers int) *AdaptiveFilterSet {
	s := &AdaptiveFilterSet{a: parallel.NewAuto(workersOr(workers))}
	s.b = s.a
	return s
}

// Shards returns the worker count of each half.
func (s *AdaptiveFilterSet) Shards() int { return s.a.Shards() }

// Close stops the worker goroutines. The set is unusable afterwards;
// Close is idempotent.
func (s *AdaptiveFilterSet) Close() { s.a.Close() }

// workersOr resolves a worker count: n < 1 selects GOMAXPROCS.
func workersOr(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
