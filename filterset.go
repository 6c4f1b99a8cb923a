package streamxpath

import "streamxpath/internal/engine"

// FilterSet matches one document stream against many standing queries in
// a single pass — the selective-dissemination workload of the paper's
// introduction (ref [1]). Subscriptions are compiled into ONE shared
// evaluation engine (internal/engine): queries are canonicalized into
// step keys and merged into prefix-sharing indexes — a combined NFA for
// linear path queries and a shared frontier trie for predicated ones — so
// per-event cost tracks the amount of distinct active structure, not the
// subscription count. A thousand subscriptions sharing a //catalog/item
// prefix pay for that prefix once.
//
// Per subscription the engine preserves the semantics of the paper's
// Section 8 filter (internal/core, the reference it is tested against):
// answers are identical to running each query through a filter of its own
// — which is what a Filter is, this engine holding one subscription — and a
// subscription whose match has become definitive (conjunctive matching is
// monotone, so a provisional match is final) stops consuming events.
//
// Add and Remove may be called between documents. They patch the shared
// indexes in place, in time proportional to the query rather than to the
// set, and the index's warm state (the NFA's memoized transitions)
// survives them.
//
// Match contract: the id slice returned by MatchBytes, MatchReader and
// their Result forms is a buffer the set reuses — the next Match call
// overwrites it, so copy it if it must outlive the call — which keeps a
// warm MatchBytes or MatchReader call at zero allocations. MatchString and
// MatchStringResult return a fresh slice. A FilterSet is a matcher whose
// ring holds one engine: a panic inside it fails only the document with a
// *PanicError, and the set matches the next one afresh. It is not safe for
// concurrent use; create one per goroutine — or use FilterPool, which offers
// the same methods over a ring of N engines sharing the one index.
type FilterSet struct {
	matcher
}

// NewFilterSet returns an empty set.
func NewFilterSet() *FilterSet {
	s := &FilterSet{}
	s.init(1, true)
	return s
}

// FilterSetStats reports the size of the shared structures and the work
// of the last document — how much evaluation the subscriptions actually
// share. SpineSteps/SharedStates is the prefix-sharing factor.
type FilterSetStats = engine.Stats
