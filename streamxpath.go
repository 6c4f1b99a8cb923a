// Package streamxpath is a streaming XPath filtering library reproducing
// "On the Memory Requirements of XPath Evaluation over XML Streams"
// (Bar-Yossef, Fontoura, Josifovski; PODS 2004 / JCSS 2007).
//
// It provides:
//
//   - a compiler and single-pass streaming filter (Filter) for Forward
//     XPath queries (child/descendant/attribute axes, wildcards, conjunctive
//     predicates with comparisons, arithmetic and string functions): the
//     dissemination engine below, holding one subscription. The paper's
//     Section 8 algorithm itself, with memory
//     O(|Q|·r·(log|Q|+log d+log w) + w) bits — near the paper's lower
//     bounds — is internal/core: the reference the engine is tested
//     against and the lower-bound experiments run over;
//   - an in-memory reference evaluator implementing the paper's exact
//     selection semantics (Definitions 3.1-3.6), used for full evaluation
//     and as a correctness oracle;
//   - a multi-query dissemination engine (FilterSet): thousands of
//     standing subscriptions compiled into one shared prefix-sharing
//     index — a combined NFA for linear queries, a shared frontier trie
//     for predicated ones — matched against each document in a single
//     pass with per-event cost governed by structure sharing rather than
//     subscription count;
//   - dissemination across cores, behind the same methods as FilterSet:
//     FilterPool runs N engines over one subscription index and its
//     concurrent symbol table, matching whole documents concurrently.
//     Every Match*Result call, on every matcher, returns one MatchResult
//     — verdicts, extracted fragments, abstain flag, reader and memory
//     accounting — that is that call's own, however many run at once;
//   - per-document resource budgets (Limits) with typed errors or sound
//     graceful degradation (LimitAbstain), and live-memory accounting
//     (MemStats) against the paper's FS(Q)·⌈log₂ d⌉ lower bound;
//   - query analysis: frontier size (the paper's lower-bound quantity),
//     membership in Redundancy-free XPath and the other fragments the
//     paper's theorems quantify over.
//
// Quick start:
//
//	matched, err := streamxpath.Match("/inventory[item > 5]", xmlText)
//
// or, for a reusable filter over many documents:
//
//	q, _ := streamxpath.Compile(`//item[keyword = "go"]`)
//	f, _ := q.NewFilter()
//	for _, doc := range docs {
//	    ok, _ := f.MatchString(doc)
//	    ...
//	}
//
// or, for many standing queries over a document stream:
//
//	s := streamxpath.NewFilterSet()
//	s.Add("alice", `//item[keyword = "go"]`)
//	s.Add("bob", `//item[priority > 8]`)
//	ids, _ := s.MatchString(doc) // matched subscription ids, one pass
package streamxpath

import (
	"io"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// Query is a compiled Forward XPath query.
type Query struct {
	q *query.Query
}

// Compile parses a Forward XPath query (the grammar of the paper's
// Fig. 1): absolute paths over /, //, @ with optional predicates combining
// relative paths, comparisons, arithmetic, and/or/not, and the basic XPath
// function library (contains, starts-with, ends-with, string-length,
// concat, substring, number, string, floor, ceiling, round,
// normalize-space).
func Compile(src string) (*Query, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *Query {
	q, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the query in surface syntax.
func (q *Query) String() string { return q.q.String() }

// Size returns |Q|, the number of query tree nodes.
func (q *Query) Size() int { return q.q.Size() }

// Filter is a single-pass streaming matcher for one query: a FilterSet
// holding a single subscription — one engine (internal/engine) in a ring of
// one, behind the same match path. Everything FilterSet's Match methods
// document — the interned-symbol byte path, the skim of a decided
// remainder, early exit on a reader, budgets and their breach policy, the
// memory accounting — holds for a Filter, with "the query matched" in place
// of the id list. (The paper's Section 8 algorithm itself,
// with its Theorem 8.8 accounting, is internal/core: the reference the
// engine is tested against, reached through cmd/xpexperiments and
// examples/tracer.) A panic inside the engine fails only the document with a
// *PanicError. A Filter is reusable across documents but not safe for
// concurrent use; create one per goroutine.
type Filter struct {
	m matcher
}

// NewFilter compiles the streaming filter. It returns an error if the
// query is outside the streamable fragment (the Section 8 algorithm
// supports leaf-only-value-restricted univariate conjunctive queries;
// disjunction, negation and multi-variable predicates require the
// in-memory Evaluate path).
func (q *Query) NewFilter() (*Filter, error) {
	f := &Filter{}
	f.m.init(1, true)
	if err := f.m.link(q.String(), q.q, false); err != nil {
		return nil, err
	}
	return f, nil
}

// SetChunkSize sets the largest read MatchReader makes (n <= 0 restores
// DefaultChunkSize). Reads start at 4 KiB and grow to it only as
// documents fill them; a size of 4 KiB or less is every read's.
func (f *Filter) SetChunkSize(n int) { f.m.SetChunkSize(n) }

// SetLimits configures the per-document resource budgets and breach
// policy (the zero value disables them). Limits persist across
// documents; a breach under LimitFail surfaces as a *LimitError, under
// LimitAbstain as a degraded verdict flagged by MatchResult.Abstained —
// true is definitive (a match is final by monotonicity), false means "not
// matched within budget". Either way the filter stays reusable, and no
// budget check allocates until a breach actually occurs.
func (f *Filter) SetLimits(l Limits) { f.m.SetLimits(l) }

// Limits returns the configured budgets.
func (f *Filter) Limits() Limits { return f.m.Limits() }

// MatchBytes filters an XML document held in a byte slice through the
// interned-symbol fast path; a warm call allocates nothing. The document
// is validated to its end but dispatched only until the verdict is final:
// the remainder is skimmed (see FilterSet.MatchBytes).
func (f *Filter) MatchBytes(doc []byte) (bool, error) {
	ids, err := f.m.MatchBytes(doc)
	return len(ids) > 0, err
}

// MatchString is MatchBytes over a string, copied into a buffer of the
// call's own.
func (f *Filter) MatchString(xml string) (bool, error) {
	ids, err := f.m.MatchString(xml)
	return len(ids) > 0, err
}

// MatchReader streams an XML document from r in chunks of at most the
// chunk size (SetChunkSize; DefaultChunkSize otherwise): peak memory is
// bounded by the largest read plus the open-element depth, never the
// document size.
// The moment the verdict is decided — a match latches by monotonicity; a
// non-match when no continuation of the document can satisfy the query,
// e.g. /news/item against a <catalog> document at its first start tag —
// the reader stops being consumed and the remainder is not validated;
// MatchReaderResult's ReaderStats reports it (see FilterSet.MatchReader).
func (f *Filter) MatchReader(r io.Reader) (bool, error) {
	ids, err := f.m.MatchReader(r)
	return len(ids) > 0, err
}

// MatchBytesResult is MatchBytes returning the unified MatchResult:
// MatchedIDs carries the query source when it matched (the Filter analogue
// of a subscription id). A Filter registers no extraction, so Fragments is
// always nil — use FilterSet.AddExtract for fragment extraction.
func (f *Filter) MatchBytesResult(doc []byte) (MatchResult, error) {
	return f.m.MatchBytesResult(doc)
}

// MatchStringResult is MatchString returning the unified MatchResult.
func (f *Filter) MatchStringResult(xml string) (MatchResult, error) {
	return f.m.MatchStringResult(xml)
}

// MatchReaderResult is MatchReader returning the unified MatchResult,
// with the call's reader accounting.
func (f *Filter) MatchReaderResult(r io.Reader) (MatchResult, error) {
	return f.m.MatchReaderResult(r)
}

// Stats returns the live-memory accounting of the last (or current)
// document, against the paper's FS(Q)·⌈log₂ d⌉ floor. It counts what the
// engine holds: a predicate-free query runs on the lazy-DFA route and holds
// no frontier tuples at all.
func (f *Filter) Stats() MemStats { return f.m.engs[0].MemStats() }

// Match is the one-shot convenience: compile the query, stream the
// document, report the match. Queries outside the streamable fragment fall
// back to the in-memory evaluator.
func Match(querySrc, xml string) (bool, error) {
	q, err := Compile(querySrc)
	if err != nil {
		return false, err
	}
	if f, err := q.NewFilter(); err == nil {
		return f.MatchString(xml)
	}
	return q.MatchDocument(xml)
}

// MatchBytes filters one in-memory document through the byte-slice fast
// path, falling back to the in-memory evaluator for queries outside the
// streamable fragment. One-shot: callers matching many documents against
// the same query should hold a Filter and use Filter.MatchBytes, which
// reuses its tokenizer and symbol table across documents.
func (q *Query) MatchBytes(doc []byte) (bool, error) {
	if f, err := q.NewFilter(); err == nil {
		return f.MatchBytes(doc)
	}
	return q.MatchDocument(string(doc))
}

// Evaluate performs full (non-streaming) evaluation per the paper's
// FULLEVAL: it returns the string values of the nodes the query selects,
// in document order. The whole document is materialized; unlike the
// streaming filter this path supports the entire Forward XPath grammar
// including or/not and multi-variable predicates.
func (q *Query) Evaluate(xml string) ([]string, error) {
	d, err := tree.Parse(xml)
	if err != nil {
		return nil, err
	}
	return semantics.EvalStrings(q.q, d), nil
}

// EvaluateReader is Evaluate over an io.Reader.
func (q *Query) EvaluateReader(r io.Reader) ([]string, error) {
	d, err := tree.ParseReader(r)
	if err != nil {
		return nil, err
	}
	return semantics.EvalStrings(q.q, d), nil
}

// MatchDocument evaluates BOOLEVAL in memory (full grammar support).
func (q *Query) MatchDocument(xml string) (bool, error) {
	d, err := tree.Parse(xml)
	if err != nil {
		return false, err
	}
	return semantics.BoolEval(q.q, d), nil
}
