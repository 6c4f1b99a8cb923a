// Package streamxpath is a streaming XPath filtering library reproducing
// "On the Memory Requirements of XPath Evaluation over XML Streams"
// (Bar-Yossef, Fontoura, Josifovski; PODS 2004 / JCSS 2007).
//
// It provides:
//
//   - a compiler and single-pass streaming filter for Forward XPath queries
//     (child/descendant/attribute axes, wildcards, conjunctive predicates
//     with comparisons, arithmetic and string functions), implementing the
//     paper's Section 8 algorithm with memory
//     O(|Q|·r·(log|Q|+log d+log w) + w) bits — near the paper's lower
//     bounds;
//   - an in-memory reference evaluator implementing the paper's exact
//     selection semantics (Definitions 3.1-3.6), used for full evaluation
//     and as a correctness oracle;
//   - a multi-query dissemination engine (FilterSet): thousands of
//     standing subscriptions compiled into one shared prefix-sharing
//     index — a combined NFA for linear queries, a shared frontier trie
//     for predicated ones — matched against each document in a single
//     pass with per-event cost governed by structure sharing rather than
//     subscription count;
//   - parallel dissemination across cores, behind the same methods as
//     FilterSet: FilterPool runs full engine replicas matching whole
//     documents concurrently for feed workloads; ParallelFilterSet shards
//     the subscriptions over N engine instances bound to one concurrent
//     symbol table and fans each document's (once-tokenized) event stream
//     out to them; AdaptiveFilterSet picks between the two per document.
//     Every Match*Result call, on every matcher, returns one MatchResult
//     — verdicts, extracted fragments, abstain flag, reader and memory
//     accounting — that is that call's own, however many run at once;
//   - per-document resource budgets (Limits) with typed errors or sound
//     graceful degradation (LimitAbstain), and live-memory accounting
//     (MemStats) against the paper's FS(Q)·⌈log₂ d⌉ lower bound;
//   - query analysis: frontier size (the paper's lower-bound quantity),
//     membership in Redundancy-free XPath and the other fragments the
//     paper's theorems quantify over;
//   - executable lower-bound experiments: the fooling-set and
//     set-disjointness document families of Sections 4 and 7, machine-
//     verified, with Alice/Bob protocols run over the real filter's
//     serialized state (Lemma 3.7).
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
	"fmt"
	"io"

	"streamxpath/internal/core"
	"streamxpath/internal/fragment"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/symtab"
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

// Filter is a single-pass streaming matcher for one query. A Filter is
// reusable across documents but not safe for concurrent use; create one
// per goroutine.
type Filter struct {
	f   *core.Filter
	tab *symtab.Table
	tok *sax.TokenizerBytes

	// Chunked-reader state: the resumable tokenizer of MatchReader, its
	// chunk size (0 = DefaultChunkSize), and the MatchString staging
	// buffer. procFn/decFn are the streamDoc callbacks, built once so
	// repeat MatchReader calls allocate nothing.
	stok   *sax.StreamTokenizer
	chunk  int
	buf    []byte
	procFn func(sax.ByteEvent) error
	decFn  func() bool

	// lim holds the per-document resource budgets and breach policy.
	lim Limits
}

// NewFilter compiles the streaming filter. It returns an error if the
// query is outside the streamable fragment (the Section 8 algorithm
// supports leaf-only-value-restricted univariate conjunctive queries;
// disjunction, negation and multi-variable predicates require the
// in-memory Evaluate path).
func (q *Query) NewFilter() (*Filter, error) {
	f, err := core.Compile(q.q)
	if err != nil {
		return nil, err
	}
	tab := symtab.New()
	f.BindSymbols(tab)
	return &Filter{f: f, tab: tab}, nil
}

// verdict is what one Filter match call decided: the answer, whether it is
// the provisional one a breached budget left under LimitAbstain, and — for
// a reader call — the input accounting.
type verdict struct {
	ok, abstained bool
	rs            ReaderStats
}

// MatchReader streams an XML document from r through the chunked
// interned-symbol byte path: the document is read in fixed-size chunks
// (SetChunkSize; DefaultChunkSize otherwise), tokenized by a resumable
// tokenizer that retains only the unconsumed tail across chunk
// boundaries, and matched event by event — peak memory is bounded by the
// chunk size plus the open-element depth, never the document size, and
// the steady-state per-event cost is allocation-free. The moment the
// verdict is decided the reader stops being consumed; MatchReaderResult's
// ReaderStats reports the early exit, how many bytes it needed, and
// whether the decision was negative. A provisional match is final by
// monotonicity; a negative verdict latches when the dead-state analysis
// proves no continuation of the document can satisfy one of the query
// root's obligations (e.g. /news/item against a <catalog> document dies at
// the first start tag). Note that on early exit the remainder of the
// document is not validated.
func (f *Filter) MatchReader(r io.Reader) (bool, error) {
	v, err := f.matchReader(r)
	return v.ok, err
}

func (f *Filter) matchReader(r io.Reader) (verdict, error) {
	f.f.Reset()
	if f.stok == nil {
		f.stok = sax.NewStreamTokenizer(f.tab)
		f.stok.SetLimits(f.lim.internal())
		f.procFn = f.f.ProcessBytes
		f.decFn = f.f.Decided
	} else {
		f.stok.Reset()
	}
	rs, _, err := streamDoc(r, f.stok, f.chunk, f.procFn, f.decFn)
	if err != nil {
		v, err := f.limited(err)
		v.rs = rs
		v.rs.Abstained = v.abstained
		return v, err
	}
	if !f.f.Done() {
		if !rs.EarlyExit {
			return verdict{}, fmt.Errorf("streamxpath: document ended prematurely")
		}
		// Decided mid-stream: the provisional-scope walk yields the final
		// verdict — true on a positive decision, false when the dead-state
		// analysis killed an obligation.
		matched := f.f.WouldMatchIfClosedNow()
		rs.DecidedNegative = !matched
		return verdict{ok: matched, rs: rs}, nil
	}
	return verdict{ok: f.f.Matched(), rs: rs}, nil
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (f *Filter) SetChunkSize(n int) { f.chunk = n }

// SetLimits configures the per-document resource budgets and breach
// policy (the zero value disables them). Limits persist across
// documents; a breach under LimitFail surfaces as a *LimitError, under
// LimitAbstain as a degraded verdict: the provisional one at the moment of
// the breach, flagged by MatchResult.Abstained — true is definitive (a
// provisional match is final by monotonicity), false means "not matched
// within budget". Either way the filter stays reusable, and no budget
// check allocates until a breach actually occurs.
func (f *Filter) SetLimits(l Limits) {
	f.lim = l
	f.f.SetLimits(l.internal())
	if f.tok != nil {
		f.tok.SetLimits(l.internal())
	}
	if f.stok != nil {
		f.stok.SetLimits(l.internal())
	}
}

// Limits returns the configured budgets.
func (f *Filter) Limits() Limits { return f.lim }

// limited applies the breach policy to an error carrying a *LimitError:
// under LimitAbstain the provisional verdict at the moment of the breach
// comes back with a nil error (a true verdict is already final by
// monotonicity). Any other error passes through unchanged.
func (f *Filter) limited(err error) (verdict, error) {
	if f.lim.Policy == LimitAbstain && limitBreach(err) {
		return verdict{ok: f.f.WouldMatchIfClosedNow(), abstained: true}, nil
	}
	return verdict{}, err
}

// MatchString filters an XML document given as a string: it is staged
// into a reusable buffer and matched through the MatchBytes fast path,
// so the whole document is validated (no early exit).
func (f *Filter) MatchString(xml string) (bool, error) {
	f.buf = append(f.buf[:0], xml...)
	return f.MatchBytes(f.buf)
}

// MatchBytes filters an XML document held in a byte slice through the
// interned-symbol fast path: names are interned once into the filter's
// symbol table, events carry byte slices instead of strings, and
// matching dispatches on symbols. In the steady state (document shapes
// and names already seen) the whole pipeline allocates nothing. Unlike
// MatchReader the document must be in memory; the filter retains its
// tokenizer and symbol table across calls, which is what makes repeat
// matching allocation-free.
func (f *Filter) MatchBytes(doc []byte) (bool, error) {
	v, err := f.matchBytes(doc)
	return v.ok, err
}

func (f *Filter) matchBytes(doc []byte) (verdict, error) {
	f.f.Reset()
	if l := f.lim.MaxDocBytes; l > 0 && int64(len(doc)) > l {
		return f.limited(fmt.Errorf("streamxpath: %w",
			&limits.Error{Resource: "doc-bytes", Limit: l, Observed: int64(len(doc))}))
	}
	if f.tok == nil {
		f.tok = sax.NewTokenizerBytes(doc, f.tab)
		f.tok.SetLimits(f.lim.internal())
	} else {
		f.tok.Reset(doc)
	}
	for {
		e, err := f.tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return f.limited(err)
		}
		if err := f.f.ProcessBytes(e); err != nil {
			return f.limited(err)
		}
	}
	if !f.f.Done() {
		return verdict{}, fmt.Errorf("streamxpath: document ended prematurely")
	}
	return verdict{ok: f.f.Matched()}, nil
}

// result assembles a single-query MatchResult from a call's verdict:
// MatchedIDs carries the query source when it matched (the Filter analogue
// of a subscription id), and the memory accounting maps the filter's
// MemoryStats onto the engine-level MemStats shape. A standalone Filter
// has no extraction registration, so Fragments is always nil — use
// FilterSet.AddExtract for fragment extraction.
func (f *Filter) result(v verdict, err error) (MatchResult, error) {
	if err != nil {
		return MatchResult{}, err
	}
	res := MatchResult{Abstained: v.abstained, ReaderStats: v.rs}
	if v.ok {
		res.MatchedIDs = []string{f.f.Query().String()}
	}
	st := f.Stats()
	res.MemStats = MemStats{
		Events:            st.Events,
		PeakLiveTuples:    st.PeakFrontierTuples,
		PeakBufferedBytes: st.PeakBufferBytes,
		MaxDepth:          st.MaxDepth,
		EstimatedBits:     st.EstimatedBits,
		LowerBoundBits:    st.LowerBoundBits,
		OptimalityRatio:   st.OptimalityRatio,
	}
	return res, nil
}

// MatchBytesResult is MatchBytes returning the unified MatchResult.
func (f *Filter) MatchBytesResult(doc []byte) (MatchResult, error) {
	return f.result(f.matchBytes(doc))
}

// MatchStringResult is MatchString returning the unified MatchResult.
func (f *Filter) MatchStringResult(xml string) (MatchResult, error) {
	f.buf = append(f.buf[:0], xml...)
	return f.result(f.matchBytes(f.buf))
}

// MatchReaderResult is MatchReader returning the unified MatchResult,
// with the call's reader accounting.
func (f *Filter) MatchReaderResult(r io.Reader) (MatchResult, error) {
	return f.result(f.matchReader(r))
}

// MemoryStats reports the filter's peak memory use on the last document,
// in the units of the paper's Theorem 8.8.
type MemoryStats struct {
	// Events is the number of SAX events processed.
	Events int
	// PeakFrontierTuples is the maximum number of simultaneous frontier
	// tuples (bounded by FS(Q) for path consistency-free closure-free
	// queries and by |Q|·r in general).
	PeakFrontierTuples int
	// PeakBufferBytes is the maximum buffered text (bounded by the text
	// width w).
	PeakBufferBytes int
	// MaxDepth is the maximum document depth reached (the log d term).
	MaxDepth int
	// EstimatedBits applies the paper's cost model:
	// tuples·(log|Q|+log d+log w) + 8·buffer.
	EstimatedBits int
	// LowerBoundBits is the paper's floor for the same document shape:
	// FS(Q)·log d bits — the frontier-size bound of Section 6 times the
	// Ω(log d) depth term of Section 4.
	LowerBoundBits int
	// OptimalityRatio is EstimatedBits / LowerBoundBits — how many times
	// the information-theoretic minimum the filter's accounted peak state
	// occupied.
	OptimalityRatio float64
}

// Stats returns the memory statistics of the last (or current) document.
func (f *Filter) Stats() MemoryStats {
	s := f.f.Stats()
	out := MemoryStats{
		Events:             s.Events,
		PeakFrontierTuples: s.PeakTuples,
		PeakBufferBytes:    s.PeakBufferBytes,
		MaxDepth:           s.MaxLevel,
		EstimatedBits:      s.EstimatedBits(f.f.Query().Size()),
	}
	out.LowerBoundBits = core.LowerBoundBits(fragment.FrontierSize(f.f.Query()), s.MaxLevel)
	if out.LowerBoundBits > 0 {
		out.OptimalityRatio = float64(out.EstimatedBits) / float64(out.LowerBoundBits)
	}
	return out
}

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
	d, err := tree.Parse(xml)
	if err != nil {
		return false, err
	}
	return semantics.BoolEval(q.q, d), nil
}

// MatchBytes filters one in-memory document through the byte-slice fast
// path, falling back to the in-memory evaluator for queries outside the
// streamable fragment. One-shot: callers matching many documents against
// the same query should hold a Filter and use Filter.MatchBytes, which
// reuses its tokenizer and symbol table across documents.
func (q *Query) MatchBytes(doc []byte) (bool, error) {
	f, err := q.NewFilter()
	if err == nil {
		return f.MatchBytes(doc)
	}
	d, err := tree.Parse(string(doc))
	if err != nil {
		return false, err
	}
	return semantics.BoolEval(q.q, d), nil
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
