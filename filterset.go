package streamxpath

import (
	"fmt"
	"io"

	"streamxpath/internal/engine"
	"streamxpath/internal/sax"
)

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
// Per subscription the engine preserves the standalone Filter's
// semantics: answers are identical to running each query through its own
// core filter, and a subscription whose match has become definitive
// (conjunctive matching is monotone, so a provisional match is final)
// stops consuming events.
//
// Add and Remove may be called between documents. They patch the shared
// indexes in place, in time proportional to the query rather than to the
// set, and the engine's warm state (the NFA's memoized transitions)
// survives them. A FilterSet is not safe
// for concurrent use; create one per goroutine — or use the multi-core
// engines: ParallelFilterSet (one document fanned out to subscription
// shards) and FilterPool (documents matched concurrently on replicas).
type FilterSet struct {
	e *engine.Engine
	// ids is the reusable result buffer of the MatchBytes fast path.
	ids []string

	// Chunked-reader state: the resumable tokenizer of MatchReader, its
	// chunk size (0 = DefaultChunkSize), the last call's stats, and the
	// staging buffer of MatchString. procFn/decFn are the streamDoc
	// callbacks, built once so repeat MatchReader calls allocate nothing.
	stok   *sax.StreamTokenizer
	chunk  int
	rs     ReaderStats
	buf    []byte
	procFn func(sax.ByteEvent) error
	decFn  func() bool

	// lim holds the per-document resource budgets and the breach policy;
	// abstained records whether the last Match call degraded under
	// LimitAbstain.
	lim       Limits
	abstained bool
}

// NewFilterSet returns an empty set.
func NewFilterSet() *FilterSet { return &FilterSet{e: engine.New()} }

// Add compiles a subscription under the given id and merges it into the
// shared engine. Ids must be unique. Queries outside the streamable
// fragment (see Query.NewFilter) are rejected.
func (s *FilterSet) Add(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.e.Add(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// AddExtract is Add with fragment extraction enabled: when the
// subscription matches a document under a Match*Result call, the result
// carries the matched element's subtree (document-order-first match) —
// or the decoded attribute value for attribute-selecting queries — as a
// Fragment. The boolean Match methods ignore the flag entirely and keep
// their allocation-free fast path.
func (s *FilterSet) AddExtract(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.e.AddExtract(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// Remove deregisters a subscription, reporting whether it existed.
func (s *FilterSet) Remove(id string) bool { return s.e.Remove(id) }

// Len returns the number of subscriptions.
func (s *FilterSet) Len() int { return s.e.Len() }

// IDs returns the subscription ids in insertion order.
func (s *FilterSet) IDs() []string { return s.e.IDs() }

// Reset prepares the set for the next document. MatchReader resets
// implicitly; Reset exists for callers driving the engine event by event
// across documents.
func (s *FilterSet) Reset() { s.e.Reset() }

// SetLimits configures the per-document resource budgets and breach
// policy (the zero value disables them). Limits persist across documents
// and Reset; a breach under LimitFail surfaces as a *LimitError, under
// LimitAbstain as a degraded result (see Abstained). Either way the set
// stays usable — nothing ever panics, and no budget check allocates until
// a breach actually occurs.
func (s *FilterSet) SetLimits(l Limits) {
	s.lim = l
	s.e.SetLimits(l.internal())
	if s.stok != nil {
		s.stok.SetLimits(l.internal())
	}
}

// Limits returns the configured budgets.
func (s *FilterSet) Limits() Limits { return s.lim }

// Abstained reports whether the last Match call hit a resource budget
// under LimitAbstain and returned only the verdicts decided before the
// breach.
//
// Deprecated: use the Match*Result methods, whose MatchResult.Abstained
// is the same call's flag rather than whatever call finished last.
func (s *FilterSet) Abstained() bool { return s.abstained }

// MemStats returns the live-memory accounting of the last document: the
// matching state's component peaks, the paper's cost model applied to
// them, and the optimality ratio against the lower bound.
//
// Deprecated: use the Match*Result methods, whose MatchResult.MemStats
// is the same call's accounting rather than the last call's.
func (s *FilterSet) MemStats() MemStats { return s.e.MemStats() }

// result assembles the current document's MatchResult from the engine
// state. Fragment collection and the memory accounting run only on the
// Result paths (mode != CaptureOff), keeping the boolean wrappers'
// per-document cost unchanged.
func (s *FilterSet) result(doc []byte, mode engine.CaptureMode, copyAll bool) MatchResult {
	res := MatchResult{MatchedIDs: s.appendIDs(), Abstained: s.abstained}
	if mode != engine.CaptureOff {
		res.Fragments = toFragments(s.e.AppendFragments(nil, doc), copyAll)
		res.MemStats = s.e.MemStats()
	}
	return res
}

// degraded applies the breach policy to an error carrying a
// *LimitError: under LimitAbstain the verdicts already decided
// (definitive, by monotonicity) — and the fragments finalized before
// the breach — come back with a nil error. Any other error passes
// through unchanged.
func (s *FilterSet) degraded(err error, doc []byte, mode engine.CaptureMode, copyAll bool) (MatchResult, error) {
	if s.lim.Policy == LimitAbstain && limitBreach(err) {
		s.abstained = true
		return s.result(doc, mode, copyAll), nil
	}
	return MatchResult{}, err
}

// MatchReader streams one document past every subscription through the
// chunked interned-symbol byte path and returns the ids that match, in
// insertion order. The document is read in fixed-size chunks
// (SetChunkSize; DefaultChunkSize otherwise) and tokenized by a
// resumable tokenizer that retains only the unconsumed tail across chunk
// boundaries, so peak memory is bounded by chunk size plus open-element
// depth rather than document size, and steady-state per-event cost is
// allocation-free — the same pipeline as MatchBytes, without buffering
// the document. When every subscription's verdict is decided mid-stream
// the reader stops being consumed — ReaderStats reports the early exit,
// and whether it was (partly) negative — and the document's remainder is
// not validated. Positive verdicts latch by monotonicity; negative ones
// by the dead-state analysis (no continuation of the document can reach
// the subscription's remaining steps), so a `/news/...`-only set
// abandons a <catalog> document at its first start tag. The result is
// non-nil even when empty and is reused by the next Match call on this
// set.
func (s *FilterSet) MatchReader(r io.Reader) ([]string, error) {
	res, err := s.matchReader(r, engine.CaptureOff)
	return res.MatchedIDs, err
}

// MatchReaderResult is MatchReader returning the unified MatchResult:
// the matched ids plus, for extraction-enabled subscriptions
// (AddExtract), the matched subtrees re-serialized to canonical form —
// the input is never buffered whole, so reader-path fragments are
// rebuilt from the event stream (attribute order and quoting
// normalized, empty-element tags expanded) and freshly allocated. The
// result also carries this call's own reader and memory accounting.
// When extraction subscriptions have open candidate captures, early
// exit is deferred until they finalize, so a decided verdict never
// truncates a fragment.
func (s *FilterSet) MatchReaderResult(r io.Reader) (MatchResult, error) {
	return s.matchReader(r, engine.CaptureSerial)
}

func (s *FilterSet) matchReader(r io.Reader, mode engine.CaptureMode) (MatchResult, error) {
	// Reset up front so a previous document that failed mid-stream (and
	// never reached endDocument) cannot wedge the engine in its
	// half-open state.
	s.abstained = false
	s.e.SetCapture(mode)
	s.e.Reset()
	if s.stok == nil {
		s.stok = sax.NewStreamTokenizer(s.e.Symbols())
		s.stok.SetLimits(s.lim.internal())
		s.procFn = func(ev sax.ByteEvent) error {
			if err := s.e.ProcessBytes(ev); err != nil {
				return fmt.Errorf("streamxpath: %w", err)
			}
			return nil
		}
		s.decFn = s.e.Decided
	} else {
		s.stok.Reset()
	}
	sawEnd, err := streamDoc(r, s.stok, s.chunk, &s.rs, s.procFn, s.decFn)
	if err != nil {
		res, err := s.degraded(err, nil, mode, false)
		s.rs.Abstained = s.abstained
		res.ReaderStats = s.rs
		return res, err
	}
	if !sawEnd && !s.rs.EarlyExit {
		return MatchResult{}, fmt.Errorf("streamxpath: document ended prematurely")
	}
	res := s.result(nil, mode, false)
	s.rs.DecidedNegative = s.rs.EarlyExit && len(res.MatchedIDs) < s.e.Len()
	res.ReaderStats = s.rs
	return res, nil
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (s *FilterSet) SetChunkSize(n int) { s.chunk = n }

// ReaderStats returns the input accounting of the last MatchReader call:
// bytes read, bytes tokenized, and whether every verdict was decided
// before end of input.
//
// Deprecated: use MatchReaderResult, whose MatchResult.ReaderStats is
// the same call's accounting rather than the last call's.
func (s *FilterSet) ReaderStats() ReaderStats { return s.rs }

// MatchString matches a document given as a string: it is staged into a
// reusable buffer and matched through the MatchBytes fast path (the
// whole document is therefore validated to its end, though dispatched
// only until every verdict is final — see MatchBytes). Unlike MatchBytes
// and MatchReader the returned slice is freshly allocated.
func (s *FilterSet) MatchString(xml string) ([]string, error) {
	s.buf = append(s.buf[:0], xml...)
	res, err := s.matchBytes(s.buf, engine.CaptureOff, false)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.MatchedIDs))
	copy(out, res.MatchedIDs)
	return out, nil
}

// MatchStringResult is MatchString returning the unified MatchResult.
// The staging buffer is reused across calls, so every fragment —
// subtree or attribute value — is freshly allocated and owned by the
// caller. MatchedIDs is freshly allocated too, matching MatchString.
func (s *FilterSet) MatchStringResult(xml string) (MatchResult, error) {
	s.buf = append(s.buf[:0], xml...)
	res, err := s.matchBytes(s.buf, engine.CaptureSlice, true)
	if err != nil {
		return MatchResult{}, err
	}
	out := make([]string, len(res.MatchedIDs))
	copy(out, res.MatchedIDs)
	res.MatchedIDs = out
	return res, nil
}

// MatchBytes matches one in-memory document through the interned-symbol
// fast path: the tokenizer interns names into the engine's shared symbol
// table and every matching layer dispatches on the resulting ids, so
// steady-state matching of a predicate-free subscription set performs
// zero allocations per event (and zero per document once warm).
//
// The document is validated to its end, but dispatched only until every
// verdict is final. Once each subscription has either matched (matches
// latch, by monotonicity) or can no longer match (the dead-state analysis
// behind MatchReader's early exit), no later event can change the result,
// so the remainder is skimmed: every check the tokenizer makes — tag
// balance by name, attribute syntax and duplicates, references, content
// outside the root, MaxDepth and MaxTokenBytes — is still made, and a
// malformed or over-budget remainder still fails the call with the error
// it always did, but no event is built, no name interned, no text decoded
// and the matcher is not called. The ids, fragments, errors and
// MemStats.MaxDepth are those of dispatching everything; MemStats.Events
// counts the events dispatched, MatchResult.SkimmedBytes the bytes that
// were only validated. Verdicts are probed at document offsets 4 KiB,
// 8 KiB, 16 KiB, …, so a document shorter than 4 KiB is always dispatched
// whole. (MatchReader goes further and stops reading at the decision
// point, leaving the remainder unvalidated.)
//
// The returned slice is reused by the next MatchBytes call — copy it if it
// must outlive the call. It is non-nil even when empty.
func (s *FilterSet) MatchBytes(doc []byte) ([]string, error) {
	res, err := s.matchBytes(doc, engine.CaptureOff, false)
	return res.MatchedIDs, err
}

// MatchBytesResult is MatchBytes returning the unified MatchResult: the
// matched ids plus, for extraction-enabled subscriptions (AddExtract),
// the matched element's subtree. Subtree fragments are zero-copy
// subslices of doc — the raw bytes of the matched element, valid as
// long as doc is — while attribute-value fragments are decoded copies.
// The result also carries this call's abstain flag and memory
// accounting, replacing the last-call accessors.
func (s *FilterSet) MatchBytesResult(doc []byte) (MatchResult, error) {
	return s.matchBytes(doc, engine.CaptureSlice, false)
}

func (s *FilterSet) matchBytes(doc []byte, mode engine.CaptureMode, copyAll bool) (MatchResult, error) {
	s.abstained = false
	skimmed, err := s.e.MatchBuffered(doc, mode)
	var res MatchResult
	if err == nil {
		res = s.result(doc, mode, copyAll)
	} else if res, err = s.degraded(err, doc, mode, copyAll); err != nil {
		return res, err
	}
	res.SkimmedBytes = skimmed
	return res, nil
}

// appendIDs refills the reusable result buffer with the matched ids.
func (s *FilterSet) appendIDs() []string {
	if s.ids == nil {
		s.ids = make([]string, 0, 8)
	}
	s.ids = s.e.AppendMatchedIDs(s.ids[:0])
	return s.ids
}

// FilterSetStats reports the size of the shared structures and the work
// of the last document — how much evaluation the subscriptions actually
// share. SpineSteps/SharedStates is the prefix-sharing factor.
type FilterSetStats = engine.Stats

// Stats returns the engine statistics.
func (s *FilterSet) Stats() FilterSetStats { return s.e.Stats() }
