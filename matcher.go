package streamxpath

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
)

// backend is what a multi-query matcher is built on: internal/engine's
// sequential engine, or internal/parallel's pool of replicas of it. Its two
// match entry points return everything the call knows about its document
// in one engine.Outcome, assembled before whatever lock ran the document
// is released — the breach policy's verdict included.
type backend interface {
	Add(id string, q *query.Query) error
	AddExtract(id string, q *query.Query) error
	Remove(id string) bool
	Len() int
	IDs() []string
	SetLimits(limits.Limits)
	Stats() engine.Stats
	MatchBytes(doc []byte, mode engine.CaptureMode) (engine.Outcome, error)
	MatchReader(r io.Reader, chunkSize int, mode engine.CaptureMode) (engine.Outcome, error)
}

// matcher is the public surface FilterSet and FilterPool share, derived once
// from a backend: subscription management, limits and their breach policy,
// and the six Match methods,
// every one of which is a view of the one per-call MatchResult. Filter is
// the same thing over an engine holding one subscription, its id the query
// source, with the id lists narrowed to "it matched". It keeps
// nothing about a call after the call returns, so it adds no locking to its
// backend's: FilterPool's Match methods may be called from any number of
// goroutines, alongside SetLimits and SetChunkSize.
type matcher struct {
	b     backend
	chunk atomic.Int64
	lim   atomic.Pointer[Limits]
}

// Add compiles a subscription under the given id and registers it. Ids
// must be unique across the set. Queries outside the streamable fragment
// (see Query.NewFilter) are rejected. On a FilterPool it waits for
// in-flight Match calls to finish.
func (m *matcher) Add(id, querySrc string) error { return m.add(id, querySrc, false) }

// AddExtract is Add with fragment extraction enabled: when the
// subscription matches a document under a Match*Result call, the result
// carries the matched element's subtree (document-order-first match) —
// or the decoded attribute value for attribute-selecting queries — as a
// Fragment. The boolean Match methods ignore the flag entirely and keep
// their fast path.
func (m *matcher) AddExtract(id, querySrc string) error { return m.add(id, querySrc, true) }

func (m *matcher) add(id, querySrc string, extract bool) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if extract {
		err = m.b.AddExtract(id, q.q)
	} else {
		err = m.b.Add(id, q.q)
	}
	if err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// Remove deregisters a subscription, reporting whether it existed. On a
// FilterPool it waits for in-flight Match calls to finish.
func (m *matcher) Remove(id string) bool { return m.b.Remove(id) }

// Len returns the number of subscriptions.
func (m *matcher) Len() int { return m.b.Len() }

// IDs returns the subscription ids in insertion order.
func (m *matcher) IDs() []string { return m.b.IDs() }

// SetLimits configures the per-document resource budgets and breach
// policy (the zero value disables them). Limits persist across documents;
// a breach under LimitFail surfaces as a *LimitError, under LimitAbstain
// as a degraded result (MatchResult.Abstained). Either way the matcher
// stays usable — nothing ever panics, and no budget check allocates until
// a breach actually occurs. On a FilterPool it waits for in-flight Match
// calls to finish, so neither budgets nor policy change mid-document.
func (m *matcher) SetLimits(l Limits) {
	m.lim.Store(&l)
	m.b.SetLimits(l.internal())
}

// Limits returns the configured budgets.
func (m *matcher) Limits() Limits {
	if l := m.lim.Load(); l != nil {
		return *l
	}
	return Limits{}
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (m *matcher) SetChunkSize(n int) { m.chunk.Store(int64(n)) }

// Stats returns the engine statistics: the size of the shared structures
// and the work of the last document. FilterPool reports one replica's
// (replicas are identical in structure).
func (m *matcher) Stats() FilterSetStats { return m.b.Stats() }

// MatchBytes matches one in-memory document against every subscription
// and returns the ids that match, in insertion order, non-nil even when
// empty — the same answer from every matcher. It runs on the
// interned-symbol fast path: the tokenizer interns names into the shared
// symbol table and every matching layer dispatches on the resulting ids,
// so steady-state matching of a predicate-free subscription set performs
// zero allocations per event.
//
// The document is validated to its end, but dispatched only until every
// verdict is final. Once each subscription has either matched
// (matches latch, by monotonicity) or can no longer match (the dead-state
// analysis behind MatchReader's early exit), no later event can change the
// result, so the remainder is skimmed: every check the tokenizer makes —
// tag balance by name, attribute syntax and duplicates, references, content
// outside the root, MaxDepth and MaxTokenBytes — is still made, and a
// malformed or over-budget remainder still fails the call with the error
// it always did, but no event is built, no name interned, no text decoded
// and the matcher is not called. The ids, fragments, errors and
// MemStats.MaxDepth are those of dispatching everything; MemStats.Events
// counts the events dispatched, MatchResult.SkimmedBytes the bytes that
// were only validated. Verdicts are probed at document offsets 4 KiB,
// 8 KiB, 16 KiB, …, so a document shorter than 4 KiB is always dispatched
// whole. (MatchReader goes further and stops reading at the decision
// point, leaving the remainder unvalidated.) With more than one core, a
// remainder of at least two pieces (16 KiB each) is validated on every free
// core: helper goroutines check pieces ahead of the calling one, which
// adopts what they finished and validates the rest itself, so the outcome
// is the sequential skim's; Stats().SkimPieces counts the adopted pieces.
//
// Who owns the returned slice is the matcher's contract, stated on its
// type: FilterSet reuses it, FilterPool allocates it.
func (m *matcher) MatchBytes(doc []byte) ([]string, error) {
	res, err := m.matchBytes(doc, engine.CaptureOff)
	return res.MatchedIDs, err
}

// MatchBytesResult is MatchBytes returning the call's whole MatchResult:
// the matched ids plus, for extraction-enabled subscriptions (AddExtract),
// the matched element's subtree, and the call's own abstain flag and
// memory accounting. Subtree fragments are zero-copy subslices of doc —
// the raw bytes of the matched element, valid as long as doc is — while
// attribute-value fragments are decoded copies.
func (m *matcher) MatchBytesResult(doc []byte) (MatchResult, error) {
	return m.matchBytes(doc, engine.CaptureSlice)
}

// MatchString is MatchBytes over a string. The document is copied into a
// buffer of the call's own, and the returned slice is always freshly
// allocated.
func (m *matcher) MatchString(xml string) ([]string, error) {
	res, err := m.matchString(xml, engine.CaptureOff)
	return res.MatchedIDs, err
}

// MatchStringResult is MatchBytesResult over a string. The id slice is
// freshly allocated, and fragments subslice the call's private copy of the
// document, so the caller owns every byte of the result outright.
func (m *matcher) MatchStringResult(xml string) (MatchResult, error) {
	return m.matchString(xml, engine.CaptureSlice)
}

// MatchReader streams one document past every subscription through the
// chunked interned-symbol byte path and returns the ids that match, in
// insertion order, non-nil even when empty. The document is read in
// fixed-size chunks (SetChunkSize; DefaultChunkSize otherwise) and
// tokenized by a resumable tokenizer that retains only the unconsumed
// tail across chunk boundaries, so peak memory is bounded by chunk size
// plus open-element depth rather than document size, and steady-state
// per-event cost is allocation-free — the same pipeline as MatchBytes,
// without buffering the document. When every subscription's verdict is
// decided mid-stream the reader stops being consumed —
// MatchResult.ReaderStats reports the early exit, and whether it was
// (partly) negative — and the document's remainder is not validated.
// Positive verdicts latch by monotonicity; negative ones by the dead-state
// analysis (no continuation of the document can reach the subscription's
// remaining steps), so a `/news/...`-only set abandons a <catalog>
// document at its first start tag. Ownership of the returned slice is as
// for MatchBytes.
func (m *matcher) MatchReader(r io.Reader) ([]string, error) {
	res, err := m.matchReader(r, engine.CaptureOff)
	return res.MatchedIDs, err
}

// MatchReaderResult is MatchReader returning the call's whole MatchResult:
// the matched ids plus, for extraction-enabled subscriptions (AddExtract),
// the matched subtrees re-serialized to canonical form — the input is
// never buffered whole, so reader-path fragments are rebuilt from the
// event stream (attribute order and quoting normalized, empty-element
// tags expanded) and freshly allocated — and the call's own reader and
// memory accounting. When extraction subscriptions have open candidate
// captures, early exit is deferred until they finalize, so a decided
// verdict never truncates a fragment.
func (m *matcher) MatchReaderResult(r io.Reader) (MatchResult, error) {
	return m.matchReader(r, engine.CaptureSerial)
}

func (m *matcher) matchBytes(doc []byte, mode engine.CaptureMode) (MatchResult, error) {
	out, err := m.b.MatchBytes(doc, mode)
	return result(out, err)
}

func (m *matcher) matchString(xml string, mode engine.CaptureMode) (MatchResult, error) {
	res, err := m.matchBytes([]byte(xml), mode)
	if err == nil {
		res.MatchedIDs = slices.Clone(res.MatchedIDs)
	}
	return res, err
}

func (m *matcher) matchReader(r io.Reader, mode engine.CaptureMode) (MatchResult, error) {
	out, err := m.b.MatchReader(r, int(m.chunk.Load()), mode)
	res, err := result(out, err)
	res.ReaderStats = readerStats(out.Read)
	res.ReaderStats.Abstained = res.Abstained
	return res, err
}

// result turns one call's outcome into its MatchResult. The breach policy
// was applied where the document ran: an abstained outcome carries the
// verdicts already decided (definitive, by monotonicity) and the fragments
// finalized before the breach, with a nil error. An error passes through,
// beside a result that holds the failed document's accounting and no
// verdicts.
func result(out engine.Outcome, err error) (MatchResult, error) {
	res := MatchResult{MemStats: out.Mem, SkimmedBytes: out.Skimmed, Abstained: out.Abstained}
	if err != nil {
		return res, err
	}
	res.MatchedIDs = out.IDs
	if res.MatchedIDs == nil {
		res.MatchedIDs = []string{}
	}
	res.Fragments = toFragments(out.Frags)
	return res, nil
}
