package streamxpath

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"streamxpath/internal/engine"
	"streamxpath/internal/query"
)

// matcher is the one public matcher, the surface FilterSet, FilterPool and
// Filter share: subscription management, limits and their breach policy, and
// the six Match methods, every one of which is a view of the one per-call
// MatchResult. It holds one subscription index and a ring of engines over it
// (engine.New, then Replica), each with per-document state of its own. A
// Match call checks an engine out of the ring, builds the call's whole
// MatchResult while it still holds it, and puts it back; a panic on the way
// fails that document alone with a *PanicError and quarantines the engine
// (Rebuild). FilterSet is a ring of one, and so is Filter, holding one
// subscription whose id is the query source, with the id lists narrowed to
// "it matched". A FilterPool's ring holds N engines, so its Match methods may
// be called from any number of goroutines, alongside SetLimits and
// SetChunkSize.
type matcher struct {
	engs []*engine.Engine // over one index; Add and Remove go through engs[0]
	idle chan *engine.Engine
	// mu serializes the calls that take the whole ring (Add, Remove,
	// SetLimits, Stats) and the index reads outside it (Len, IDs).
	mu sync.Mutex

	// reuse makes ids the buffer the Bytes and Reader matches append to
	// (FilterSet, Filter); otherwise each call's ids are its own.
	reuse bool
	ids   []string

	chunk atomic.Int64
	lim   atomic.Pointer[Limits]

	// fault, when non-nil, is called with the checked-out engine inside the
	// recovery region: the fault-injection hook of the isolation tests.
	fault func(*engine.Engine)
}

// init gives the matcher an empty index and a ring of n engines over it.
func (m *matcher) init(n int, reuse bool) {
	m.engs = []*engine.Engine{engine.New()}
	for len(m.engs) < n {
		m.engs = append(m.engs, m.engs[0].Replica())
	}
	m.idle = make(chan *engine.Engine, n)
	for _, e := range m.engs {
		m.idle <- e
	}
	m.reuse = reuse
}

// acquireAll checks every engine out of the ring, waiting for in-flight
// matches to complete. The caller holds mu and must releaseAll.
func (m *matcher) acquireAll() {
	for range m.engs {
		<-m.idle
	}
}

func (m *matcher) releaseAll() {
	for _, e := range m.engs {
		m.idle <- e
	}
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
	if err := m.link(id, q.q, extract); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// link adds a compiled subscription to the index, once for every engine.
func (m *matcher) link(id string, q *query.Query, extract bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquireAll()
	defer m.releaseAll()
	if extract {
		return m.engs[0].AddExtract(id, q)
	}
	return m.engs[0].Add(id, q)
}

// Remove deregisters a subscription, reporting whether it existed. On a
// FilterPool it waits for in-flight Match calls to finish.
func (m *matcher) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquireAll()
	defer m.releaseAll()
	return m.engs[0].Remove(id)
}

// Len returns the number of subscriptions. It reads the index under mu
// alone: matches read it too, and only a mutation, which holds mu, writes it.
func (m *matcher) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engs[0].Len()
}

// IDs returns the subscription ids in insertion order.
func (m *matcher) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engs[0].IDs()
}

// SetLimits configures the per-document resource budgets and breach
// policy (the zero value disables them). Limits persist across documents;
// a breach under LimitFail surfaces as a *LimitError, under LimitAbstain
// as a degraded result (MatchResult.Abstained). Either way the matcher
// stays usable — nothing ever panics, and no budget check allocates until
// a breach actually occurs. On a FilterPool it waits for in-flight Match
// calls to finish, so neither budgets nor policy change mid-document.
func (m *matcher) SetLimits(l Limits) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Stored under mu, so that of two concurrent calls the one whose budgets
	// every engine enforces is the one Limits reports; and before the
	// in-flight documents finish, so that Limits reports it at once.
	m.lim.Store(&l)
	m.acquireAll()
	defer m.releaseAll()
	for _, e := range m.engs {
		e.SetLimits(l)
	}
}

// Limits returns the configured budgets.
func (m *matcher) Limits() Limits {
	if l := m.lim.Load(); l != nil {
		return *l
	}
	return Limits{}
}

// SetChunkSize sets the largest read MatchReader makes (n <= 0 restores
// DefaultChunkSize). Each document's reads start at 4 KiB and double, up
// to it, only as the document fills them, whichever engine reads it; a size
// of 4 KiB or less is every read's.
func (m *matcher) SetChunkSize(n int) { m.chunk.Store(int64(n)) }

// Stats returns the engine statistics: the size of the shared structures
// and the work of the last document. FilterPool reports its first engine's
// (the index's sizes and DFA memo are every engine's; per-document work is
// that engine's). On a FilterPool it waits for in-flight Match calls to
// finish.
func (m *matcher) Stats() FilterSetStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquireAll()
	defer m.releaseAll()
	return m.engs[0].Stats()
}

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
// were only validated. Verdicts are probed after every batch of events
// (64 at most), so whatever its length a document is dispatched at most
// to the end of the batch in which it was decided. (MatchReader goes
// further and stops reading at the decision point, leaving the remainder
// unvalidated.) With more than one core, a
// remainder of at least two pieces (16 KiB each) is validated on every free
// core: helper goroutines check pieces ahead of the calling one, which
// adopts what they finished and validates the rest itself, so the outcome
// is the sequential skim's; Stats().SkimPieces counts the adopted pieces.
//
// Who owns the returned slice is the matcher's contract, stated on its
// type: FilterSet reuses it, FilterPool allocates it.
func (m *matcher) MatchBytes(doc []byte) ([]string, error) {
	var res MatchResult
	err := m.matchBytes(&res, doc, engine.CaptureOff, false)
	return res.MatchedIDs, err
}

// MatchBytesResult is MatchBytes returning the call's whole MatchResult:
// the matched ids plus, for extraction-enabled subscriptions (AddExtract),
// the matched element's subtree, and the call's own abstain flag and
// memory accounting. Subtree fragments are zero-copy subslices of doc —
// the raw bytes of the matched element, valid as long as doc is — while
// attribute-value fragments are decoded copies.
func (m *matcher) MatchBytesResult(doc []byte) (res MatchResult, err error) {
	err = m.matchBytes(&res, doc, engine.CaptureSlice, false)
	return res, err
}

// MatchString is MatchBytes over a string. The document is copied into a
// buffer of the call's own, and the returned slice is always freshly
// allocated.
func (m *matcher) MatchString(xml string) ([]string, error) {
	var res MatchResult
	err := m.matchBytes(&res, []byte(xml), engine.CaptureOff, true)
	return res.MatchedIDs, err
}

// MatchStringResult is MatchBytesResult over a string. The id slice is
// freshly allocated, and fragments subslice the call's private copy of the
// document, so the caller owns every byte of the result outright.
func (m *matcher) MatchStringResult(xml string) (res MatchResult, err error) {
	err = m.matchBytes(&res, []byte(xml), engine.CaptureSlice, true)
	return res, err
}

// MatchReader streams one document past every subscription through the
// chunked interned-symbol byte path and returns the ids that match, in
// insertion order, non-nil even when empty. The document is read in
// chunks of at most the chunk size (SetChunkSize; DefaultChunkSize
// otherwise) and tokenized by a resumable tokenizer that retains only the
// unconsumed tail across chunk boundaries (and, for MatchReaderResult, the
// bytes of an open candidate capture), so peak memory is bounded by the
// largest read plus open-element depth rather than document size,
// and steady-state per-event cost is allocation-free — the same pipeline
// as MatchBytes, without buffering the document. When every
// subscription's verdict is decided mid-stream the reader stops being
// consumed — MatchResult.ReaderStats reports the early exit, and whether
// it was (partly) negative — and the document's remainder is not
// validated.
// Positive verdicts latch by monotonicity; negative ones by the dead-state
// analysis (no continuation of the document can reach the subscription's
// remaining steps), so a `/news/...`-only set abandons a <catalog>
// document at its first start tag. Ownership of the returned slice is as
// for MatchBytes.
func (m *matcher) MatchReader(r io.Reader) ([]string, error) {
	var res MatchResult
	err := m.matchReader(&res, r, engine.CaptureOff)
	return res.MatchedIDs, err
}

// MatchReaderResult is MatchReader returning the call's whole MatchResult:
// the matched ids plus, for extraction-enabled subscriptions (AddExtract),
// the matched element's subtree, and the call's own reader and memory
// accounting. A subtree fragment is the element's bytes as they appear in
// the document, byte for byte what MatchBytesResult returns for the same
// document: the tokenizer's window keeps the bytes of an open candidate
// capture across chunk boundaries, and they are copied out, freshly
// allocated, when the element ends. Attribute-value fragments are decoded
// copies, as there. When extraction subscriptions have open candidate
// captures, early exit is deferred until they finalize, so a decided
// verdict never truncates a fragment.
func (m *matcher) MatchReaderResult(r io.Reader) (res MatchResult, err error) {
	err = m.matchReader(&res, r, engine.CaptureSlice)
	return res, err
}

func (m *matcher) matchBytes(res *MatchResult, doc []byte, mode engine.CaptureMode, own bool) error {
	return m.match(res, own, func(e *engine.Engine, dst []string) (engine.Outcome, error) {
		return e.MatchBytes(dst, doc, mode)
	})
}

func (m *matcher) matchReader(res *MatchResult, r io.Reader, mode engine.CaptureMode) error {
	chunk := int(m.chunk.Load())
	err := m.match(res, false, func(e *engine.Engine, dst []string) (engine.Outcome, error) {
		return e.MatchReader(dst, r, chunk, mode)
	})
	res.ReaderStats.Abstained = res.Abstained
	return err
}

// match runs one document on a checked-out engine and fills res, the call's
// MatchResult, before the engine goes back to the ring. The ids are appended
// to the matcher's reused buffer, or, when it keeps none or own is set, to a
// slice of the call's own. (res is written in place: the result is passed
// down, not returned up, because copying it through every layer costs more
// than the checkout.)
func (m *matcher) match(res *MatchResult, own bool, run func(*engine.Engine, []string) (engine.Outcome, error)) (err error) {
	e := <-m.idle
	defer func() { m.idle <- e }()
	// Declared after the checkout-return defer, so on a panic this runs
	// FIRST: the engine is quarantined before it re-enters the ring. Other
	// engines may be matching or quarantined meanwhile, but no mutation
	// runs, which holds every engine: that is what Rebuild requires.
	defer func() {
		if rec := recover(); rec != nil {
			e.Rebuild()
			*res = MatchResult{}
			err = fmt.Errorf("streamxpath: %w", &PanicError{Recovered: rec, Stack: debug.Stack()})
		}
	}()
	if m.fault != nil {
		m.fault(e)
	}
	var dst []string
	reuse := m.reuse && !own
	if reuse {
		dst = m.ids[:0]
	}
	out, err := run(e, dst)
	if reuse {
		m.ids = out.IDs
	}
	return fill(res, &out, err)
}

// fill turns one call's outcome into its MatchResult, copying the data of
// volatile fragments out of the engine that ran it. The breach policy was
// applied there: an abstained outcome carries the verdicts already decided
// (definitive, by monotonicity) and the fragments finalized before the
// breach, with a nil error. An error passes through, beside a result that
// holds the failed document's accounting and no verdicts.
func fill(res *MatchResult, out *engine.Outcome, err error) error {
	res.MemStats = out.Mem
	res.SkimmedBytes = out.Skimmed
	res.Abstained = out.Abstained
	res.ReaderStats = readerStats(out.Read)
	if err != nil {
		return err
	}
	res.MatchedIDs = out.IDs
	if res.MatchedIDs == nil {
		res.MatchedIDs = []string{}
	}
	res.Fragments = toFragments(out.Frags)
	return nil
}

// PanicError reports a panic recovered inside a matcher's engine. Only the
// in-flight document fails — the error carries the recovered value and
// stack — and the engine's per-document state is replaced before its next
// document, leaving the index the engines share as it was. Detect with
// errors.As.
type PanicError struct {
	// Recovered is the value the panic carried.
	Recovered any
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic in engine: %v", e.Recovered)
}
