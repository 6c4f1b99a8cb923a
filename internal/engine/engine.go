// Package engine implements a shared multi-query dissemination engine: it
// compiles all standing subscriptions of a FilterSet into ONE evaluation
// structure and matches a document stream against every subscription in a
// single pass, with per-event work governed by how much structure the
// subscriptions share rather than by how many there are — the selective
// dissemination workload of the paper's introduction (ref [1]) at the
// scale its Section 1 motivates.
//
// One structural index decides structure for every subscription, in the
// design of YFilter (Diao et al.): a merged NFA (automaton.MergedNFA), a
// prefix-sharing trie over (axis, node test) steps run through a lazily
// determinized shared runner — one load from the current item set's dense
// transition row per element once warm, independent of subscription count.
// Every subscription's location path, predicates ignored, is a path of the
// automaton, and the subscription an output of its last state, of one of
// two kinds:
//
//   - An ungated output — a linear query's (the /, //, * fragment), unless
//     every-match — latches off the accept list of an item set holding its
//     state fresh, the moment an element enters one.
//
//   - A gated output — of anything else fragment.Streamable accepts, as
//     Add requires — is decided by a trie of what its predicates need:
//     from its first predicated or attribute step on, its steps are spine
//     nodes, canonicalized into step keys (query.StepKey), whose predicate
//     subtrees run the paper's Section 8 frontier algorithm — tuples,
//     candidate scopes and text buffering as in the reference filter
//     (internal/core, which the engine is tested against and does not
//     link) — once for all subscriptions sharing a step. Every node sits at
//     a state of the NFA, and each state an element enters offers the nodes
//     there once per open scope of their parent — a top node, which
//     continues the NFA's predicate-free steps, once per element, below no
//     scope: none stands for the document root — so a predicated prefix
//     costs the same whether one subscription hangs off it or a thousand.
//     Matches below a predicated step commit conditionally and are decided
//     the moment the predicate is satisfied, or dropped when its scope
//     closes first. Steps that differ only in the
//     constant of one comparison — [priority > 3], [priority > 4], … — are
//     one predicate group (group.go), resolved against all the constants
//     by one search (a textual equality's streamed through a cursor,
//     streq.go); the steps continuing a group's members into one state are
//     one run, split by one search against the group's boundary.
//
// Each subscription's match latches monotonically (conjunctive matching
// is monotone, Section 8.1), and fully matched shared states stop
// accepting candidates — the per-filter early exit, applied to shared state:
// a document counts what has latched below each, against what the index
// says each has.
//
// The kinds differ in how they find matches, and in nothing after: Add
// gives every subscription a result slot from one free list, and both
// latch by slot through one latch (hits.latch), which sets its result bit,
// counts the match and keeps the document-order-first fragment — a run's
// stretch that captures nothing sets its bits alone (hits.mark) — and count
// the runner down: Decided reads what is left of the root's reach.
//
// A standing set changes while documents flow, so the index is edited where
// it stands: Add and Remove walk or extend, and unlink, the states of one
// query, in time proportional to it, and the NFA's lazy DFA survives a
// mutation but for the transitions out of the states it relinked.
//
// The index — the subscriptions, the trie, the NFA and its DFA memo, which
// depends on the subscriptions and on the paths documents took — is what Add
// and Remove write; a memo miss adds to it under its own lock. Everything a
// document writes — the NFA runner's stack, the trie matcher, the capture
// manager, the verdict record, and the one tokenizer that reads both its
// buffered and its chunked documents — is per engine. Replica makes
// another engine over the same index, which is how a FilterPool matches N
// documents at once on one copy of the subscriptions and one memo, and
// Rebuild, the quarantine after a recovered panic, replaces an engine's
// per-document state wholesale and leaves the index alone.
//
// What a subscription costs to hold is its entries in the index and one
// 24-byte record (subscription) in a vector by result slot: once Add
// returns, the parse tree it was built from is not reachable. The index
// holds a step once however many subscriptions share it — a predicate-free
// spine step in an 80-byte trie node, its step key as an id into one table
// of distinct keys — and each engine a latch count per trie step, a stack
// of open scopes only per owner that opens scopes, and a fragment slot per
// subscription only once a document captures. The paper prices an evaluator
// by what it must hold, and a standing set of 100,000 is held for months.
package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"streamxpath/internal/automaton"
	"streamxpath/internal/fragment"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/symtab"
)

// subscription is one standing query: what the engine retains of it beside
// its result (id and slot) and its entries in the merged NFA and the trie,
// one 24-byte record in a vector indexed by its result slot (index.subs).
// The parse tree is a temporary of Add (see the package comment).
type subscription struct {
	// out is a gated subscription's OUT node in the trie — the rest of its
	// trie path is the parent chain — nil on an ungated one.
	out *tnode
	// pos is the position of its result in Engine.results, which is how
	// the latches find its bit and Remove its result.
	pos int32
	// at is the merged NFA state of its output, which the trie decides when
	// gated.
	at int32
	// fs is the query's frontier size FS(Q), computed once, at Add. A
	// linear query's FS is 1.
	fs      int32
	gated   bool
	extract bool
	every   bool // AddEvery
}

// result is what reading a document's results needs of one subscription:
// the id to report and its result slot. The engine keeps one per
// subscription, in insertion order, in one flat vector (Engine.results) —
// the one place its id is kept, beside the index's by-id map — and
// a document's matches as set bits over that vector (hits), so that
// collecting them visits the matched entries alone, in order.
type result struct {
	id   string
	slot int32
}

// hits is the one record of a document's verdicts and fragments, of either
// output kind. words holds one bit per position of Engine.results,
// set the first time that subscription latches, so the result accessors
// sweep the set bits by word and a reset clears ⌈N/64⌉ words; count is the
// bits set; frags holds, by the same positions, the fragment kept for a
// matched extracting subscription while the document captures (capturing):
// an engine that only ever answers verdicts holds no vector of them. Both
// kinds latch by result slot, and the slot's record gives the position: a
// mutation moves positions, but it abandons the document in flight, so no
// latch sees one move.
type hits struct {
	ix        *index
	cm        *capman
	words     []uint64
	frags     []*capture
	count     int
	capturing bool
}

// matched reads the verdict of the subscription holding slot.
func (h *hits) matched(slot int) bool { return h.has(&h.ix.subs[slot]) }

// has reads subscription s's bit.
func (h *hits) has(s *subscription) bool { return h.words[s.pos>>6]&(1<<(s.pos&63)) != 0 }

// mark sets subscription s's bit, reporting whether this is the document's
// first latch of s.
func (h *hits) mark(s *subscription) bool {
	w, bit := s.pos>>6, uint64(1)<<(s.pos&63)
	if h.words[w]&bit != 0 {
		return false
	}
	h.words[w] |= bit
	h.count++
	return true
}

// latch is the one latch of both kinds: the subscription holding slot has
// matched, and cap is the capture of its matching element (nil without
// one). The first latch of the document sets the subscription's bit and
// counts it. An extracting subscription keeps the document-order-first
// capture: the merged NFA latches at the matching element's start, in
// document order, but the trie decides predicated matches bottom-up, so a
// later-deciding commit can carry an earlier element — it replaces the kept
// one when its start offset is smaller. An every-match subscription keeps
// nothing, and selects the capture for emission instead. latch reports
// whether the match was the document's first for the subscription, and
// whether cap became its first fragment.
func (h *hits) latch(slot int, cap *capture) (first, captured bool) {
	s := &h.ix.subs[slot]
	p := s.pos
	first = h.mark(s)
	if cap == nil || !s.extract {
		return first, false
	}
	if s.every {
		cap.selected = true
		return first, false
	}
	old := h.frags[p]
	if old != nil && old.start <= cap.start {
		return first, false
	}
	cap.refs++
	if old != nil {
		h.cm.release(old)
	}
	h.frags[p] = cap
	return first, old == nil
}

// capFor returns a capture of the current element (one hold for the
// caller) if any subscription holding a slot of outs still wants one, nil
// otherwise — always nil while the document captures nothing, a test that
// inlines into the per-element paths.
func (h *hits) capFor(outs []int) *capture {
	if h.cm.mode == CaptureOff {
		return nil
	}
	return h.wanted(outs)
}

// wanted is capFor's search: an every-match subscription always wants the
// element, and queues it for emission. A subscription with a fragment kept
// needs nothing: offsets grow monotonically with the event stream, so the
// current element can never precede a captured one.
func (h *hits) wanted(outs []int) *capture {
	want := false
	for _, slot := range outs {
		s := &h.ix.subs[slot]
		if s.every {
			return h.cm.elemCapture(true)
		}
		want = want || (s.extract && h.frags[s.pos] == nil)
	}
	if want {
		return h.cm.elemCapture(false)
	}
	return nil
}

// reset clears the record for a document over n results, one that captures
// fragments if capturing. A fragment is kept only with a match, so the set
// bits find every one: it costs the last document's matches and ⌈N/64⌉
// words, not the standing set.
func (h *hits) reset(n int, capturing bool) {
	if h.capturing {
		for w, word := range h.words {
			for ; word != 0; word &= word - 1 {
				h.frags[w<<6|bits.TrailingZeros64(word)] = nil
			}
		}
	}
	words := (n + 63) / 64
	h.words = slices.Grow(h.words[:0], words)[:words]
	clear(h.words)
	if k := n - len(h.frags); capturing && k > 0 {
		h.frags = append(h.frags, make([]*capture, k)...)
	}
	h.count, h.capturing = 0, capturing
}

// index is the part of an engine that Add and Remove write and that every
// replica of the engine shares: the standing subscriptions, their results in
// insertion order, their result slots, and what Decided, AppendFragments and
// MemStats read of them. The merged NFA and the trie hung off it are held by
// each engine directly: they are fixed at construction, and the per-event
// path reads them. version counts the mutations, so that an engine sees one
// at its next Reset.
type index struct {
	// Result slots are one space for every subscription: subs[slot] is the
	// record of the subscription holding slot, results the standing
	// subscriptions' ids and slots in insertion order, and byID the slot
	// by id. freeSlots are the slots of removed subscriptions, whose records
	// are zero, which Add hands out again, to either kind, before subs
	// grows.
	subs      []subscription
	results   []result
	freeSlots []int32
	byID      map[string]int32
	version   uint64

	// tab is the index's symbol table: query node tests and document names
	// meet in it, so the byte-event path dispatches entirely on
	// tokenizer-supplied symbols.
	tab *symtab.Table

	// extracting counts the subscriptions with extraction enabled,
	// every-match ones included, and everyMatch those. steps counts their
	// location steps (Stats.SpineSteps): a subscription's are the depth of
	// its output's state.
	extracting int
	everyMatch int
	steps      int

	// maxFS is the largest per-subscription frontier size: MemStats —
	// called once per Match*Result document — must not walk the
	// subscriptions for it, nor must Remove. fsCount[fs] counts the
	// subscriptions of frontier size fs, so maxFS falls to the next value in
	// use when the last subscription of the largest goes.
	maxFS   int
	fsCount []int
}

// Engine matches one document stream at a time against all subscriptions.
// Add and Remove patch the shared indexes where they stand, in time
// proportional to the query, and take effect at the next document; called
// while a document is in flight they abandon it. An Engine is not safe for
// concurrent use; the engines of one index (Replica) may match documents
// concurrently, but only while no Add or Remove runs on any of them.
type Engine struct {
	*index
	nfa *automaton.MergedNFA
	tr  *trie
	// seen is the index version the per-document state was last reset for.
	// While it is behind, the verdict record describes a document matched
	// against another subscription set, so the result accessors answer as
	// before any document.
	seen uint64

	// hits is the document's verdicts and fragments, which runner and mt
	// latch into.
	hits   hits
	runner *automaton.SharedRunner
	mt     *matcher
	// tok is the tokenizer of both MatchBytes, which reads its whole-buffer
	// form (Whole), and MatchReader, which drives it a chunk at a time: one
	// name cache, one set of scratch buffers, one batch buffer and one copy
	// of the limits. batch is that buffer (tok.Batch), which MatchBytes has
	// it fill as DriveBatches does; process and decided are the callbacks
	// MatchReader drives it with, built once so a repeat call allocates
	// nothing.
	tok     *sax.StreamTokenizer
	batch   []sax.ByteEvent
	process func([]sax.ByteEvent) error
	decided func() bool
	// rebuilds counts the Rebuild calls.
	rebuilds int

	// Fragment-capture state. capMode is the caller-requested mode for the
	// next document (effective only when some subscription has extraction
	// enabled); cm manages the captures, which hits keeps.
	capMode CaptureMode
	cm      *capman

	started  bool
	finished bool
	level    int
	// events and maxLevel are the document's event count and deepest level
	// (MemStats.Events and MaxDepth). They are the engine's, not the
	// trie's: a trie with no gated subscription is not dispatched elements.
	events   int
	maxLevel int
	// skimPieces is the number of pieces of the document's skimmed remainder
	// that helpers validated (Stats.SkimPieces).
	skimPieces int
	// rootClosed: the document's root element has ended. A second one is
	// refused, as the tokenizers refuse it: Decided rests on only the root's
	// subtree producing elements.
	rootClosed bool
	// plain: a document is in progress, it captures nothing and it runs
	// under no per-event budget (MaxDepth, MaxLiveTuples, MaxBufferedBytes),
	// so an element or text event inside its root needs none of the checks
	// that come with those (see dispatch). setPlain decides it wherever
	// one of them changes.
	plain bool

	// lim holds the per-document resource budgets (zero value: none).
	// Depth is checked at startElement, buffered text before each append,
	// and live tuples after each startElement — with a dead-tuple
	// eviction sweep before a live-tuple breach is declared, so the
	// budget measures state that could still influence a verdict.
	lim limits.Limits
}

// New returns an empty engine with a private symbol table.
func New() *Engine {
	tab := symtab.New()
	ix := &index{byID: map[string]int32{}, tab: tab}
	nfa := automaton.NewMergedNFA(tab)
	e := &Engine{index: ix, nfa: nfa, tr: newTrie(nfa)}
	e.fresh()
	return e
}

// Replica returns an engine over e's index — the same subscriptions, which
// an Add or Remove on either patches for both — with per-document state and
// limits of its own. Engines of one index may match documents concurrently
// (symtab.Table is safe for their read-mostly access), as long as no Add or
// Remove runs meanwhile: that is how a FilterPool holds its subscriptions
// once for all its engines, and its automaton's DFA memo. Replica and
// Rebuild write nothing shared, so they too may run on one engine while
// others match or rebuild, but not during an Add or Remove.
func (e *Engine) Replica() *Engine {
	r := &Engine{index: e.index, nfa: e.nfa, tr: e.tr}
	r.fresh()
	return r
}

// fresh gives the engine new per-document state — a verdict record, an NFA
// runner, a trie matcher, a capture manager and a tokenizer — over its
// index, and resets it.
func (e *Engine) fresh() {
	cm := newCapman(e.tab)
	if e.cm != nil {
		cm.emit = e.cm.emit
	}
	e.cm = cm
	e.hits = hits{ix: e.index, cm: cm}
	e.runner = automaton.NewSharedRunner(e.nfa, e.latchAccepted)
	e.mt = newMatcher(e.tr, e.runner, &e.hits)
	e.mt.cm = cm
	e.tok = sax.NewStreamTokenizer(e.tab)
	e.tok.SetLimits(e.lim)
	e.batch = e.tok.Batch()
	e.process = func(evs []sax.ByteEvent) error {
		if err := e.dispatch(evs); err != nil {
			return fmt.Errorf("streamxpath: %w", err)
		}
		return nil
	}
	e.decided = e.Decided
	e.Reset()
}

// Symbols returns the engine's symbol table. Tokenizers that feed the
// engine through ProcessBytes must intern into this table.
func (e *Engine) Symbols() *symtab.Table { return e.tab }

// SetLimits configures the per-document resource budgets (the zero value
// disables them). Limits persist across Reset, Add and Remove; a breach
// surfaces as a *limits.Error from ProcessBytes and leaves the
// engine reusable after the next Reset.
func (e *Engine) SetLimits(l limits.Limits) {
	e.lim = l
	e.tok.SetLimits(l)
	e.setPlain()
}

// setPlain decides whether the document runs the plain path: in progress,
// capture off and no per-event budget.
func (e *Engine) setPlain() {
	e.plain = e.started && !e.finished && e.cm.mode == CaptureOff &&
		e.lim.MaxDepth <= 0 && e.lim.MaxLiveTuples <= 0 && e.lim.MaxBufferedBytes <= 0
}

// Limits returns the configured budgets.
func (e *Engine) Limits() limits.Limits { return e.lim }

// Rebuild replaces the engine's per-document state — the NFA runner, the
// trie matcher, the capture manager, the tokenizer — by fresh state over
// the same index. It is the quarantine step after a recovered panic:
// matching state of unknown integrity is thrown away wholesale instead of
// trusting Reset's in-place sweeps, while the index, which matching never
// writes, stays as it is for every engine sharing it, and so does the DFA
// memo, which a miss publishes only once it is whole.
func (e *Engine) Rebuild() {
	e.rebuilds++
	e.fresh()
	e.events, e.maxLevel = 0, 0 // a rebuilt engine, like a new one, has run no document
}

// mutating is the preamble of every change to the subscription set: the
// results on hand stop being reported, and a document in flight is
// abandoned — its remaining events are refused as outside any document
// until Reset or the next startDocument.
func (e *Engine) mutating() {
	e.version++
	e.started = false
	e.setPlain()
}

// takeSlot hands out a result slot: a removed subscription's while there is
// one, whichever kind it was.
func (ix *index) takeSlot() int {
	if k := len(ix.freeSlots); k > 0 {
		slot := ix.freeSlots[k-1]
		ix.freeSlots = ix.freeSlots[:k-1]
		return int(slot)
	}
	ix.subs = append(ix.subs, subscription{})
	return len(ix.subs) - 1
}

// Add registers a subscription under the given id. It returns an error
// for duplicate ids and for queries outside the streamable fragment
// (fragment.Streamable, the decision the reference filter makes too). The
// subscription takes effect at the next document (the next StartDocument or
// Reset).
func (e *Engine) Add(id string, q *query.Query) error {
	return e.add(id, q, false, false)
}

// AddExtract registers a subscription with fragment extraction enabled:
// when it matches, the engine captures the matched element's subtree
// (first match in document order) and reports it via AppendFragments.
// Extraction is effective only on documents processed with a capture
// mode set (SetCapture); boolean-only runs pay nothing for it.
func (e *Engine) AddExtract(id string, q *query.Query) error {
	return e.add(id, q, true, false)
}

// AddEvery registers an every-match subscription: it reports every element
// the query selects, not only whether one exists. Each is captured under the
// document's capture mode and queued in document order; the queue's head
// leaves once its fate is known, to the SetEmit callback if the query
// selected it. Its matches never retire shared state, so while one is
// registered Decided is false and every document is read to its end.
func (e *Engine) AddEvery(id string, q *query.Query) error {
	return e.add(id, q, true, true)
}

func (e *Engine) add(id string, q *query.Query, extract, every bool) error {
	if _, dup := e.byID[id]; dup {
		return fmt.Errorf("engine: duplicate subscription id %q", id)
	}
	if q.Root.Successor == nil {
		return fmt.Errorf("engine: query has no location step")
	}
	s := subscription{extract: extract, every: every, fs: 1, pos: int32(len(e.results))}
	if s.gated = every || !automaton.IsLinear(q); s.gated {
		// A linear query is streamable by construction: it has no predicate.
		if err := fragment.Streamable(q).Err(); err != nil {
			return err
		}
		s.fs = int32(fragment.FrontierSize(q))
	}
	e.mutating()
	slot := e.takeSlot()
	e.byID[id] = int32(slot)
	e.results = append(e.results, result{id: id, slot: int32(slot)})
	if extract {
		e.extracting++
	}
	if every {
		e.everyMatch++
	}
	for len(e.fsCount) <= int(s.fs) {
		e.fsCount = append(e.fsCount, 0)
	}
	e.fsCount[s.fs]++
	e.maxFS = max(e.maxFS, int(s.fs))
	at, _ := e.nfa.Add(q, slot, s.gated) // an ungated query is linear
	s.at = int32(at)
	e.steps += e.nfa.Depth(at)
	if s.gated {
		s.out = e.tr.add(q, slot, extract, every)
	}
	e.subs[slot] = s
	return nil
}

// Remove deregisters a subscription, reporting whether it existed. The
// removal takes effect at the next document.
func (e *Engine) Remove(id string) bool {
	slot, ok := e.byID[id]
	if !ok {
		return false
	}
	e.mutating()
	delete(e.byID, id)
	s := e.subs[slot]
	e.subs[slot] = subscription{}
	// The results behind s's move down one place each, and the positions
	// their records hold with them. The bits set for the last document go
	// stale with the shift; nothing reads them before the next Reset clears
	// them.
	n := len(e.results) - 1
	for j := int(s.pos); j < n; j++ {
		r := e.results[j+1]
		e.results[j] = r
		e.subs[r.slot].pos = int32(j)
	}
	e.results = e.results[:n]
	e.freeSlots = append(e.freeSlots, slot)
	if s.extract {
		e.extracting--
	}
	if s.every {
		e.everyMatch--
	}
	e.fsCount[s.fs]--
	for e.maxFS > 0 && e.fsCount[e.maxFS] == 0 {
		e.maxFS--
	}
	if s.gated {
		e.tr.remove(s.out, int(slot), s.extract, s.every) // first: it releases the states its predicates hold below the path
	}
	e.steps -= e.nfa.Depth(int(s.at))
	e.nfa.Remove(int(s.at), int(slot), s.gated)
	return true
}

// Len returns the number of subscriptions.
func (e *Engine) Len() int { return len(e.results) }

// IDs returns the subscription ids in insertion order.
func (e *Engine) IDs() []string {
	out := make([]string, len(e.results))
	for i, r := range e.results {
		out[i] = r.id
	}
	return out
}

// latchAccepted is the merged runner's latch: the ungated outputs, the
// subscriptions holding the slots outs, match at the current element, and
// latch as the trie's terminals do, with the element's capture when one of
// them still wants a fragment. It returns how many latched for the first
// time.
func (e *Engine) latchAccepted(outs []int) (first int) {
	cap := e.hits.capFor(outs)
	for _, slot := range outs {
		if f, _ := e.hits.latch(slot, cap); f {
			first++
		}
	}
	if cap != nil {
		e.cm.release(cap) // the latches took their own holds
	}
	return first
}

// Reset prepares the engine for the next document. The shared indexes
// (and the merged NFA's memoized transition table) survive across
// documents and across Add/Remove. What it clears is what the last
// document latched, and the result bitmap by word: it costs the document's
// matches, not the standing set. The per-document vectors grow here to what
// the index has grown to since.
func (e *Engine) Reset() {
	e.runner.Reset()
	e.mt.reset()
	mode := e.capMode
	if e.extracting == 0 {
		mode = CaptureOff
	}
	e.hits.reset(len(e.results), mode != CaptureOff)
	e.cm.reset(mode)
	e.seen = e.version
	e.started = false
	e.finished = false
	e.level = 0
	e.events, e.maxLevel, e.skimPieces = 0, 0, 0
	e.rootClosed = false
	e.setPlain()
}

// SetCapture selects the fragment-capture mode for subsequent documents
// (taking effect at the next Reset/StartDocument). CaptureSlice requires
// the document to be processed as one contiguous buffer whose ByteEvent
// offsets index it from zero; CaptureSerial works with any event source
// carrying offsets, CaptureValue with any at all. The mode is ignored while
// no subscription has extraction enabled.
func (e *Engine) SetCapture(mode CaptureMode) { e.capMode = mode }

// SetEmit registers the callback that receives, in document order, each
// element an every-match subscription selected (AddEvery), as its capture
// mode holds it; value is valid only during the call. nil unregisters.
func (e *Engine) SetEmit(fn func(value []byte)) { e.cm.emit = fn }

// EmitStats returns the emission queue's accounting for the current (or
// last) document.
func (e *Engine) EmitStats() EmitStats { return e.cm.qstats }

// ProcessBytes consumes one byte-slice event from a sax.TokenizerBytes
// interning into this engine's Symbols table. Attribute events arrive
// already expanded from the tokenizer, so no per-element attribute
// handling happens here; the whole path is allocation-free in the steady
// state.
func (e *Engine) ProcessBytes(ev sax.ByteEvent) error {
	return e.dispatch([]sax.ByteEvent{ev})
}

// dispatch hands evs to the engine in order, up to an EndDocument or the
// first error: the one implementation of every event kind. Both drive
// loops hand it a batch at a time, so the per-event path is this loop's
// body and no call; ProcessBytes hands it one event. An event takes the
// plain path when it is an element or text event, not an attribute's,
// inside the root of a plain document (Engine.plain): it is then known to
// lie within a document in progress, below its one root, and to owe no
// capture or budget anything, and skips the checks and bookkeeping of
// those, which are out of line.
func (e *Engine) dispatch(evs []sax.ByteEvent) error {
	for i := range evs {
		ev := &evs[i]
		plain := e.plain && e.level > 0 && !ev.Attribute
		switch ev.Kind {
		case sax.StartElement:
			if !plain {
				if err := e.opening(ev.Sym); err != nil {
					return err
				}
			}
			e.level++
			e.events++
			e.maxLevel = max(e.maxLevel, e.level)
			if e.cm.mode != CaptureOff {
				// Before the match hooks: a capture created for this element
				// must start from its own '<'.
				e.cm.noteStart(ev.Sym, ev.Attribute, ev.Off, e.level)
			}
			// The runner steps while any subscription stands: the trie finds its
			// candidates in its item sets. An attribute enters none — it must
			// never satisfy a child-axis node test.
			if !ev.Attribute && len(e.results) > 0 {
				e.runner.StartElementSym(ev.Sym)
			}
			if e.tr.live > 0 {
				e.mt.startElementSym(ev.Sym, ev.Attribute, e.level)
			}
			if !plain {
				if err := e.opened(); err != nil {
					return err
				}
			}
		case sax.EndElement:
			if !plain {
				if err := e.closing(ev.Sym); err != nil {
					return err
				}
			}
			closing := e.level
			e.level--
			if e.level == 0 {
				e.rootClosed = true
			}
			e.events++
			if e.tr.live > 0 {
				e.mt.endElement(closing)
			}
			// After the matcher, whose latches the root element's end must follow.
			if !ev.Attribute && len(e.results) > 0 {
				e.runner.EndElement()
			}
			if e.cm.mode != CaptureOff {
				// After the matcher: a scope resolving at this endElement may latch
				// the closing element's capture, which finalizes here.
				e.cm.noteEnd(ev.Sym, ev.Attribute, ev.Off, closing)
				e.cm.flush()
				if err := e.checkCaptured(); err != nil {
					return err
				}
			}
		case sax.Text:
			if !plain {
				if !e.started || e.finished {
					return fmt.Errorf("engine: text outside document")
				}
				if err := e.checkBuffer(len(ev.Data)); err != nil {
					return err
				}
			}
			e.events++
			if e.tr.live > 0 {
				e.mt.textBytes(ev.Data)
			}
			if e.cm.mode != CaptureOff {
				e.cm.noteText(ev.Data)
				if err := e.checkCaptured(); err != nil {
					return err
				}
			}
		case sax.StartDocument:
			if err := e.startDocument(); err != nil {
				return err
			}
		case sax.EndDocument:
			return e.endDocument() // the last event of a document
		}
	}
	return nil
}

// checkBuffer enforces MaxBufferedBytes before a text append: the check
// runs only when some buffering leaf candidate or capture is consuming
// text (otherwise nothing is buffered at all; a streamed candidate's
// cursor holds none).
func (e *Engine) checkBuffer(n int) error {
	if e.lim.MaxBufferedBytes <= 0 {
		return nil
	}
	held := len(e.mt.buf) + e.cm.bytes
	if (e.mt.refCount > 0 || len(e.cm.open) > 0) && held+n > e.lim.MaxBufferedBytes {
		return &limits.Error{Resource: "buffered-bytes", Limit: int64(e.lim.MaxBufferedBytes), Observed: int64(held + n)}
	}
	return nil
}

// checkCaptured enforces MaxBufferedBytes against the bytes already held
// by fragment captures. Capture appends account after the fact (the tag
// and text bytes of an event are appended, then checked), so a breach
// surfaces one event late at worst — the budget is a resource guard, not
// an exact admission test.
func (e *Engine) checkCaptured() error {
	if e.lim.MaxBufferedBytes > 0 && e.cm.bytes > 0 && len(e.mt.buf)+e.cm.bytes > e.lim.MaxBufferedBytes {
		return &limits.Error{Resource: "buffered-bytes", Limit: int64(e.lim.MaxBufferedBytes), Observed: int64(len(e.mt.buf) + e.cm.bytes)}
	}
	return nil
}

// startDocument opens a document on the runner. The trie matcher holds
// nothing until an element is a candidate for one of its nodes: no scope
// stands for the document root, which no trie node continues.
func (e *Engine) startDocument() error {
	if e.started && !e.finished {
		return fmt.Errorf("engine: duplicate startDocument")
	}
	if e.stale() || e.started {
		// Neither means Reset already ran (the public Match* entry points
		// reset up front) and nothing has latched since: there is nothing
		// to clear.
		e.Reset()
	}
	e.started = true
	e.setPlain()
	e.events++
	e.runner.StartDocument()
	return nil
}

func (e *Engine) endDocument() error {
	if !e.started || e.finished {
		return fmt.Errorf("engine: unexpected endDocument")
	}
	e.events++
	e.mt.endDocument()
	e.cm.flush()
	e.finished = true
	e.setPlain()
	return nil
}

// opening checks a start event off the plain path: it must fall inside a
// document, open no second root, and not go deeper than MaxDepth.
func (e *Engine) opening(sym symtab.Sym) error {
	if !e.started || e.finished {
		return fmt.Errorf("engine: startElement outside document")
	}
	if e.level == 0 && e.rootClosed {
		return fmt.Errorf("engine: second root element <%s>", e.tab.Name(sym))
	}
	if e.lim.MaxDepth > 0 && e.level >= e.lim.MaxDepth {
		e.level++
		return &limits.Error{Resource: "depth", Limit: int64(e.lim.MaxDepth), Observed: int64(e.level)}
	}
	return nil
}

// opened finishes a start event off the plain path: the live-tuple budget,
// and the element's captures.
func (e *Engine) opened() error {
	if e.lim.MaxLiveTuples > 0 {
		// Live state is the trie matcher's tuples/scopes/pendings plus one
		// NFA runner stack entry per open element. A matched obligation
		// stops counting at once; before declaring a breach, sweep out the
		// pending leaf candidates whose obligation has matched since they
		// opened, so only state that can still influence a verdict counts.
		if live := e.mt.live() + e.level; live > e.lim.MaxLiveTuples {
			e.mt.evictDead()
			if live = e.mt.live() + e.level; live > e.lim.MaxLiveTuples {
				return &limits.Error{Resource: "live-tuples", Limit: int64(e.lim.MaxLiveTuples), Observed: int64(live)}
			}
		}
	}
	if e.cm.mode != CaptureOff {
		e.cm.flush()
		return e.checkCaptured()
	}
	return nil
}

// closing checks an end event off the plain path: it must fall inside a
// document and close an open element.
func (e *Engine) closing(sym symtab.Sym) error {
	if !e.started || e.finished {
		return fmt.Errorf("engine: endElement outside document")
	}
	if e.level == 0 {
		return fmt.Errorf("engine: unmatched endElement </%s>", e.tab.Name(sym))
	}
	return nil
}

// stale reports that the index has changed since the engine's last Reset.
func (e *Engine) stale() bool { return e.seen != e.version }

// Finished reports whether endDocument has been processed.
func (e *Engine) Finished() bool { return e.finished }

// Matched reports subscription id's verdict for the current (or last)
// document. Because matching is monotone, a true answer mid-stream is
// already definitive.
func (e *Engine) Matched(id string) bool {
	slot, ok := e.byID[id]
	return ok && !e.stale() && e.hits.matched(int(slot))
}

// MatchedIDs returns the ids matched by the current (or last) document,
// in subscription insertion order. The slice is non-nil even when empty.
func (e *Engine) MatchedIDs() []string {
	return e.appendMatchedIDs(make([]string, 0))
}

// appendMatchedIDs appends the matched ids to dst (in subscription
// insertion order) and returns it — the allocation-free form of
// MatchedIDs for callers that reuse a result buffer across documents. It
// visits the set bits of the result bitmap, not the subscriptions.
func (e *Engine) appendMatchedIDs(dst []string) []string {
	if e.stale() {
		return dst
	}
	for w, word := range e.hits.words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, e.results[w<<6|bits.TrailingZeros64(word)].id)
		}
	}
	return dst
}

// Fragment is one captured match: the subtree of the document-order-first
// element matched by an extraction-enabled subscription (or, for an
// attribute-targeted subscription, the decoded attribute value).
type Fragment struct {
	ID   string
	Data []byte
	// Volatile marks Data as aliasing engine-internal capture memory,
	// valid only until the engine's next Reset — re-serialized subtrees
	// and decoded attribute values. False means Data subslices the
	// caller-provided document buffer (zero-copy). Holders that outlive
	// the engine's current document must copy volatile fragments.
	Volatile bool
}

// AppendFragments appends the fragments captured for the current (or
// last) document to dst, in subscription insertion order. For
// CaptureSlice captures doc must be the document buffer the offsets
// index (the same slice handed to the tokenizer); the returned Data
// subslices it zero-copy. CaptureSerial and attribute-value captures
// return the engine's internal buffers, valid only until the next Reset
// — callers that retain them must copy. A fragment is kept only with a
// match, so the sweep is the one appendMatchedIDs makes.
func (e *Engine) AppendFragments(dst []Fragment, doc []byte) []Fragment {
	if e.stale() || !e.hits.capturing {
		return dst
	}
	for w, word := range e.hits.words {
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			c := e.hits.frags[p]
			if c == nil || !c.done {
				continue
			}
			var data []byte
			volatile := false
			switch {
			case c.valueOnly || e.cm.mode == CaptureSerial:
				data = c.buf
				volatile = true
			case doc != nil:
				data = doc[c.start:c.end]
			default:
				continue
			}
			dst = append(dst, Fragment{ID: e.results[p].id, Data: data, Volatile: volatile})
		}
	}
	return dst
}

// MatchedCount returns the number of subscriptions already definitively
// matched — usable mid-stream thanks to monotonicity.
func (e *Engine) MatchedCount() int {
	if e.stale() {
		return 0
	}
	return e.hits.count
}

// Decided reports whether every subscription's verdict for the current
// document is already final, so a streaming caller may stop feeding
// events. Matching is monotone — matched flags latch and future events
// only add matches — so a verdict is final mid-stream in two ways:
// positively, the subscription has matched; negatively, no continuation of
// the document can still match it (SharedRunner.Undecided, an O(1) counter
// probe). An empty engine reports false (there is no verdict to decide).
// What a caller does with true is its own contract: a reader that exits on
// it skips validating the document's remainder (MatchReader), a buffered
// caller skims it (MatchBytes) — validates it to the end without
// dispatching another event.
func (e *Engine) Decided() bool {
	if e.stale() || !e.started || len(e.results) == 0 || e.everyMatch > 0 {
		return false
	}
	if e.finished {
		return true
	}
	if e.cm.mode != CaptureOff && (len(e.cm.open) > 0 || e.mt.capCommits > 0) {
		// A capture is still being written, or a pending conditional commit
		// (or an open scope's own capture) could yet resolve to a fragment
		// that precedes the one currently latched — stopping now could
		// return a truncated or non-document-order-first fragment even
		// though every boolean verdict is final.
		return false
	}
	return e.runner.Undecided() == 0
}

// Stats reports the size of the shared structures and the work done on
// the last document — the engine-level analog of core.Stats.
type Stats struct {
	// Subscriptions is the number of standing subscriptions, each an output
	// of the merged NFA. NFARouted counts the ungated ones, which latch off
	// the accept lists of the item sets their elements enter, and TrieRouted
	// the gated ones — a predicated or attribute step on the path, or
	// AddEvery — which the trie decides; NFARouted + TrieRouted =
	// Subscriptions.
	Subscriptions int
	NFARouted     int
	TrieRouted    int

	// SpineSteps is the total number of location steps across all
	// subscriptions (before sharing); SharedStates is the number of states
	// actually materialized: the merged NFA's states some ungated output
	// passes through plus the trie's spine nodes, each of which a gated
	// output's path from its first predicated or attribute step on passes
	// through. Their ratio is the prefix-sharing factor.
	SpineSteps   int
	SharedStates int
	// PredNodes counts the predicate-subtree nodes of the trie (each
	// evaluated once per candidate regardless of how many subscriptions
	// share its step). PredGroups is the number of predicate groups —
	// sets of steps that differ only in the constant of their one
	// comparison, evaluated as one — and LargestGroup the most members any
	// of them has.
	PredNodes    int
	PredGroups   int
	LargestGroup int

	// DFAStates/DFATransitions are the merged NFA's lazily materialized
	// deterministic states and memoized transitions as they stand — the
	// index's, one memo for every engine sharing it, which both kinds step
	// through, so a set of gated subscriptions alone fills it too;
	// DFAMaterialized counts the transitions ever computed, so its growth
	// over a mutation is what the mutation made the memo forget. Rebuilds
	// counts the engine's Rebuild calls, each of which replaced its
	// per-document state and kept the memo; Add and Remove never rebuild.
	DFAStates       int
	DFATransitions  int
	DFAMaterialized int
	Rebuilds        int

	// Per-document work and peaks. Events counts the document's events the
	// engine dispatched (MemStats.Events) and MaxLevel is its deepest level
	// (MemStats.MaxDepth); the rest are the trie matcher's. TupleVisits
	// counts the candidates offered at startElement events, held by a state
	// the element entered: each predicate node whose obligation is
	// unmatched, once per open scope of its parent, and each spine step,
	// predicate group and run of group continuations with subscriptions
	// left to match, once per open scope of the step it continues — once
	// per element for a top node, which continues none. A group or a run is
	// one visit, whatever its size. FrontierInserts counts the predicate
	// obligations candidate scopes open with plus the scopes — the
	// state-maintenance work visits do not see. Both grow with the distinct steps a document
	// exercises, not with the subscription count or the depth of
	// unpredicated nesting. GroupProbes counts the candidate values resolved
	// against a predicate group — one search or lookup each, whatever the
	// group's size. SkimPieces counts the pieces of a skimmed remainder
	// (MatchBytes) that helper goroutines validated on the other cores and
	// the skim adopted: 0 on one core, for a remainder shorter than two
	// pieces, and on the reader path, which does not skim. PeakTuples is the
	// peak of live predicate tuples: a tuple is live from its scope's
	// opening until it matches, a child-axis candidate of it opens — an
	// internal node's scope or a restricted leaf's pending, for as long as
	// that is open — or its scope closes. Only scopes with two or more
	// obligations hold tuples: a lone obligation is its scope, and counts
	// here never.
	Events          int
	TupleVisits     int
	FrontierInserts int
	GroupProbes     int
	SkimPieces      int
	PeakTuples      int
	PeakScopes      int
	PeakBufferBytes int
	MaxLevel        int
}

// Stats returns the current statistics.
func (e *Engine) Stats() Stats {
	st := Stats{Subscriptions: len(e.results), SpineSteps: e.steps, Rebuilds: e.rebuilds, TrieRouted: e.tr.live}
	st.NFARouted = st.Subscriptions - st.TrieRouted
	st.SharedStates = (e.nfa.Size() - 1) + len(e.tr.nodes)
	st.PredNodes = e.tr.predNodes
	for _, h := range e.tr.holds {
		for i := 0; h != nil && i < len(h.groups); i++ {
			st.PredGroups++
			st.LargestGroup = max(st.LargestGroup, h.groups[i].size)
		}
	}
	ds := e.nfa.Stats()
	st.DFAStates = ds.States
	st.DFATransitions = ds.Transitions
	st.DFAMaterialized = ds.Materialized
	ms := e.mt.stats
	st.Events = e.events
	st.TupleVisits = ms.TupleVisits
	st.FrontierInserts = ms.FrontierInserts
	st.GroupProbes = ms.GroupProbes
	st.SkimPieces = e.skimPieces
	st.PeakTuples = ms.PeakTuples
	st.PeakScopes = ms.PeakScopes
	st.PeakBufferBytes = ms.PeakBufferBytes
	st.MaxLevel = e.maxLevel
	return st
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("subs=%d (nfa=%d trie=%d) steps=%d shared=%d predNodes=%d groups=%d/%d dfa=%d/%d materialized=%d rebuilds=%d events=%d visits=%d inserts=%d probes=%d pieces=%d peakTuples=%d",
		s.Subscriptions, s.NFARouted, s.TrieRouted, s.SpineSteps, s.SharedStates, s.PredNodes, s.PredGroups, s.LargestGroup,
		s.DFAStates, s.DFATransitions, s.DFAMaterialized, s.Rebuilds, s.Events, s.TupleVisits, s.FrontierInserts, s.GroupProbes, s.SkimPieces, s.PeakTuples)
}

// MemStats is the engine's live-memory accounting for the last (or
// current) document, with the paper's cost model and lower bound applied:
// the peak concurrent matching state, the bits that state corresponds to
// under the Theorem 8.8 cost model, and how far above the
// information-theoretic floor (Sections 4-7) the evaluator actually sat.
type MemStats struct {
	// Events is the number of SAX events the engine was dispatched — the
	// document's whole event count, unless the caller stopped dispatching
	// once every verdict was final: a reader that exited early, or a
	// buffered match that skimmed the remainder (MatchBytes).
	Events int
	// GroupProbes is the number of candidate values resolved against a
	// predicate group's constants (Stats.GroupProbes), per document like
	// Events.
	GroupProbes int
	// PeakLiveTuples is the peak concurrent matching state: live predicate
	// tuples + open candidate scopes + pending leaf candidates, buffering or
	// streamed, counted together after each start event (the only events at
	// which the sum grows) — the count Limits.MaxLiveTuples budgets, less
	// the budget's depth term: the records the matcher holds. A scope with
	// one obligation — every group scope, and a step's or a predicate
	// node's with one conjunctive child — holds it as part of itself, so it
	// counts once, as a scope; only scopes of two or more hold tuples. A
	// predicate group holds its scope, one more per inner step of its path,
	// and one pending candidate per open element, whatever its size; what
	// its scope holds beyond a scope's cost is PeakGroupBits. A step with no
	// predicate on its path from the root holds nothing, and neither does
	// the document root: a set with no predicate reads 0.
	PeakLiveTuples int
	// PeakGroupBits is the peak of the index state held by open group
	// scopes and streamed candidates: ⌈log₂(|group|+1)⌉ bits for a
	// threshold group's boundary, and for each constant an equality
	// group's values have hit; and, for each open candidate of a leaf
	// compared by textual = or != (grouped or not), ⌈log₂(positions+1)⌉
	// bits for its cursor, positions being the distinct prefixes of the
	// constants it is compared against, the empty one included (the +1 is
	// the dead cursor).
	PeakGroupBits int
	// PeakScopes / PeakPendings / PeakBufferedBytes are the component
	// peaks, each taken on its own: open candidate scopes (those of
	// predicated steps and of the steps below one), pending leaf
	// candidates (buffering or streamed), and buffered candidate-text bytes
	// (the paper's w term). PeakScopes + PeakPendings + Stats.PeakTuples
	// bounds PeakLiveTuples from above.
	// Only numeric comparisons, string functions and other truth sets
	// buffer their candidates' text; a textual = or != streams it through
	// a cursor and adds nothing here.
	PeakScopes        int
	PeakPendings      int
	PeakBufferedBytes int
	// MaxDepth is the deepest open-element nesting reached (the paper's d;
	// on fully recursive documents also its recursion term r). A skimmed
	// remainder counts: it is the depth of the document, not of the part
	// that was dispatched.
	MaxDepth int
	// CapturedBytes is the peak bytes held by fragment captures (zero
	// without extraction). Captures are working state charged against
	// Limits.MaxBufferedBytes alongside predicate text, but they are
	// output being assembled rather than matching state, so they stay out
	// of EstimatedBits — the paper's cost model prices the decision
	// problem, not the payload.
	CapturedBytes int
	// EstimatedBits applies the paper's cost model to the peaks: each
	// tuple costs log|Q| + log d + log w bits plus a matched bit, the
	// buffer 8 bits per byte (fragment.EstimatedBits, with |Q| the size
	// of the shared index), plus PeakGroupBits.
	EstimatedBits int
	// LowerBoundBits is the paper's floor for the same document shape:
	// FS(Q)·log d bits, with FS(Q) the largest frontier size among the
	// standing subscriptions (fragment.LowerBoundBits).
	LowerBoundBits int
	// OptimalityRatio is EstimatedBits / LowerBoundBits — how many times
	// the lower bound the evaluator's accounted peak state occupied.
	OptimalityRatio float64
}

// MemStats returns the live-memory accounting of the last (or current)
// document.
func (e *Engine) MemStats() MemStats {
	ms := e.mt.stats
	st := MemStats{
		Events:            e.events,
		GroupProbes:       ms.GroupProbes,
		PeakLiveTuples:    ms.PeakLive,
		PeakGroupBits:     ms.PeakGroupBits,
		PeakScopes:        ms.PeakScopes,
		PeakPendings:      ms.PeakPendings,
		PeakBufferedBytes: ms.PeakBufferBytes,
		MaxDepth:          e.maxLevel,
		CapturedBytes:     e.cm.peakBytes,
	}
	nodes := (e.nfa.Size() - 1) + len(e.tr.nodes) + e.tr.predNodes
	st.EstimatedBits = fragment.EstimatedBits(nodes, st.PeakLiveTuples, ms.PeakBufferBytes, e.maxLevel) + ms.PeakGroupBits
	st.LowerBoundBits = fragment.LowerBoundBits(e.maxFS, e.maxLevel)
	if st.LowerBoundBits > 0 {
		st.OptimalityRatio = float64(st.EstimatedBits) / float64(st.LowerBoundBits)
	}
	return st
}

// String renders the memory stats compactly.
func (s MemStats) String() string {
	return fmt.Sprintf("events=%d peakLive=%d (scopes=%d pendings=%d) peakBuffer=%dB maxDepth=%d estBits=%d lbBits=%d ratio=%.1f",
		s.Events, s.PeakLiveTuples, s.PeakScopes, s.PeakPendings, s.PeakBufferedBytes, s.MaxDepth,
		s.EstimatedBits, s.LowerBoundBits, s.OptimalityRatio)
}
