// Package parallel implements the parallel sharded dissemination engine:
// the multi-core scaling layer over internal/engine.
//
// The sequential engine is single-threaded by design — one symbol table,
// one frontier — and PR 2 pushed its per-event cost to ~50-100ns with
// zero steady-state allocations, so the next order of magnitude in
// subscription throughput is cores, not constants. This package supplies
// the two classic ways to spend them:
//
//   - Sharded (event-sharded, one document at a time): subscriptions are
//     hash-partitioned across N independent engine.Engine shards that all
//     bind to ONE shared symtab.Table. A document is tokenized once, on
//     the interned-symbol byte fast path, by the calling goroutine; the
//     resulting symbol events are broadcast to per-shard worker
//     goroutines through reusable refcounted batches, so every shard
//     matches its subscription subset concurrently over the same event
//     stream. Per-shard match sets are merged back into the global
//     subscription insertion order, yielding results byte-identical to
//     the sequential FilterSet. This mode parallelizes a single large
//     document against a large subscription set.
//
//   - Pool (document-parallel): a worker pool of complete engine
//     replicas, each carrying every subscription and matching whole
//     documents independently — embarrassingly parallel, for feed
//     workloads where documents arrive faster than one core can match
//     them. Replicas share the same symtab.Table too, so a feed's name
//     vocabulary is interned once no matter which replica sees a name
//     first.
//
// Sharing one symbol table is what makes both modes cheap: symtab.Table
// is copy-on-write (see its package comment), so the shards' hot loops
// read symbols lock-free while interning — the only write, and only on
// the first sight of a name — stays off the steady-state path entirely.
package parallel

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/symtab"
)

// PanicError reports a panic recovered inside a parallel worker (a shard
// goroutine or a pool replica). The in-flight document fails with this
// error; the worker's engine is quarantined and rebuilt from its intact
// subscription list before the next document, so the set stays usable.
type PanicError struct {
	// Recovered is the value the panic carried.
	Recovered any
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: recovered panic in worker: %v", e.Recovered)
}

// newPanicError wraps a recovered value for the public error chain.
func newPanicError(rec any) error {
	return fmt.Errorf("streamxpath: %w", &PanicError{Recovered: rec, Stack: debug.Stack()})
}

// shard is one subscription partition: a sequential engine plus the ring
// the tokenizer feeds it through. Engines are touched only by their
// worker goroutine during a document and only by the caller between
// documents (the per-document WaitGroup orders the two).
type shard struct {
	eng *engine.Engine
	in  chan *batch
	err error    // first processing error of the current document
	ids []string // per-document scratch for AppendMatchedIDs
	// decided is published by the worker after each batch once every
	// subscription of this shard has matched; the streaming producer
	// polls it between chunks to stop reading input early. Reset by the
	// producer before the document's first dispatch.
	decided atomic.Bool
	// fault, when non-nil, is invoked once per processed batch inside the
	// worker's panic-recovery region — the fault-injection hook the
	// isolation tests use to simulate an engine bug.
	fault func()
}

// Sharded is the event-sharded engine. Construct with NewSharded, add
// subscriptions, then match documents; Close releases the worker
// goroutines. Add, Remove and Match* calls are mutually serialized (one
// document at a time — the parallelism is across shards within the
// document); use Pool to match several documents concurrently.
type Sharded struct {
	mu     sync.Mutex
	tab    *symtab.Table
	shards []*shard

	// subs is the global subscription insertion order. Per-shard verdicts
	// are merged through it so results come out identical to the
	// sequential engine's.
	subs roster

	// free recycles batches; alloc counts those created, capped at ringCap
	// so a slow shard exerts backpressure instead of growing the heap.
	free  chan *batch
	alloc int

	wg      sync.WaitGroup // completion of the in-flight document
	workers sync.WaitGroup // shard goroutine lifetimes, for Close
	closed  bool

	tok     *sax.TokenizerBytes
	matched []bool

	// lim holds the per-document resource budgets, mirrored into every
	// shard engine and the tokenizers (zero value: none).
	lim limits.Limits

	// Streaming state of MatchReader: the resumable chunked tokenizer and
	// the per-document state the cached Drive callbacks operate on (curB
	// is the batch being filled; the callbacks are built once so repeat
	// calls allocate nothing).
	stok       *sax.StreamTokenizer
	curB       *batch
	needTextMR bool
	dispatched bool
	canDecide  bool
	procCb     func(sax.ByteEvent) error
	chunkCb    func()
	decCb      func() bool
}

// NewSharded returns an engine with n shards (n < 1 is treated as 1).
func NewSharded(n int) *Sharded { return NewShardedTab(n, nil) }

// NewShardedTab is NewSharded interning into tab (nil for a private
// table) — the hook the adaptive engine uses to bind its sharded and
// pooled halves to one symbol space.
func NewShardedTab(n int, tab *symtab.Table) *Sharded {
	if n < 1 {
		n = 1
	}
	if tab == nil {
		tab = symtab.New()
	}
	s := &Sharded{
		tab:  tab,
		free: make(chan *batch, ringCap),
	}
	for i := 0; i < n; i++ {
		sh := &shard{
			eng: engine.NewWithSymbols(s.tab),
			in:  make(chan *batch, ringCap),
		}
		s.shards = append(s.shards, sh)
		s.workers.Add(1)
		go s.run(sh)
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// SetLimits configures the per-document resource budgets on every shard
// engine and the tokenizers (the zero value disables them). A breach
// fails only the in-flight document with a *limits.Error; the set stays
// usable.
func (s *Sharded) SetLimits(l limits.Limits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lim = l
	for _, sh := range s.shards {
		sh.eng.SetLimits(l)
	}
	if s.tok != nil {
		s.tok.SetLimits(l)
	}
	if s.stok != nil {
		s.stok.SetLimits(l)
	}
}

// shardOf assigns a subscription id to a shard by FNV-1a hash, so the
// partition is stable under Add/Remove churn.
func (s *Sharded) shardOf(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// Add registers a subscription under the given id on its hash shard. The
// query must already be compiled; validation errors surface exactly as
// from the sequential engine.
func (s *Sharded) Add(id string, q *query.Query) error {
	return s.add(id, q, false)
}

// AddExtract registers a subscription with fragment extraction enabled;
// match calls with a capture mode return its matched subtree.
func (s *Sharded) AddExtract(id string, q *query.Query) error {
	return s.add(id, q, true)
}

func (s *Sharded) add(id string, q *query.Query, extract bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.subs.has(id) {
		return fmt.Errorf("engine: duplicate subscription id %q", id)
	}
	var err error
	if extract {
		err = s.shardOf(id).eng.AddExtract(id, q)
	} else {
		err = s.shardOf(id).eng.Add(id, q)
	}
	if err != nil {
		return err
	}
	s.subs.add(id)
	return nil
}

// Remove deregisters a subscription, reporting whether it existed.
func (s *Sharded) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.subs.remove(id) {
		return false
	}
	s.shardOf(id).eng.Remove(id)
	return true
}

// Len returns the number of subscriptions.
func (s *Sharded) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs.ids)
}

// IDs returns the subscription ids in insertion order.
func (s *Sharded) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs.list()
}

var errClosed = fmt.Errorf("parallel: engine is closed")

// getBatch obtains an empty batch: recycled if one is free, fresh while
// under the ring budget, otherwise blocking until a shard releases one.
func (s *Sharded) getBatch() *batch {
	select {
	case b := <-s.free:
		b.reset()
		return b
	default:
	}
	if s.alloc < ringCap {
		s.alloc++
		return newBatch()
	}
	b := <-s.free
	b.reset()
	return b
}

// dispatch broadcasts a filled batch to every shard.
func (s *Sharded) dispatch(b *batch) {
	b.refs.Store(int32(len(s.shards)))
	for _, sh := range s.shards {
		sh.in <- b
	}
}

// run is the shard worker loop: reset on a document's first batch,
// process records through the sequential engine, recycle the batch, and
// signal document completion on the last one. On a processing error the
// shard keeps draining (the tokenizer must never block on a wedged ring)
// and reports the error after the document completes. Batch release and
// the completion signal stay OUT of processBatch's recovered region, so
// even a panicking engine cannot wedge the broadcast ring or leak the
// document WaitGroup.
func (s *Sharded) run(sh *shard) {
	defer s.workers.Done()
	for b := range sh.in {
		s.processBatch(sh, b)
		last := b.last
		if b.release() {
			s.free <- b
		}
		if last {
			s.wg.Done()
		}
	}
}

// processBatch runs one batch through the shard's engine under panic
// isolation: a recovered panic fails only the in-flight document, with a
// typed *PanicError carrying the recovered value and stack, and
// quarantines the shard's engine — Rebuild replaces the matching state of
// unknown integrity wholesale by indexes built afresh from the intact
// subscription list.
func (s *Sharded) processBatch(sh *shard, b *batch) {
	defer func() {
		if rec := recover(); rec != nil {
			sh.err = newPanicError(rec)
			sh.eng.Rebuild()
		}
	}()
	if b.first {
		sh.eng.Reset()
		sh.err = nil
	}
	if sh.err != nil || b.abort {
		return
	}
	if sh.fault != nil {
		sh.fault()
	}
	for i := range b.recs {
		if err := sh.eng.ProcessBytes(b.event(i)); err != nil {
			sh.err = fmt.Errorf("streamxpath: %w", err)
			return
		}
	}
	// Publish this shard's early decision so a streaming producer can
	// stop reading input once every shard has one. A shard with no
	// subscriptions is trivially decided.
	if !sh.decided.Load() && (sh.eng.Len() == 0 || sh.eng.Decided()) {
		sh.decided.Store(true)
	}
}

// setCapture mirrors a capture mode into every shard engine. Safe under
// s.mu between documents: the engines are idle, and the mode takes
// effect at the worker's Reset on the document's first batch.
func (s *Sharded) setCapture(mode engine.CaptureMode) {
	for _, sh := range s.shards {
		sh.eng.SetCapture(mode)
	}
}

// collectFrags merges the shards' captured fragments back into the
// global subscription insertion order and copies the volatile ones
// (serial captures and attribute values alias engine-internal buffers
// that the next document overwrites). Called by finishDoc after its wait —
// the document WaitGroup has ordered the shard engines quiescent. doc is
// the whole-buffer document for slice-mode captures, nil on the reader
// path. The result is freshly allocated per call: fragments outlive
// the engine's scratch by design.
func (s *Sharded) collectFrags(doc []byte) []engine.Fragment {
	byPos := make([]engine.Fragment, len(s.subs.ids))
	seen := make([]bool, len(s.subs.ids))
	n := 0
	for _, sh := range s.shards {
		for _, f := range sh.eng.AppendFragments(nil, doc) {
			if i := s.subs.pos(f.ID); !seen[i] {
				byPos[i] = f
				seen[i] = true
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]engine.Fragment, 0, n)
	for i := range byPos {
		if seen[i] {
			out = append(out, byPos[i])
		}
	}
	engine.CopyVolatileFragments(out)
	return out
}

// MatchBytes matches one in-memory document against every subscription:
// tokenized once on the calling goroutine (every event dispatched — there
// is no skim on this path), matched concurrently by the shards, merged into
// insertion order. The outcome is assembled before the document lock is
// released and shares nothing with the engine: the id slice is freshly
// allocated, fragments of non-volatile origin are zero-copy subslices of
// doc and the rest (attribute values, shared-capture copies) private
// copies, and Mem aggregates the shards' accounting for this document.
func (s *Sharded) MatchBytes(doc []byte, mode engine.CaptureMode) (engine.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return engine.Outcome{}, errClosed
	}
	if l := s.lim.MaxDocBytes; l > 0 && int64(len(doc)) > l {
		return engine.Outcome{}, fmt.Errorf("streamxpath: %w",
			&limits.Error{Resource: "doc-bytes", Limit: l, Observed: int64(len(doc))})
	}
	if s.tok == nil {
		s.tok = sax.NewTokenizerBytes(doc, s.tab)
		s.tok.SetLimits(s.lim)
	} else {
		s.tok.Reset(doc)
	}
	s.setCapture(mode)
	needText := s.needText()
	s.wg.Add(len(s.shards))
	b := s.getBatch()
	b.first = true
	sawEnd := false
	var tokErr error
	// The tokenize loop runs under its own recover: once wg.Add has run,
	// a producer-side panic abandoned mid-document would leak the
	// document WaitGroup and wedge every later call — so it degrades to a
	// failed document instead, with the abort batch still dispatched.
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				tokErr = newPanicError(rec)
			}
		}()
		for {
			ev, err := s.tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				tokErr = err
				break
			}
			if ev.Kind == sax.EndDocument {
				sawEnd = true
			}
			b.add(ev, needText)
			if b.full() {
				s.dispatch(b)
				b = s.getBatch()
			}
		}
	}()
	if tokErr == nil && !sawEnd {
		tokErr = fmt.Errorf("streamxpath: document ended prematurely")
	}
	return s.finishDoc(b, tokErr, doc, mode)
}

// needText reports whether any shard reads character data (a
// value-restricted predicate leaf exists), so text payloads must ship in
// the batches.
func (s *Sharded) needText() bool {
	for _, sh := range s.shards {
		if sh.eng.NeedsText() {
			return true
		}
	}
	return false
}

// finishDoc dispatches the final batch (flagged abort on a tokenization
// error), waits for the shards, and assembles the document's outcome from
// the now-quiescent shard engines: the merged verdicts and, under a capture
// mode, the merged fragments (doc is the whole-buffer document for
// slice-mode captures, nil on the reader path) and the aggregated memory
// accounting, with the first error if there was one. On an error the verdicts and finalized captures
// decided BEFORE the failure are still returned alongside it — matching is
// monotone, so they are definitive, and the public abstain policy degrades
// to them. A shard quarantined by a panic reports no verdicts (its state
// was discarded), which only makes the partial result smaller, never wrong.
func (s *Sharded) finishDoc(b *batch, tokErr error, doc []byte, mode engine.CaptureMode) (engine.Outcome, error) {
	b.last = true
	b.abort = tokErr != nil
	s.dispatch(b)
	s.wg.Wait()
	err := tokErr
	for _, sh := range s.shards {
		if err == nil {
			err = sh.err
		}
	}
	out := engine.Outcome{IDs: s.merge()}
	if mode != engine.CaptureOff {
		out.Frags = s.collectFrags(doc)
		out.Mem = s.memStats()
	}
	return out, err
}

// MatchReader streams one document from r, tokenizing it chunk by chunk
// (chunkSize <= 0 selects sax.DefaultChunkSize) on the calling goroutine
// and broadcasting event batches to the shard workers as they fill — so
// I/O, tokenization and matching overlap: the shards are matching the
// first batches while the rest of the document is still arriving, and
// nothing ever buffers the whole document. Results are identical to
// MatchBytes on the document's bytes. Between chunks the producer polls
// the shards' decided flags; once every shard has nothing left to prove
// — all its subscriptions matched, or the rest proven unable to match by
// the dead-state analysis — the reader is abandoned (Outcome.Read reports
// the early exit and whether it was negative) and the remainder goes
// unvalidated. Fragments are re-serialized to canonical form (the input is
// never buffered whole, so zero-copy slicing is impossible on this path),
// and early exit waits for open captures to finalize. The outcome is
// assembled under the document lock, as in MatchBytes.
func (s *Sharded) MatchReader(r io.Reader, chunkSize int, mode engine.CaptureMode) (engine.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return engine.Outcome{}, errClosed
	}
	if s.stok == nil {
		s.stok = sax.NewStreamTokenizer(s.tab)
		s.stok.SetLimits(s.lim)
		// The Drive callbacks operate on per-document fields of s (one
		// document runs at a time under s.mu), built once so repeat
		// calls allocate nothing: procCb batches events (dispatching
		// full batches), chunkCb flushes the partial batch at each chunk
		// boundary — the shards start matching this chunk's events while
		// the next chunk is being read — and decCb reports whether every
		// shard has published an early decision for dispatched input.
		s.procCb = func(ev sax.ByteEvent) error {
			s.curB.add(ev, s.needTextMR)
			if s.curB.full() {
				s.dispatch(s.curB)
				s.dispatched = true
				s.curB = s.getBatch()
			}
			return nil
		}
		s.chunkCb = func() {
			if len(s.curB.recs) > 0 {
				s.dispatch(s.curB)
				s.dispatched = true
				s.curB = s.getBatch()
			}
		}
		s.decCb = func() bool {
			return s.canDecide && s.dispatched && s.allDecided()
		}
	} else {
		s.stok.Reset()
	}
	s.setCapture(mode)
	s.needTextMR = s.needText()
	for _, sh := range s.shards {
		sh.decided.Store(false)
	}
	s.canDecide = len(s.subs.ids) > 0
	s.dispatched = false
	s.wg.Add(len(s.shards))
	s.curB = s.getBatch()
	s.curB.first = true
	var ss sax.StreamStats
	var sawEnd bool
	var tokErr error
	// Same producer-side panic isolation as MatchBytes: after wg.Add, an
	// abandoned document would wedge every later call, so a panic in the
	// drive loop degrades to a failed document with the abort batch still
	// dispatched.
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if s.curB == nil {
					s.curB = s.getBatch()
				}
				tokErr = newPanicError(rec)
			}
		}()
		sawEnd, tokErr = s.stok.Drive(r, chunkSize, &ss, s.procCb, s.chunkCb, s.decCb)
	}()
	if tokErr == nil && !sawEnd && !ss.EarlyExit {
		tokErr = fmt.Errorf("streamxpath: document ended prematurely")
	}
	out, err := s.finishDoc(s.curB, tokErr, nil, mode)
	s.curB = nil
	ss.DecidedNegative = err == nil && ss.EarlyExit && len(out.IDs) < len(s.subs.ids)
	out.Read = ss
	return out, err
}

// allDecided reports whether every shard has published an early
// decision for the current document.
func (s *Sharded) allDecided() bool {
	for _, sh := range s.shards {
		if !sh.decided.Load() {
			return false
		}
	}
	return true
}

// merge folds the per-shard verdict sets back into the global insertion
// order, in a slice of the call's own. The sweep is O(subscriptions) — a
// per-document term the sequential engine's AppendMatchedIDs, which visits
// set bits only, does not pay — plus a binary search per matched id.
func (s *Sharded) merge() []string {
	if len(s.matched) != len(s.subs.ids) {
		s.matched = make([]bool, len(s.subs.ids))
	} else {
		clear(s.matched)
	}
	n := 0
	for _, sh := range s.shards {
		sh.ids = sh.eng.AppendMatchedIDs(sh.ids[:0])
		n += len(sh.ids)
		for _, id := range sh.ids {
			s.matched[s.subs.pos(id)] = true
		}
	}
	ids := make([]string, 0, n)
	for i, id := range s.subs.ids {
		if s.matched[i] {
			ids = append(ids, id)
		}
	}
	return ids
}

// Stats aggregates the shard engines' statistics: sizes and work counts
// sum; MaxLevel is the maximum.
func (s *Sharded) Stats() engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out engine.Stats
	for _, sh := range s.shards {
		st := sh.eng.Stats()
		out.Subscriptions += st.Subscriptions
		out.NFARouted += st.NFARouted
		out.TrieRouted += st.TrieRouted
		out.SpineSteps += st.SpineSteps
		out.SharedStates += st.SharedStates
		out.PredNodes += st.PredNodes
		out.DFAStates += st.DFAStates
		out.DFATransitions += st.DFATransitions
		out.DFAMaterialized += st.DFAMaterialized
		out.Rebuilds += st.Rebuilds
		out.Events += st.Events
		out.TupleVisits += st.TupleVisits
		out.FrontierInserts += st.FrontierInserts
		out.PeakTuples += st.PeakTuples
		out.PeakScopes += st.PeakScopes
		out.PeakBufferBytes += st.PeakBufferBytes
		if st.MaxLevel > out.MaxLevel {
			out.MaxLevel = st.MaxLevel
		}
	}
	return out
}

// memStats aggregates the shards' live-memory accounting for the document
// just finished: component peaks and estimated bits sum across shards
// (each held its state concurrently), depth and the lower bound are
// maxima, and the optimality ratio is recomputed from the aggregates.
// Caller holds s.mu.
func (s *Sharded) memStats() engine.MemStats {
	var out engine.MemStats
	for _, sh := range s.shards {
		ms := sh.eng.MemStats()
		out.Events += ms.Events
		out.GroupProbes += ms.GroupProbes
		out.PeakGroupBits += ms.PeakGroupBits
		out.PeakLiveTuples += ms.PeakLiveTuples
		out.PeakScopes += ms.PeakScopes
		out.PeakPendings += ms.PeakPendings
		out.PeakBufferedBytes += ms.PeakBufferedBytes
		out.CapturedBytes += ms.CapturedBytes
		out.EstimatedBits += ms.EstimatedBits
		if ms.MaxDepth > out.MaxDepth {
			out.MaxDepth = ms.MaxDepth
		}
		if ms.LowerBoundBits > out.LowerBoundBits {
			out.LowerBoundBits = ms.LowerBoundBits
		}
	}
	if out.LowerBoundBits > 0 {
		out.OptimalityRatio = float64(out.EstimatedBits) / float64(out.LowerBoundBits)
	}
	return out
}

// Close stops the shard goroutines. The set is unusable afterwards;
// Close is idempotent.
func (s *Sharded) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.workers.Wait()
}
