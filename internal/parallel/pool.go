package parallel

import (
	"fmt"
	"io"
	"sync"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/symtab"
)

// replica is one complete engine copy of a Pool: every subscription, its
// own tokenizers and scratch. A replica is owned by exactly one Match
// call at a time (checked out of the idle ring), so its internals need no
// further synchronization.
type replica struct {
	eng  *engine.Engine
	stok *sax.StreamTokenizer
	ids  []string
	// lim holds the budgets, stored per replica so Match calls read them
	// while holding only the replica (SetLimits writes under acquireAll).
	lim limits.Limits
	// fault, when non-nil, is invoked at the start of each Match call
	// inside the recovery region — the fault-injection hook of the
	// isolation tests.
	fault func()
}

// Pool is the document-parallel mode: n engine replicas, each carrying
// the full subscription set, matching whole documents independently.
// MatchBytes is safe to call from any number of goroutines — each call
// checks a replica out of the idle ring, matches, and returns it — so a
// feed's documents spread across cores with no coordination beyond the
// checkout. All replicas intern into one shared symtab.Table; a name
// seen by any replica is a warm lock-free probe for every other.
//
// Add and Remove apply to every replica. They acquire the whole pool
// (waiting for in-flight matches to finish), so subscription churn
// serializes against matching exactly as documents do in the sequential
// engine.
type Pool struct {
	tab  *symtab.Table
	idle chan *replica
	reps []*replica

	// mu serializes Add/Remove/Len/IDs against each other and guards the
	// last-call reader stats; matching only contends on the idle ring.
	mu     sync.Mutex
	subs   roster
	rstats ReadStats
}

// NewPool returns a pool of n replicas (n < 1 is treated as 1).
func NewPool(n int) *Pool { return NewPoolTab(n, nil) }

// NewPoolTab is NewPool interning into tab (nil for a private table) —
// the hook the adaptive engine uses to bind its sharded and pooled
// halves to one symbol space.
func NewPoolTab(n int, tab *symtab.Table) *Pool {
	if n < 1 {
		n = 1
	}
	if tab == nil {
		tab = symtab.New()
	}
	p := &Pool{tab: tab, idle: make(chan *replica, n)}
	for i := 0; i < n; i++ {
		r := &replica{eng: engine.NewWithSymbols(p.tab)}
		p.reps = append(p.reps, r)
		p.idle <- r
	}
	return p
}

// Workers returns the replica count.
func (p *Pool) Workers() int { return len(p.reps) }

// SetLimits configures the per-document resource budgets on every
// replica (the zero value disables them). It acquires the whole pool, so
// budgets never change under an in-flight match.
func (p *Pool) SetLimits(l limits.Limits) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	for _, r := range p.reps {
		r.lim = l
		r.eng.SetLimits(l)
		if r.stok != nil {
			r.stok.SetLimits(l)
		}
	}
}

// Limits returns the configured budgets.
func (p *Pool) Limits() limits.Limits {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reps[0].lim
}

// matchedSoFar snapshots the replica's definitively matched ids — on an
// error mid-document these are still final (matching is monotone), and
// the public abstain policy degrades to them.
func matchedSoFar(r *replica) []string {
	r.ids = r.eng.AppendMatchedIDs(r.ids[:0])
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// acquireAll checks every replica out of the idle ring, waiting for
// in-flight matches to complete. The caller must releaseAll.
func (p *Pool) acquireAll() {
	for range p.reps {
		<-p.idle
	}
}

func (p *Pool) releaseAll() {
	for _, r := range p.reps {
		p.idle <- r
	}
}

// Add registers a subscription on every replica. The same compiled query
// drives each replica's engine (compile products are per-engine, the
// query tree itself is immutable), so a validation failure is identical
// across replicas and the pool stays consistent.
func (p *Pool) Add(id string, q *query.Query) error {
	return p.add(id, q, false)
}

// AddExtract registers a subscription with fragment extraction enabled
// on every replica; the Frags match variants capture and return its
// matched subtree.
func (p *Pool) AddExtract(id string, q *query.Query) error {
	return p.add(id, q, true)
}

func (p *Pool) add(id string, q *query.Query, extract bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	var first error
	for _, r := range p.reps {
		var err error
		if extract {
			err = r.eng.AddExtract(id, q)
		} else {
			err = r.eng.Add(id, q)
		}
		if err != nil {
			first = err
			break
		}
	}
	if first != nil {
		return first
	}
	p.subs.add(id)
	return nil
}

// Remove deregisters a subscription from every replica, reporting whether
// it existed.
func (p *Pool) Remove(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	for _, r := range p.reps {
		r.eng.Remove(id)
	}
	return p.subs.remove(id)
}

// Len returns the number of subscriptions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs.ids)
}

// IDs returns the subscription ids in insertion order.
func (p *Pool) IDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.subs.list()
}

// MatchBytes matches one in-memory document on a checked-out replica and
// returns the matching subscription ids in insertion order. Unlike the
// sequential FilterSet the returned slice is freshly allocated — calls
// run concurrently, so no shared result buffer exists to reuse. A panic
// inside the replica fails only this document with a typed *PanicError
// and quarantines the replica's engine (rebuilt from its subscription
// list before it returns to the ring); errors mid-document still carry
// the verdicts decided before the failure. The document is validated to
// its end but dispatched only until every verdict is final (see
// engine.Engine.MatchBuffered).
func (p *Pool) MatchBytes(doc []byte) ([]string, error) {
	ids, _, _, err := p.matchBytes(doc, engine.CaptureOff)
	return ids, err
}

// MatchBytesFrags is MatchBytes additionally returning the captured
// subtrees of matched extraction subscriptions, in subscription
// insertion order, and how many of the document's bytes were validated
// without dispatch (engine.Engine.MatchBuffered). Non-volatile fragments
// are zero-copy subslices of doc; volatile ones (attribute values) are
// copied before the replica returns to the ring, so fragments never alias
// replica scratch.
func (p *Pool) MatchBytesFrags(doc []byte) (ids []string, frags []engine.Fragment, skimmed int64, err error) {
	return p.matchBytes(doc, engine.CaptureSlice)
}

// fragsOf collects a replica's fragments and copies the volatile ones.
// Must run while the caller still holds the replica: volatile data
// aliases engine-internal buffers the next document overwrites.
func fragsOf(r *replica, doc []byte, mode engine.CaptureMode) []engine.Fragment {
	if mode == engine.CaptureOff {
		return nil
	}
	frags := r.eng.AppendFragments(nil, doc)
	engine.CopyVolatileFragments(frags)
	return frags
}

func (p *Pool) matchBytes(doc []byte, mode engine.CaptureMode) (ids []string, frags []engine.Fragment, skimmed int64, err error) {
	r := <-p.idle
	defer func() { p.idle <- r }()
	// Declared after the checkout-return defer, so on a panic this runs
	// FIRST: the replica is quarantined before it re-enters the ring.
	defer func() {
		if rec := recover(); rec != nil {
			r.eng.Rebuild()
			ids, frags, skimmed, err = nil, nil, 0, newPanicError(rec)
		}
	}()
	if r.fault != nil {
		r.fault()
	}
	skimmed, err = r.eng.MatchBuffered(doc, mode)
	return matchedSoFar(r), fragsOf(r, doc, mode), skimmed, err
}

// MatchReader streams one document from r on a checked-out replica
// through the chunked resumable tokenizer (chunkSize <= 0 selects
// sax.DefaultChunkSize): sequential bounded-memory matching with
// mid-stream early exit, document-parallel across concurrent calls.
func (p *Pool) MatchReader(r io.Reader, chunkSize int) ([]string, error) {
	ids, _, rs, err := p.matchReader(r, chunkSize, engine.CaptureOff)
	p.mu.Lock()
	p.rstats = rs
	p.mu.Unlock()
	return ids, err
}

// MatchReaderFrags is MatchReader additionally returning the captured
// subtrees of matched extraction subscriptions, re-serialized to
// canonical form (the input is never buffered whole). All fragments are
// freshly allocated.
func (p *Pool) MatchReaderFrags(r io.Reader, chunkSize int) ([]string, []engine.Fragment, ReadStats, error) {
	ids, frags, rs, err := p.matchReader(r, chunkSize, engine.CaptureSerial)
	p.mu.Lock()
	p.rstats = rs
	p.mu.Unlock()
	return ids, frags, rs, err
}

// ReadStats returns the input accounting of the last MatchReader call.
func (p *Pool) ReadStats() ReadStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rstats
}

// matchReader is MatchReader returning this call's accounting directly
// (concurrent calls make the stored "last call" stats ambiguous; the
// adaptive engine needs its own call's numbers). Panic isolation and
// partial-verdict error returns work as in MatchBytes.
func (p *Pool) matchReader(r io.Reader, chunkSize int, mode engine.CaptureMode) (ids []string, frags []engine.Fragment, rs ReadStats, err error) {
	var ss sax.StreamStats
	rep := <-p.idle
	defer func() { p.idle <- rep }()
	defer func() {
		if rec := recover(); rec != nil {
			rep.eng.Rebuild()
			ids, frags, rs, err = nil, nil, fromStream(ss), newPanicError(rec)
		}
	}()
	rep.eng.SetCapture(mode)
	rep.eng.Reset()
	if rep.stok == nil {
		rep.stok = sax.NewStreamTokenizer(p.tab)
		rep.stok.SetLimits(rep.lim)
	} else {
		rep.stok.Reset()
	}
	if rep.fault != nil {
		rep.fault()
	}
	process := func(ev sax.ByteEvent) error {
		if err := rep.eng.ProcessBytes(ev); err != nil {
			return fmt.Errorf("streamxpath: %w", err)
		}
		return nil
	}
	sawEnd, err := rep.stok.Drive(r, chunkSize, &ss, process, nil, rep.eng.Decided)
	rs = fromStream(ss)
	if err != nil {
		return matchedSoFar(rep), fragsOf(rep, nil, mode), rs, err
	}
	if !sawEnd && !rs.EarlyExit {
		return nil, nil, rs, fmt.Errorf("streamxpath: document ended prematurely")
	}
	out := matchedSoFar(rep)
	rs.DecidedNegative = rs.EarlyExit && len(out) < rep.eng.Len()
	return out, fragsOf(rep, nil, mode), rs, nil
}

// Symbols returns the shared symbol table.
func (p *Pool) Symbols() *symtab.Table { return p.tab }

// Stats returns one replica's engine statistics (replicas are identical
// in structure; per-document work reflects that replica's last match).
func (p *Pool) Stats() engine.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	return p.reps[0].eng.Stats()
}

// MemStats returns the live-memory accounting of the busiest replica's
// last document (with concurrent matching no single replica saw "the"
// last document; the busiest one is the most informative sample).
func (p *Pool) MemStats() engine.MemStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	var out engine.MemStats
	for _, r := range p.reps {
		if ms := r.eng.MemStats(); ms.Events > out.Events {
			out = ms
		}
	}
	return out
}
