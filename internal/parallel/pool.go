// Package parallel is the concurrent dissemination matcher over
// internal/engine: a pool of engine replicas over one shared index, each with
// per-document state of its own, matching whole documents independently. A
// subscription is linked once, into the index, whatever the replica count;
// what a replica adds is its matching state — the NFA runner and its DFA
// memo, the trie matcher, the tokenizers — as in YFilter, whose one shared
// automaton is run with per-evaluation stacks, and as in regexp.Regexp, one
// compiled program with a private machine per goroutine. The sequential
// engine is single-threaded by design, so a feed whose documents arrive
// faster than one core can match them spends more cores on more documents at
// once, not on one document.
//
// The index's symtab.Table is copy-on-write (see its package comment), so
// the replicas' hot loops read symbols lock-free while interning — the only
// write, and only on the first sight of a name — stays off the steady-state
// path, and a feed's name vocabulary is interned once no matter which
// replica sees a name first.
package parallel

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
)

// PanicError reports a panic recovered inside a pool replica. The in-flight
// document fails with this error; the replica's per-document state is
// quarantined and replaced before the next document, and the index the
// replicas share — which matching never writes — is left as it was, so the
// pool stays usable.
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

// replica is one matcher of a Pool: an engine over the pool's index, with
// its own runner, tokenizers and scratch. A replica is owned by exactly one
// match call at a time (checked out of the idle ring), so its internals need
// no further synchronization.
type replica struct {
	eng *engine.Engine
	// fault, when non-nil, is invoked at the start of each match call
	// inside the recovery region — the fault-injection hook of the
	// isolation tests.
	fault func()
}

// Pool is the replica pool: n engine replicas over one index holding the
// subscription set, matching whole documents independently.
// MatchBytes and MatchReader are safe to call from any number of
// goroutines — each call checks a replica out of the idle ring, matches,
// and returns it — so a feed's documents spread across cores with no
// coordination beyond the checkout.
//
// Add, Remove, SetLimits and Stats acquire the whole pool (waiting for
// in-flight matches to finish), so subscription churn serializes against
// matching exactly as documents do in the sequential engine; a mutation
// patches the index once, and each replica sees it at its next document. A
// match call never waits for another: everything it reports is read off its
// own replica before the replica goes back.
type Pool struct {
	idle chan *replica
	reps []*replica
	// ix is the engine Add and Remove go through: the first replica, whose
	// index every replica shares.
	ix *engine.Engine

	// mu serializes Add/Remove/Len/IDs against each other; matching only
	// contends on the idle ring, and only reads the index.
	mu sync.Mutex
}

// NewPool returns a pool of n replicas (n < 1 is treated as 1) over one
// empty index with a symbol table of its own.
func NewPool(n int) *Pool {
	p := &Pool{idle: make(chan *replica, max(n, 1)), ix: engine.New()}
	for i := range cap(p.idle) {
		r := &replica{eng: p.ix}
		if i > 0 {
			r.eng = p.ix.Replica()
		}
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
		r.eng.SetLimits(l)
	}
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

// Add registers a subscription in the replicas' index, once for all of them.
func (p *Pool) Add(id string, q *query.Query) error {
	return p.add(id, q, false)
}

// AddExtract registers a subscription with fragment extraction enabled;
// match calls with a capture mode return its matched subtree.
func (p *Pool) AddExtract(id string, q *query.Query) error {
	return p.add(id, q, true)
}

func (p *Pool) add(id string, q *query.Query, extract bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	if extract {
		return p.ix.AddExtract(id, q)
	}
	return p.ix.Add(id, q)
}

// Remove deregisters a subscription, reporting whether it existed.
func (p *Pool) Remove(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	return p.ix.Remove(id)
}

// Len returns the number of subscriptions. It reads the index under mu
// alone: matches read it too, and only a mutation, which holds mu, writes it.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ix.Len()
}

// IDs returns the subscription ids in insertion order.
func (p *Pool) IDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ix.IDs()
}

// MatchBytes matches one in-memory document on a checked-out replica
// (engine.Engine.MatchBytes: validated to its end, dispatched only until
// every verdict is final). The outcome is detached from the replica before
// it returns to the ring: the id slice is freshly allocated — calls run
// concurrently, so no shared result buffer exists to reuse — and fragments
// are zero-copy subslices of doc or private copies, never replica scratch.
// A panic inside the replica fails only this document with a typed
// *PanicError and quarantines the replica (its per-document state replaced
// before it returns to the ring); errors mid-document still carry the
// verdicts decided before the failure.
func (p *Pool) MatchBytes(doc []byte, mode engine.CaptureMode) (engine.Outcome, error) {
	return p.match(func(e *engine.Engine) (engine.Outcome, error) { return e.MatchBytes(doc, mode) })
}

// MatchReader streams one document from r on a checked-out replica
// (engine.Engine.MatchReader): sequential bounded-memory matching with
// mid-stream early exit, document-parallel across concurrent calls. The
// outcome is detached and failures are isolated as in MatchBytes.
func (p *Pool) MatchReader(r io.Reader, chunkSize int, mode engine.CaptureMode) (engine.Outcome, error) {
	return p.match(func(e *engine.Engine) (engine.Outcome, error) { return e.MatchReader(r, chunkSize, mode) })
}

// match runs one document on a checked-out replica and takes everything
// the call will report off the replica while it is still held.
func (p *Pool) match(run func(*engine.Engine) (engine.Outcome, error)) (out engine.Outcome, err error) {
	r := <-p.idle
	defer func() { p.idle <- r }()
	// Declared after the checkout-return defer, so on a panic this runs
	// FIRST: the replica is quarantined before it re-enters the ring. Other
	// replicas may be matching or quarantined meanwhile, but no mutation
	// runs, which holds every replica: that is what Rebuild requires.
	defer func() {
		if rec := recover(); rec != nil {
			r.eng.Rebuild()
			out, err = engine.Outcome{}, newPanicError(rec)
		}
	}()
	if r.fault != nil {
		r.fault()
	}
	out, err = run(r.eng)
	out.Detach()
	return out, err
}

// Stats returns one replica's engine statistics (the index's sizes, which
// every replica shares; per-document work and the DFA memo are that
// replica's).
func (p *Pool) Stats() engine.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	return p.ix.Stats()
}
