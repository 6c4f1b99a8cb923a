// Package parallel is the concurrent dissemination matcher over
// internal/engine: a pool of complete engine replicas, each carrying every
// subscription, matching whole documents independently. The sequential
// engine is single-threaded by design — one symbol table, one frontier — so
// a feed whose documents arrive faster than one core can match them spends
// more cores on more documents at once, not on one document.
//
// The replicas share one symtab.Table. It is copy-on-write (see its package
// comment), so their hot loops read symbols lock-free while interning — the
// only write, and only on the first sight of a name — stays off the
// steady-state path, and a feed's name vocabulary is interned once no matter
// which replica sees a name first.
package parallel

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/symtab"
)

// PanicError reports a panic recovered inside a pool replica. The in-flight
// document fails with this error; the replica's engine is quarantined and
// rebuilt from its intact subscription list before the next document, so
// the pool stays usable.
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

// replica is one complete engine copy of a Pool: every subscription, its
// own tokenizers and scratch. A replica is owned by exactly one match
// call at a time (checked out of the idle ring), so its internals need no
// further synchronization.
type replica struct {
	eng *engine.Engine
	// fault, when non-nil, is invoked at the start of each match call
	// inside the recovery region — the fault-injection hook of the
	// isolation tests.
	fault func()
}

// Pool is the replica pool: n engine replicas, each carrying the full
// subscription set, matching whole documents independently.
// MatchBytes and MatchReader are safe to call from any number of
// goroutines — each call checks a replica out of the idle ring, matches,
// and returns it — so a feed's documents spread across cores with no
// coordination beyond the checkout. All replicas intern into one shared
// symtab.Table; a name seen by any replica is a warm lock-free probe for
// every other.
//
// Add, Remove, SetLimits and Stats acquire the whole pool (waiting for
// in-flight matches to finish), so subscription churn serializes against
// matching exactly as documents do in the sequential engine. A match call
// never does: everything it reports is read off its own replica before
// the replica goes back.
type Pool struct {
	idle chan *replica
	reps []*replica

	// mu serializes Add/Remove/Len/IDs against each other; matching only
	// contends on the idle ring.
	mu   sync.Mutex
	subs roster
}

// NewPool returns a pool of n replicas (n < 1 is treated as 1) interning
// into one symbol table of their own.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	tab := symtab.New()
	p := &Pool{idle: make(chan *replica, n)}
	for i := 0; i < n; i++ {
		r := &replica{eng: engine.NewWithSymbols(tab)}
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

// Add registers a subscription on every replica. The same compiled query
// drives each replica's engine (compile products are per-engine, the
// query tree itself is immutable), so a validation failure is identical
// across replicas and the pool stays consistent.
func (p *Pool) Add(id string, q *query.Query) error {
	return p.add(id, q, false)
}

// AddExtract registers a subscription with fragment extraction enabled
// on every replica; match calls with a capture mode return its matched
// subtree.
func (p *Pool) AddExtract(id string, q *query.Query) error {
	return p.add(id, q, true)
}

func (p *Pool) add(id string, q *query.Query, extract bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	for _, r := range p.reps {
		var err error
		if extract {
			err = r.eng.AddExtract(id, q)
		} else {
			err = r.eng.Add(id, q)
		}
		if err != nil {
			return err
		}
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

// MatchBytes matches one in-memory document on a checked-out replica
// (engine.Engine.MatchBytes: validated to its end, dispatched only until
// every verdict is final). The outcome is detached from the replica before
// it returns to the ring: the id slice is freshly allocated — calls run
// concurrently, so no shared result buffer exists to reuse — and fragments
// are zero-copy subslices of doc or private copies, never replica scratch.
// A panic inside the replica fails only this document with a typed
// *PanicError and quarantines the replica's engine (rebuilt from its
// subscription list before it returns to the ring); errors mid-document
// still carry the verdicts decided before the failure.
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
	// FIRST: the replica is quarantined before it re-enters the ring.
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

// Stats returns one replica's engine statistics (replicas are identical
// in structure; per-document work reflects that replica's last match).
func (p *Pool) Stats() engine.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acquireAll()
	defer p.releaseAll()
	return p.reps[0].eng.Stats()
}
