// Adaptive mode selection. BENCH_pr3 showed the event-sharded engine's
// per-document fan-out cost (batch broadcast, per-shard reset, merge)
// dominating on small documents, where a single engine finishes before
// the fan-out amortizes; conversely one core is the wrong shape for a
// large document against a large subscription set. Auto holds both
// engines on one symbol table and routes each document by size.
package parallel

import (
	"bytes"
	"io"
	"sync"

	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/symtab"
)

// Thresholds of the adaptive policy. A document smaller than
// autoSizeThreshold — or a subscription set smaller than autoMinSubs,
// where per-shard work is too thin to amortize the broadcast — matches
// on a pooled replica (document-parallel shape, no fan-out overhead);
// everything else goes to the event-sharded engine.
const (
	autoSizeThreshold = 32 << 10
	autoMinSubs       = 256
)

// Auto is the adaptive dissemination engine: an event-sharded engine and
// a replica pool over the same subscriptions and ONE shared symbol
// table, with each match call routed by the policy above
// (engine.Outcome.Sharded reports the route). Readers are routed by
// peeking: the first autoSizeThreshold bytes are staged, and only a
// document that proves larger is streamed through the sharded chunked
// path (the staged prefix replayed first). Both halves hold a full
// compiled index, so Auto trades ~2x index memory for never paying
// fan-out overhead on small documents.
type Auto struct {
	sh   *Sharded
	pool *Pool

	// staging recycles MatchReader peek buffers. Staging is per call (not
	// a shared field) so pool-routed readers run concurrently — the whole
	// point of the pool shape.
	staging sync.Pool
}

// NewAuto returns an adaptive engine with n shards and n pool replicas
// (n < 1 selects 1).
func NewAuto(n int) *Auto {
	tab := symtab.New()
	return &Auto{sh: NewShardedTab(n, tab), pool: NewPoolTab(n, tab)}
}

// Add registers a subscription on both halves.
func (a *Auto) Add(id string, q *query.Query) error {
	if err := a.sh.Add(id, q); err != nil {
		return err
	}
	if err := a.pool.Add(id, q); err != nil {
		// Validation is identical on both halves, so a pool failure here
		// means a duplicate-id race the Sharded half already guarded; keep
		// them consistent regardless.
		a.sh.Remove(id)
		return err
	}
	return nil
}

// AddExtract registers a subscription with fragment extraction enabled
// on both halves; match calls with a capture mode return its matched
// subtree whichever engine the policy routes to.
func (a *Auto) AddExtract(id string, q *query.Query) error {
	if err := a.sh.AddExtract(id, q); err != nil {
		return err
	}
	if err := a.pool.AddExtract(id, q); err != nil {
		a.sh.Remove(id)
		return err
	}
	return nil
}

// Remove deregisters a subscription from both halves.
func (a *Auto) Remove(id string) bool {
	ok := a.sh.Remove(id)
	a.pool.Remove(id)
	return ok
}

// Len returns the number of subscriptions.
func (a *Auto) Len() int { return a.sh.Len() }

// IDs returns the subscription ids in insertion order.
func (a *Auto) IDs() []string { return a.sh.IDs() }

// Shards returns the shard count of the event-sharded half.
func (a *Auto) Shards() int { return a.sh.Shards() }

// SetLimits configures the per-document resource budgets on both halves,
// so the policy's routing decision never changes which budgets apply.
func (a *Auto) SetLimits(l limits.Limits) {
	a.sh.SetLimits(l)
	a.pool.SetLimits(l)
}

// MatchBytes matches one in-memory document on the engine the policy
// picks: a replica validates the document to its end but dispatches it
// only until every verdict is final (Outcome.Skimmed), the sharded half
// dispatches every event. Either way the outcome is the call's own.
func (a *Auto) MatchBytes(doc []byte, mode engine.CaptureMode) (engine.Outcome, error) {
	if len(doc) >= autoSizeThreshold && a.sh.Len() >= autoMinSubs {
		out, err := a.sh.MatchBytes(doc, mode)
		out.Sharded = true
		return out, err
	}
	return a.pool.MatchBytes(doc, mode)
}

// MatchReader streams one document from r. The first autoSizeThreshold
// bytes are staged to learn the document's size class: a document that
// ends within them matches on a pooled replica; a larger one streams with
// the staged prefix replayed first — sequentially on a replica when the
// subscription set is below autoMinSubs (bounded memory, no fan-out
// overhead), event-sharded otherwise (reading, tokenization and matching
// overlap). Nothing is ever buffered whole beyond the peek. The staging
// buffer is recycled, so a capture mode for a reader must be
// engine.CaptureSerial: slice captures into the staged bytes would dangle,
// and serial keeps the fragment form identical across routes.
func (a *Auto) MatchReader(r io.Reader, chunkSize int, mode engine.CaptureMode) (engine.Outcome, error) {
	var peek engine.Outcome
	bufp, _ := a.staging.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
		*bufp = make([]byte, 0, autoSizeThreshold)
	}
	defer a.staging.Put(bufp)
	buf := (*bufp)[:0]
	small := false
	for len(buf) < autoSizeThreshold {
		n, err := r.Read(buf[len(buf):autoSizeThreshold])
		buf = buf[:len(buf)+n]
		if n > 0 {
			peek.Read.BytesRead += int64(n)
			peek.Read.Chunks++
		}
		if err == io.EOF {
			small = true
			break
		}
		if err != nil {
			return peek, err
		}
	}
	if small {
		// The whole document is staged: match it on a replica. Pool-routed
		// readers run concurrently — nothing here is shared per call.
		out, err := a.pool.MatchBytes(buf, mode)
		out.Read, out.Skimmed = peek.Read, 0
		out.Read.BytesConsumed = int64(len(buf))
		return out, err
	}
	// Larger than the peek: stream it, the staged prefix first. The halves
	// count the bytes they read from the replayed prefix too; adding back
	// the part of it they left unread makes BytesRead the bytes pulled from
	// the caller's reader.
	br := bytes.NewReader(buf)
	var out engine.Outcome
	var err error
	if a.sh.Len() < autoMinSubs {
		// Too few subscriptions to amortize the fan-out: sequentially on a
		// pool replica — bounded memory, no broadcast, still concurrent
		// across documents.
		out, err = a.pool.MatchReader(io.MultiReader(br, r), chunkSize, mode)
	} else {
		// Large document, large subscription set: fan out event-sharded.
		// Sharded serializes documents internally.
		out, err = a.sh.MatchReader(io.MultiReader(br, r), chunkSize, mode)
		out.Sharded = true
	}
	out.Read.BytesRead += int64(br.Len())
	return out, err
}

// Stats aggregates the sharded half's engine statistics (the pool's
// replicas are structurally identical).
func (a *Auto) Stats() engine.Stats { return a.sh.Stats() }

// Close stops the sharded half's workers. The engine is unusable
// afterwards; Close is idempotent.
func (a *Auto) Close() { a.sh.Close() }
