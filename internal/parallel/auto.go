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

// Default thresholds of the adaptive policy. A document smaller than
// AutoSizeThreshold — or a subscription set smaller than AutoMinSubs,
// where per-shard work is too thin to amortize the broadcast — matches
// on a pooled replica (document-parallel shape, no fan-out overhead);
// everything else goes to the event-sharded engine.
const (
	AutoSizeThreshold = 32 << 10
	AutoMinSubs       = 256
)

// Auto is the adaptive dissemination engine: an event-sharded engine and
// a replica pool over the same subscriptions and ONE shared symbol
// table, with each Match call routed by the policy above. Readers are
// routed by peeking: the first AutoSizeThreshold bytes are staged, and
// only a document that proves larger is streamed through the sharded
// chunked path (the staged prefix replayed first). Both halves hold a
// full compiled index, so Auto trades ~2x index memory for never paying
// fan-out overhead on small documents.
type Auto struct {
	sh   *Sharded
	pool *Pool

	// sizeThreshold/minSubs are the routing thresholds (defaults above).
	sizeThreshold int
	minSubs       int

	// staging recycles MatchReader peek buffers. Staging is per call (not
	// a shared field) so pool-routed readers run concurrently — the whole
	// point of the pool shape.
	staging sync.Pool

	// mu guards only the last-call bookkeeping.
	mu       sync.Mutex
	rstats   ReadStats
	lastMode string
}

// NewAuto returns an adaptive engine with n shards and n pool replicas
// (n < 1 selects 1). sizeThreshold/minSubs <= 0 select the defaults.
func NewAuto(n, sizeThreshold, minSubs int) *Auto {
	if sizeThreshold <= 0 {
		sizeThreshold = AutoSizeThreshold
	}
	if minSubs <= 0 {
		minSubs = AutoMinSubs
	}
	tab := symtab.New()
	return &Auto{
		sh:            NewShardedTab(n, tab),
		pool:          NewPoolTab(n, tab),
		sizeThreshold: sizeThreshold,
		minSubs:       minSubs,
	}
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
// on both halves; the Frags match variants capture and return its
// matched subtree whichever engine the policy routes to.
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

// Symbols returns the shared symbol table.
func (a *Auto) Symbols() *symtab.Table { return a.sh.Symbols() }

// SetLimits configures the per-document resource budgets on both halves,
// so the policy's routing decision never changes which budgets apply.
func (a *Auto) SetLimits(l limits.Limits) {
	a.sh.SetLimits(l)
	a.pool.SetLimits(l)
}

// Limits returns the configured budgets.
func (a *Auto) Limits() limits.Limits { return a.sh.Limits() }

// sharded reports whether a document of the given size should fan out.
func (a *Auto) sharded(docSize int) bool {
	return docSize >= a.sizeThreshold && a.sh.Len() >= a.minSubs
}

// setMode records the route taken by the last Match call.
func (a *Auto) setMode(mode string) {
	a.mu.Lock()
	a.lastMode = mode
	a.mu.Unlock()
}

// note records the route and input accounting of a MatchReader call.
func (a *Auto) note(mode string, rs ReadStats) {
	a.mu.Lock()
	a.lastMode = mode
	a.rstats = rs
	a.mu.Unlock()
}

// LastMode reports which engine the last Match call ran on: "shard" or
// "pool".
func (a *Auto) LastMode() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastMode
}

// MatchBytes matches one in-memory document on the engine the policy
// picks. The returned slice follows that engine's reuse contract: the
// pool route returns a fresh slice, the sharded route reuses its buffer.
func (a *Auto) MatchBytes(doc []byte) ([]string, error) {
	if a.sharded(len(doc)) {
		a.setMode("shard")
		return a.sh.MatchBytes(doc)
	}
	a.setMode("pool")
	return a.pool.MatchBytes(doc)
}

// MatchBytesFrags is MatchBytes additionally returning the captured
// subtrees of matched extraction subscriptions, and how many of the
// document's bytes were validated without dispatch — the pool route's
// count; the sharded route dispatches every event. Both routes capture
// zero-copy subslices of doc where possible; volatile fragments are
// copied before return.
func (a *Auto) MatchBytesFrags(doc []byte) (ids []string, frags []engine.Fragment, skimmed int64, err error) {
	if a.sharded(len(doc)) {
		a.setMode("shard")
		ids, frags, err = a.sh.MatchBytesFrags(doc)
		return ids, frags, 0, err
	}
	a.setMode("pool")
	return a.pool.MatchBytesFrags(doc)
}

// MatchReader streams one document from r. The first sizeThreshold bytes
// are staged to learn the document's size class: a document that ends
// within them matches on a pooled replica; a larger one streams with the
// staged prefix replayed first — sequentially on a replica when the
// subscription set is below minSubs (bounded memory, no fan-out
// overhead), event-sharded otherwise (reading, tokenization and matching
// overlap). Nothing is ever buffered whole beyond the peek.
func (a *Auto) MatchReader(r io.Reader, chunkSize int) ([]string, error) {
	ids, _, _, err := a.matchReader(r, chunkSize, false)
	return ids, err
}

// MatchReaderFrags is MatchReader additionally returning the captured
// subtrees of matched extraction subscriptions, re-serialized to
// canonical form on every route (the staging buffer is recycled, so
// even a fully staged document cannot hand out aliases into it). All
// fragments are freshly allocated. The returned ReadStats is this
// call's own input accounting (the ReadStats accessor carries last-call
// semantics and misattributes under concurrent calls).
func (a *Auto) MatchReaderFrags(r io.Reader, chunkSize int) ([]string, []engine.Fragment, ReadStats, error) {
	return a.matchReader(r, chunkSize, true)
}

func (a *Auto) matchReader(r io.Reader, chunkSize int, extract bool) ([]string, []engine.Fragment, ReadStats, error) {
	var rs ReadStats
	bufp, _ := a.staging.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
		*bufp = make([]byte, 0, a.sizeThreshold)
	}
	defer a.staging.Put(bufp)
	buf := (*bufp)[:0]
	small := false
	for len(buf) < a.sizeThreshold {
		if cap(buf) < a.sizeThreshold {
			grown := make([]byte, len(buf), a.sizeThreshold)
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):a.sizeThreshold])
		buf = buf[:len(buf)+n]
		if n > 0 {
			rs.BytesRead += int64(n)
			rs.Chunks++
		}
		if err == io.EOF {
			small = true
			break
		}
		if err != nil {
			*bufp = buf
			return nil, nil, rs, err
		}
	}
	*bufp = buf
	mode := engine.CaptureOff
	if extract {
		// Serial even for the fully staged route: the staging buffer is
		// recycled, so slice captures into it would dangle — and serial
		// keeps the reader-path fragment form identical across routes.
		mode = engine.CaptureSerial
	}
	if small {
		// The whole document is staged: match it on a replica. Pool-routed
		// readers run concurrently — nothing here is shared per call.
		ids, frags, _, err := a.pool.matchBytes(buf, mode)
		rs.BytesConsumed = int64(len(buf))
		a.note("pool", rs)
		return ids, frags, rs, err
	}
	br := bytes.NewReader(buf)
	if a.sh.Len() < a.minSubs {
		// Larger than the peek but too few subscriptions to amortize the
		// fan-out: stream it sequentially on a pool replica — bounded
		// memory, no broadcast, still concurrent across documents.
		ids, frags, prs, err := a.pool.matchReader(io.MultiReader(br, r), chunkSize, mode)
		// prs.BytesRead counts reads from the MultiReader, replayed
		// prefix included; adding back the unconsumed prefix makes it the
		// bytes actually pulled from the caller's reader plus the peek.
		prs.BytesRead += int64(br.Len())
		a.note("pool", prs)
		return ids, frags, prs, err
	}
	// Large document, large subscription set: fan out event-sharded.
	// Sharded serializes documents internally.
	ids, frags, srs, err := a.sh.matchReader(io.MultiReader(br, r), chunkSize, mode)
	srs.BytesRead += int64(br.Len())
	a.note("shard", srs)
	return ids, frags, srs, err
}

// ReadStats returns the input accounting of the last MatchReader call.
func (a *Auto) ReadStats() ReadStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rstats
}

// Stats aggregates the sharded half's engine statistics (the pool's
// replicas are structurally identical).
func (a *Auto) Stats() engine.Stats { return a.sh.Stats() }

// MemStats returns the live-memory accounting of the half the last Match
// call ran on.
func (a *Auto) MemStats() engine.MemStats {
	a.mu.Lock()
	mode := a.lastMode
	a.mu.Unlock()
	if mode == "pool" {
		return a.pool.MemStats()
	}
	return a.sh.MemStats()
}

// Close stops the sharded half's workers. The engine is unusable
// afterwards; Close is idempotent.
func (a *Auto) Close() { a.sh.Close() }
