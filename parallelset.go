package streamxpath

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"streamxpath/internal/parallel"
)

// ParallelFilterSet is the multi-core FilterSet: subscriptions are
// hash-sharded across N independent copies of the shared dissemination
// engine, all bound to one concurrent symbol table. Each document is
// tokenized exactly once (on the calling goroutine, through the
// interned-symbol byte fast path) and its symbol events are fanned out
// to per-shard worker goroutines through reusable batched event rings;
// the per-shard match sets are merged back into subscription insertion
// order, so results are byte-identical to the sequential FilterSet on
// every document.
//
// This mode parallelizes one document at a time across cores — the right
// shape when the subscription set is large. Match calls from multiple
// goroutines are safe but serialize; to match many documents
// concurrently instead, use FilterPool.
//
// A ParallelFilterSet owns worker goroutines: call Close when done.
type ParallelFilterSet struct {
	s *parallel.Sharded
	// mu guards buf (the MatchString staging buffer), chunk, lim and the
	// abstain flags; the engine serializes Match calls itself.
	mu          sync.Mutex
	buf         []byte
	chunk       int
	lim         Limits
	abstained   bool
	rdAbstained bool
}

// applyLimitPolicy implements the caller-selected degradation shared by
// the parallel wrappers: under LimitAbstain a resource-budget breach
// degrades to the verdicts decided before it (matching is monotone, so
// they are final); any other error — or the default LimitFail policy —
// passes through.
func applyLimitPolicy(pol LimitPolicy, ids []string, err error) ([]string, bool, error) {
	if err == nil {
		return ids, false, nil
	}
	if pol == LimitAbstain && limitBreach(err) {
		if ids == nil {
			ids = []string{}
		}
		return ids, true, nil
	}
	return nil, false, err
}

// NewParallelFilterSet returns an empty set with the given number of
// shards; shards < 1 selects GOMAXPROCS.
func NewParallelFilterSet(shards int) *ParallelFilterSet {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &ParallelFilterSet{s: parallel.NewSharded(shards)}
}

// Add compiles a subscription under the given id and merges it into its
// shard's engine. Ids must be unique across the whole set. Queries
// outside the streamable fragment (see Query.NewFilter) are rejected.
func (s *ParallelFilterSet) Add(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.s.Add(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// AddExtract is Add with fragment extraction enabled: the Match*Result
// methods return the subscription's matched subtree as a Fragment. The
// boolean Match methods ignore the flag and keep their fast path.
func (s *ParallelFilterSet) AddExtract(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.s.AddExtract(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// Remove deregisters a subscription, reporting whether it existed.
func (s *ParallelFilterSet) Remove(id string) bool { return s.s.Remove(id) }

// Len returns the number of subscriptions.
func (s *ParallelFilterSet) Len() int { return s.s.Len() }

// IDs returns the subscription ids in insertion order.
func (s *ParallelFilterSet) IDs() []string { return s.s.IDs() }

// Shards returns the shard count.
func (s *ParallelFilterSet) Shards() int { return s.s.Shards() }

// SetLimits configures the per-document resource budgets (and breach
// policy) on every shard. The zero value disables them. It waits for an
// in-flight Match call to finish, so budgets never change mid-document.
func (s *ParallelFilterSet) SetLimits(l Limits) {
	s.mu.Lock()
	s.lim = l
	s.mu.Unlock()
	s.s.SetLimits(l.internal())
}

// Limits returns the configured budgets.
func (s *ParallelFilterSet) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lim
}

// Abstained reports whether the last Match call hit a resource budget
// under LimitAbstain and returned the verdicts decided before the
// breach.
//
// Deprecated: use the Match*Result methods, whose MatchResult.Abstained
// is the same call's flag rather than whatever call finished last.
func (s *ParallelFilterSet) Abstained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abstained
}

// MemStats aggregates the shards' live-memory accounting for the last
// document (see MemStats).
//
// Deprecated: use the Match*Result methods, whose MatchResult.MemStats
// is the same call's accounting rather than the last call's.
func (s *ParallelFilterSet) MemStats() MemStats { return s.s.MemStats() }

// finishLocked applies the abstain policy to one Match call's outcome
// and records the flag. Caller holds s.mu.
func (s *ParallelFilterSet) finishLocked(ids []string, err error, rd bool) ([]string, error) {
	out, abst, err := applyLimitPolicy(s.lim.Policy, ids, err)
	s.abstained = abst
	if rd {
		s.rdAbstained = abst
	}
	return out, err
}

func (s *ParallelFilterSet) finish(ids []string, err error, rd bool) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishLocked(ids, err, rd)
}

// finishFlags is finish additionally returning this call's abstain flag
// (the stored one is last-call state a concurrent call may overwrite).
func (s *ParallelFilterSet) finishFlags(ids []string, err error, rd bool) ([]string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, abst, err := applyLimitPolicy(s.lim.Policy, ids, err)
	s.abstained = abst
	if rd {
		s.rdAbstained = abst
	}
	return out, abst, err
}

// MatchBytes matches one in-memory document against every subscription
// and returns the matching ids in insertion order — the same answer, in
// the same order, as FilterSet.MatchBytes. The returned slice is reused
// by the next Match call on this set; copy it if it must outlive the
// call. It is non-nil even when empty.
func (s *ParallelFilterSet) MatchBytes(doc []byte) ([]string, error) {
	ids, err := s.s.MatchBytes(doc)
	return s.finish(ids, err, false)
}

// MatchBytesResult is MatchBytes returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions (AddExtract). Subtree fragments are zero-copy
// subslices of doc; attribute values are decoded copies. The result
// carries this call's abstain flag and aggregated memory accounting.
func (s *ParallelFilterSet) MatchBytesResult(doc []byte) (MatchResult, error) {
	ids, fr, err := s.s.MatchBytesFrags(doc)
	ids, abst, err := s.finishFlags(ids, err, false)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{
		MatchedIDs: ids,
		Fragments:  toFragments(fr, false),
		Abstained:  abst,
		MemStats:   s.s.MemStats(),
	}, nil
}

// MatchStringResult is MatchBytesResult over a string. The staging
// buffer is reused, so every fragment is freshly allocated and owned by
// the caller.
func (s *ParallelFilterSet) MatchStringResult(xml string) (MatchResult, error) {
	s.mu.Lock()
	s.buf = append(s.buf[:0], xml...)
	buf := s.buf
	s.mu.Unlock()
	ids, fr, err := s.s.MatchBytesFrags(buf)
	ids, abst, err := s.finishFlags(ids, err, false)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{
		MatchedIDs: ids,
		Fragments:  toFragments(fr, true),
		Abstained:  abst,
		MemStats:   s.s.MemStats(),
	}, nil
}

// MatchReaderResult is MatchReader returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions, re-serialized to canonical form (the input is never
// buffered whole) and freshly allocated, with this call's reader and
// memory accounting.
func (s *ParallelFilterSet) MatchReaderResult(r io.Reader) (MatchResult, error) {
	s.mu.Lock()
	chunk := s.chunk
	s.mu.Unlock()
	ids, fr, rs, err := s.s.MatchReaderFrags(r, chunk)
	ids, abst, err := s.finishFlags(ids, err, true)
	if err != nil {
		return MatchResult{}, err
	}
	res := MatchResult{
		MatchedIDs:  ids,
		Fragments:   toFragments(fr, false),
		Abstained:   abst,
		ReaderStats: ReaderStats(rs),
		MemStats:    s.s.MemStats(),
	}
	res.ReaderStats.Abstained = abst
	return res, nil
}

// MatchReader streams the document from r through the chunked parallel
// path: the calling goroutine tokenizes each chunk as it arrives
// (SetChunkSize; DefaultChunkSize otherwise) and broadcasts event
// batches to the shard workers immediately, overlapping I/O,
// tokenization and matching — the document is never buffered whole.
// Results are identical to MatchBytes on the same bytes. Once every
// shard's verdicts are decided mid-stream the reader is abandoned
// (ReaderStats reports the early exit) and the document's remainder is
// not validated.
func (s *ParallelFilterSet) MatchReader(r io.Reader) ([]string, error) {
	s.mu.Lock()
	chunk := s.chunk
	s.mu.Unlock()
	ids, err := s.s.MatchReader(r, chunk)
	return s.finish(ids, err, true)
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (s *ParallelFilterSet) SetChunkSize(n int) {
	s.mu.Lock()
	s.chunk = n
	s.mu.Unlock()
}

// ReaderStats returns the input accounting of the last MatchReader call:
// bytes read, bytes tokenized, and whether every verdict was decided
// before end of input.
//
// Deprecated: use MatchReaderResult, whose MatchResult.ReaderStats is
// the same call's accounting rather than the last call's.
func (s *ParallelFilterSet) ReaderStats() ReaderStats {
	out := ReaderStats(s.s.ReadStats())
	s.mu.Lock()
	out.Abstained = s.rdAbstained
	s.mu.Unlock()
	return out
}

// MatchString is MatchBytes over a string.
func (s *ParallelFilterSet) MatchString(xml string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf[:0], xml...)
	ids, err := s.s.MatchBytes(s.buf)
	return s.finishLocked(ids, err, false)
}

// Stats aggregates the shard engines' statistics (sizes and work sum
// across shards; MaxLevel is the maximum).
func (s *ParallelFilterSet) Stats() FilterSetStats { return s.s.Stats() }

// Close stops the shard worker goroutines. The set is unusable
// afterwards; Close is idempotent.
func (s *ParallelFilterSet) Close() { s.s.Close() }

// FilterPool is the document-parallel dissemination engine: a pool of
// complete engine replicas, each carrying every subscription, matching
// whole documents independently. MatchBytes is safe to call from any
// number of goroutines concurrently — each call checks out an idle
// replica — so a document feed spreads across cores with no coordination
// beyond the checkout. All replicas share one concurrent symbol table,
// so the feed's name vocabulary is interned once, whichever replica sees
// a name first.
//
// Choose FilterPool when documents arrive faster than one core matches
// them (feeds of small documents); choose ParallelFilterSet when a
// single document must be matched against a very large subscription set
// as fast as possible.
type FilterPool struct {
	p *parallel.Pool
	// mu guards chunk, lim and the abstain flags (with concurrent Match
	// calls these carry "most recently finished call" semantics).
	mu          sync.Mutex
	chunk       int
	lim         Limits
	abstained   bool
	rdAbstained bool
}

// NewFilterPool returns an empty pool with the given number of replica
// workers; workers < 1 selects GOMAXPROCS.
func NewFilterPool(workers int) *FilterPool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &FilterPool{p: parallel.NewPool(workers)}
}

// Add compiles a subscription under the given id on every replica.
// It waits for in-flight Match calls to drain.
func (p *FilterPool) Add(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := p.p.Add(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// AddExtract is Add with fragment extraction enabled: the Match*Result
// methods return the subscription's matched subtree as a Fragment. The
// boolean Match methods ignore the flag and keep their fast path.
func (p *FilterPool) AddExtract(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := p.p.AddExtract(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// Remove deregisters a subscription from every replica, reporting
// whether it existed. It waits for in-flight Match calls to drain.
func (p *FilterPool) Remove(id string) bool { return p.p.Remove(id) }

// Len returns the number of subscriptions.
func (p *FilterPool) Len() int { return p.p.Len() }

// IDs returns the subscription ids in insertion order.
func (p *FilterPool) IDs() []string { return p.p.IDs() }

// Workers returns the replica count.
func (p *FilterPool) Workers() int { return p.p.Workers() }

// SetLimits configures the per-document resource budgets (and breach
// policy) on every replica. The zero value disables them. It waits for
// in-flight Match calls to drain, so budgets never change mid-document.
func (p *FilterPool) SetLimits(l Limits) {
	p.mu.Lock()
	p.lim = l
	p.mu.Unlock()
	p.p.SetLimits(l.internal())
}

// Limits returns the configured budgets.
func (p *FilterPool) Limits() Limits {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lim
}

// Abstained reports whether the most recently finished Match call hit a
// resource budget under LimitAbstain and returned the verdicts decided
// before the breach.
//
// Deprecated: use the Match*Result methods, whose MatchResult.Abstained
// is the same call's flag — with concurrent Match calls this accessor
// reports whichever call finished last.
func (p *FilterPool) Abstained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.abstained
}

// MemStats returns the live-memory accounting of the busiest replica's
// last document.
//
// Deprecated: use the Match*Result methods, whose MatchResult.MemStats
// is the same call's accounting rather than a cross-call sample.
func (p *FilterPool) MemStats() MemStats { return p.p.MemStats() }

// finish applies the abstain policy to one Match call's outcome and
// records the flag.
func (p *FilterPool) finish(ids []string, err error, rd bool) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, abst, err := applyLimitPolicy(p.lim.Policy, ids, err)
	p.abstained = abst
	if rd {
		p.rdAbstained = abst
	}
	return out, err
}

// MatchBytes matches one in-memory document on an idle replica and
// returns the matching ids in insertion order — identical to the
// sequential FilterSet's answer. The returned slice is freshly
// allocated (calls run concurrently, so there is no shared buffer to
// reuse).
func (p *FilterPool) MatchBytes(doc []byte) ([]string, error) {
	ids, err := p.p.MatchBytes(doc)
	return p.finish(ids, err, false)
}

// MatchString is MatchBytes over a string.
func (p *FilterPool) MatchString(xml string) ([]string, error) {
	ids, err := p.p.MatchBytes([]byte(xml))
	return p.finish(ids, err, false)
}

// MatchBytesResult is MatchBytes returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions (AddExtract). Subtree fragments are zero-copy
// subslices of doc; attribute values are decoded copies. Safe for
// concurrent calls — the result carries this call's own flags, not
// shared last-call state.
func (p *FilterPool) MatchBytesResult(doc []byte) (MatchResult, error) {
	ids, fr, skimmed, err := p.p.MatchBytesFrags(doc)
	ids, abst, err := p.finishFlags(ids, err, false)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{
		MatchedIDs:   ids,
		Fragments:    toFragments(fr, false),
		Abstained:    abst,
		MemStats:     p.p.MemStats(),
		SkimmedBytes: skimmed,
	}, nil
}

// MatchStringResult is MatchBytesResult over a string (the document
// bytes are freshly staged per call, so fragments never alias shared
// state).
func (p *FilterPool) MatchStringResult(xml string) (MatchResult, error) {
	return p.MatchBytesResult([]byte(xml))
}

// MatchReaderResult is MatchReader returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions, re-serialized to canonical form and freshly
// allocated, with this call's reader and memory accounting. Safe for
// concurrent calls.
func (p *FilterPool) MatchReaderResult(r io.Reader) (MatchResult, error) {
	p.mu.Lock()
	chunk := p.chunk
	p.mu.Unlock()
	ids, fr, rs, err := p.p.MatchReaderFrags(r, chunk)
	ids, abst, err := p.finishFlags(ids, err, true)
	if err != nil {
		return MatchResult{}, err
	}
	res := MatchResult{
		MatchedIDs:  ids,
		Fragments:   toFragments(fr, false),
		Abstained:   abst,
		ReaderStats: ReaderStats(rs),
		MemStats:    p.p.MemStats(),
	}
	res.ReaderStats.Abstained = abst
	return res, nil
}

// finishFlags is finish additionally returning this call's abstain flag
// (the stored one is last-call state a concurrent call may overwrite).
func (p *FilterPool) finishFlags(ids []string, err error, rd bool) ([]string, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, abst, err := applyLimitPolicy(p.lim.Policy, ids, err)
	p.abstained = abst
	if rd {
		p.rdAbstained = abst
	}
	return out, abst, err
}

// MatchReader streams one document from r on a checked-out replica
// through the chunked byte path: sequential bounded-memory matching with
// mid-stream early exit, safe to call from any number of goroutines
// concurrently (each call owns one replica).
func (p *FilterPool) MatchReader(r io.Reader) ([]string, error) {
	p.mu.Lock()
	chunk := p.chunk
	p.mu.Unlock()
	ids, err := p.p.MatchReader(r, chunk)
	return p.finish(ids, err, true)
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (p *FilterPool) SetChunkSize(n int) {
	p.mu.Lock()
	p.chunk = n
	p.mu.Unlock()
}

// ReaderStats returns the input accounting of the last MatchReader call
// (with concurrent calls, "last" is whichever finished most recently).
//
// Deprecated: use MatchReaderResult, whose MatchResult.ReaderStats is
// the same call's accounting rather than the last call's.
func (p *FilterPool) ReaderStats() ReaderStats {
	out := ReaderStats(p.p.ReadStats())
	p.mu.Lock()
	out.Abstained = p.rdAbstained
	p.mu.Unlock()
	return out
}

// Stats returns one replica's engine statistics (replicas are identical
// in structure).
func (p *FilterPool) Stats() FilterSetStats { return p.p.Stats() }

// AdaptiveFilterSet picks the parallel mode per document: documents
// below a size threshold — or subscription sets below a count threshold,
// where per-shard work is too thin to amortize the event broadcast —
// match on a FilterPool replica (document-parallel, no fan-out
// overhead), and everything else fans out on the event-sharded engine.
// Both halves share one symbol table and carry every subscription, so
// the routing decision is free and results are identical either way
// (and identical to the sequential FilterSet). MatchReader peeks the
// first threshold bytes to learn the size class before committing.
//
// An AdaptiveFilterSet owns worker goroutines: call Close when done.
type AdaptiveFilterSet struct {
	a *parallel.Auto
	// mu guards chunk, buf (the MatchString staging buffer), lim and the
	// abstain flags.
	mu          sync.Mutex
	chunk       int
	buf         []byte
	lim         Limits
	abstained   bool
	rdAbstained bool
}

// NewAdaptiveFilterSet returns an empty adaptive set with the given
// number of shards/replicas; workers < 1 selects GOMAXPROCS. The default
// thresholds (parallel.AutoSizeThreshold/AutoMinSubs) apply.
func NewAdaptiveFilterSet(workers int) *AdaptiveFilterSet {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &AdaptiveFilterSet{a: parallel.NewAuto(workers, 0, 0)}
}

// Add compiles a subscription under the given id on both halves. Ids
// must be unique. Queries outside the streamable fragment (see
// Query.NewFilter) are rejected.
func (s *AdaptiveFilterSet) Add(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.a.Add(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// AddExtract is Add with fragment extraction enabled on both halves:
// the Match*Result methods return the subscription's matched subtree as
// a Fragment whichever engine the size policy routes to. The boolean
// Match methods ignore the flag and keep their fast path.
func (s *AdaptiveFilterSet) AddExtract(id, querySrc string) error {
	q, err := Compile(querySrc)
	if err != nil {
		return err
	}
	if err := s.a.AddExtract(id, q.q); err != nil {
		return fmt.Errorf("streamxpath: subscription %q: %w", id, err)
	}
	return nil
}

// Remove deregisters a subscription, reporting whether it existed.
func (s *AdaptiveFilterSet) Remove(id string) bool { return s.a.Remove(id) }

// Len returns the number of subscriptions.
func (s *AdaptiveFilterSet) Len() int { return s.a.Len() }

// IDs returns the subscription ids in insertion order.
func (s *AdaptiveFilterSet) IDs() []string { return s.a.IDs() }

// Shards returns the worker count of each half.
func (s *AdaptiveFilterSet) Shards() int { return s.a.Shards() }

// SetLimits configures the per-document resource budgets (and breach
// policy) on both halves, so the routing decision never changes which
// budgets apply. The zero value disables them.
func (s *AdaptiveFilterSet) SetLimits(l Limits) {
	s.mu.Lock()
	s.lim = l
	s.mu.Unlock()
	s.a.SetLimits(l.internal())
}

// Limits returns the configured budgets.
func (s *AdaptiveFilterSet) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lim
}

// Abstained reports whether the last Match call hit a resource budget
// under LimitAbstain and returned the verdicts decided before the
// breach.
//
// Deprecated: use the Match*Result methods, whose MatchResult.Abstained
// is the same call's flag rather than whatever call finished last.
func (s *AdaptiveFilterSet) Abstained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abstained
}

// MemStats returns the live-memory accounting of the half the last
// Match call ran on.
//
// Deprecated: use the Match*Result methods, whose MatchResult.MemStats
// is the same call's accounting rather than the last call's.
func (s *AdaptiveFilterSet) MemStats() MemStats { return s.a.MemStats() }

// finishLocked applies the abstain policy to one Match call's outcome
// and records the flag. Caller holds s.mu.
func (s *AdaptiveFilterSet) finishLocked(ids []string, err error, rd bool) ([]string, error) {
	out, abst, err := applyLimitPolicy(s.lim.Policy, ids, err)
	s.abstained = abst
	if rd {
		s.rdAbstained = abst
	}
	return out, err
}

func (s *AdaptiveFilterSet) finish(ids []string, err error, rd bool) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishLocked(ids, err, rd)
}

// finishFlags is finish additionally returning this call's abstain flag
// (the stored one is last-call state a concurrent call may overwrite).
func (s *AdaptiveFilterSet) finishFlags(ids []string, err error, rd bool) ([]string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, abst, err := applyLimitPolicy(s.lim.Policy, ids, err)
	s.abstained = abst
	if rd {
		s.rdAbstained = abst
	}
	return out, abst, err
}

// MatchBytes matches one in-memory document on the half the size policy
// picks, returning the matching ids in insertion order (identical to
// FilterSet.MatchBytes). Copy the slice if it must outlive the call.
func (s *AdaptiveFilterSet) MatchBytes(doc []byte) ([]string, error) {
	ids, err := s.a.MatchBytes(doc)
	return s.finish(ids, err, false)
}

// MatchString is MatchBytes over a string, staged through a reusable
// buffer (calls serialize on it).
func (s *AdaptiveFilterSet) MatchString(xml string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf[:0], xml...)
	ids, err := s.a.MatchBytes(s.buf)
	return s.finishLocked(ids, err, false)
}

// MatchBytesResult is MatchBytes returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions (AddExtract), whichever half the size policy routed
// to. Subtree fragments are zero-copy subslices of doc; attribute
// values are decoded copies. Safe for concurrent calls — the result
// carries this call's own flags, not shared last-call state.
func (s *AdaptiveFilterSet) MatchBytesResult(doc []byte) (MatchResult, error) {
	ids, fr, skimmed, err := s.a.MatchBytesFrags(doc)
	ids, abst, err := s.finishFlags(ids, err, false)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{
		MatchedIDs:   ids,
		Fragments:    toFragments(fr, false),
		Abstained:    abst,
		MemStats:     s.a.MemStats(),
		SkimmedBytes: skimmed,
	}, nil
}

// MatchStringResult is MatchBytesResult over a string. The staging
// buffer is reused, so every fragment is freshly allocated and owned by
// the caller.
func (s *AdaptiveFilterSet) MatchStringResult(xml string) (MatchResult, error) {
	s.mu.Lock()
	s.buf = append(s.buf[:0], xml...)
	buf := s.buf
	s.mu.Unlock()
	ids, fr, skimmed, err := s.a.MatchBytesFrags(buf)
	ids, abst, err := s.finishFlags(ids, err, false)
	if err != nil {
		return MatchResult{}, err
	}
	return MatchResult{
		MatchedIDs:   ids,
		Fragments:    toFragments(fr, true),
		Abstained:    abst,
		MemStats:     s.a.MemStats(),
		SkimmedBytes: skimmed,
	}, nil
}

// MatchReaderResult is MatchReader returning the unified MatchResult:
// matched ids plus the extracted subtrees of extraction-enabled
// subscriptions, re-serialized to canonical form on every route (even
// a fully staged small document — the staging buffer is recycled) and
// freshly allocated, with this call's reader and memory accounting.
// Safe for concurrent calls.
func (s *AdaptiveFilterSet) MatchReaderResult(r io.Reader) (MatchResult, error) {
	s.mu.Lock()
	chunk := s.chunk
	s.mu.Unlock()
	ids, fr, rs, err := s.a.MatchReaderFrags(r, chunk)
	ids, abst, err := s.finishFlags(ids, err, true)
	if err != nil {
		return MatchResult{}, err
	}
	res := MatchResult{
		MatchedIDs:  ids,
		Fragments:   toFragments(fr, false),
		Abstained:   abst,
		ReaderStats: ReaderStats(rs),
		MemStats:    s.a.MemStats(),
	}
	res.ReaderStats.Abstained = abst
	return res, nil
}

// MatchReader streams one document from r: documents ending within the
// size threshold match on a pooled replica; larger ones stream chunked —
// sequentially on a replica when the subscription set is below the count
// threshold (bounded memory without fan-out overhead), event-sharded
// otherwise (I/O, tokenization and matching overlap) — with mid-stream
// early exit once every verdict is decided.
func (s *AdaptiveFilterSet) MatchReader(r io.Reader) ([]string, error) {
	s.mu.Lock()
	chunk := s.chunk
	s.mu.Unlock()
	ids, err := s.a.MatchReader(r, chunk)
	return s.finish(ids, err, true)
}

// SetChunkSize sets the read granularity of MatchReader (n <= 0 restores
// DefaultChunkSize).
func (s *AdaptiveFilterSet) SetChunkSize(n int) {
	s.mu.Lock()
	s.chunk = n
	s.mu.Unlock()
}

// ReaderStats returns the input accounting of the last MatchReader call.
//
// Deprecated: use MatchReaderResult, whose MatchResult.ReaderStats is
// the same call's accounting rather than the last call's.
func (s *AdaptiveFilterSet) ReaderStats() ReaderStats {
	out := ReaderStats(s.a.ReadStats())
	s.mu.Lock()
	out.Abstained = s.rdAbstained
	s.mu.Unlock()
	return out
}

// LastMode reports which half the last Match call ran on: "shard" or
// "pool".
func (s *AdaptiveFilterSet) LastMode() string { return s.a.LastMode() }

// Stats returns the sharded half's aggregated engine statistics.
func (s *AdaptiveFilterSet) Stats() FilterSetStats { return s.a.Stats() }

// Close stops the worker goroutines. The set is unusable afterwards;
// Close is idempotent.
func (s *AdaptiveFilterSet) Close() { s.a.Close() }
