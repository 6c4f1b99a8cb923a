package streamxpath

import (
	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
)

// LimitPolicy selects what a Match call does when a resource budget is
// breached mid-document. A document is held to the policy it started
// under: a SetLimits that lands while it runs applies from the next one.
type LimitPolicy = limits.Policy

const (
	// LimitFail (the default) fails the document: the Match call returns
	// a *LimitError (detect with errors.As) and no verdicts. The set or
	// filter stays fully usable for the next document.
	LimitFail = limits.Fail
	// LimitAbstain degrades gracefully: the Match call returns the
	// verdicts that were already decided when the budget was hit — they
	// are definitive, because matching is monotone — with a nil error,
	// and abstains on the rest. MatchResult.Abstained (and
	// ReaderStats.Abstained for reader calls) report the degradation, so
	// "matched" and "ran out of budget while unmatched" remain
	// distinguishable.
	LimitAbstain = limits.Abstain
)

// Limits is a per-document resource budget — the operational form of the
// paper's memory lower bounds. A field <= 0 leaves that budget
// unenforced; the zero value disables everything, keeping unlimited
// matching on the allocation-free fast path (every check is one compare).
//
// The paper proves any streaming evaluator needs Ω(frontier size)
// concurrent candidate state, Ω(r) state under recursion, and Ω(log d)
// bits at depth d. A document that drives live state past a budget is
// therefore one no streaming evaluator could handle in that budget — so
// the principled response is a typed, recoverable refusal (or an abstain
// verdict), never unbounded growth and never a panic.
//
// The whole-buffer Match methods stop dispatching a document once every
// verdict is final and only validate the rest (see FilterSet.MatchBytes).
// The budgets on the document itself — MaxDepth, MaxTokenBytes,
// MaxDocBytes — are enforced over that remainder exactly as before it.
// MaxBufferedBytes and MaxLiveTuples meter matching state, and a
// remainder that is not dispatched creates none, so they cannot be
// breached inside it: the verdicts are the same, and a document whose only
// breach of those two lay past its decision point now completes.
type Limits struct {
	// MaxDepth bounds the open-element nesting depth (the paper's d, and
	// its recursion term r on recursive documents). A 10^6-deep
	// element chain is refused at depth MaxDepth+1, not parsed to
	// completion. Every layer counts it the same way: a self-closing tag
	// is a level like any element, and an element's attributes — child
	// events, in the paper's folding of the attribute axis — sit one
	// level below it.
	MaxDepth int
	// MaxTokenBytes bounds a single token: text run, CDATA section,
	// comment, processing instruction, or attribute value — and, on the
	// streaming paths, the retained unconsumed tail. This is the budget
	// that stops a gigabyte text node (or a tag with 10^4 attributes)
	// from buffering whole.
	MaxTokenBytes int
	// MaxBufferedBytes bounds the candidate-text buffer (the paper's
	// text-width term w): bytes held for value-restricted predicate
	// leaves awaiting truth-set evaluation, plus fragment captures. Only
	// numeric comparisons, string functions (contains, starts-with, …)
	// and other truth sets buffer; a textual = or != against a string
	// constant streams its text through a cursor into its constants
	// (charged in MemStats.PeakGroupBits) and holds none of it.
	MaxBufferedBytes int
	// MaxLiveTuples bounds the live matching state: frontier tuples plus
	// open candidate scopes plus pending leaf candidates (the paper's
	// FS(Q), times recursion on recursive documents). In a FilterSet only
	// predicate steps hold frontier tuples — location-step continuations
	// are offered by the shared automaton's states, not held, and a step
	// with no predicate on its path from the root opens no scope — and
	// dead-but-unremoved tuples are evicted before a breach is declared,
	// so the budget measures state that could still influence a verdict.
	MaxLiveTuples int
	// MaxDocBytes bounds the total document size: bytes consumed from a
	// reader, or the slice length on the in-memory paths.
	MaxDocBytes int64
	// Policy selects failure (LimitFail, the default) or graceful
	// degradation (LimitAbstain) on a breach.
	Policy LimitPolicy
}

// Enabled reports whether any budget is set.
func (l Limits) Enabled() bool { return l.internal().Enabled() }

// internal is l in the form the internal layers take: the enforcement
// thresholds, and the policy the engine applies to a breach.
func (l Limits) internal() limits.Limits {
	return limits.Limits{
		MaxDepth:         l.MaxDepth,
		MaxTokenBytes:    l.MaxTokenBytes,
		MaxBufferedBytes: l.MaxBufferedBytes,
		MaxLiveTuples:    l.MaxLiveTuples,
		MaxDocBytes:      l.MaxDocBytes,
		Policy:           l.Policy,
	}
}

// LimitError reports a resource-budget breach: which budget (Resource),
// its configured value (Limit), and the observed value that crossed it
// (Observed). Every enforcement site returns it — never panics — and the
// breaching filter or set is reusable for the next document. Detect with
// errors.As; under LimitAbstain it is converted into a degraded verdict
// instead of surfacing.
type LimitError = limits.Error

// MemStats is the live-memory accounting of one document, with the
// paper's cost model and lower bound applied: the joint peak of the
// matching state and its component peaks, the bits they correspond to
// under the Theorem 8.8 cost model (EstimatedBits), the paper's floor for the same document shape
// (LowerBoundBits), and their ratio — how far above the
// information-theoretic minimum the evaluator actually sat.
type MemStats = engine.MemStats
