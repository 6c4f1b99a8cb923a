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
// paper's memory lower bounds; its fields are documented in
// internal/limits. A field <= 0 leaves that budget unenforced; the zero
// value disables everything, keeping unlimited matching on the
// allocation-free fast path (every check is one compare).
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
type Limits = limits.Limits

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
