// Package limits defines the per-document resource budgets shared by the
// tokenizer, the core filter and the dissemination engine — the
// operational form of the paper's memory lower bounds.
//
// The paper (Sections 4-7) proves that any streaming XPath evaluator must
// hold Ω(frontier size) concurrent candidate state, Ω(r) state on
// documents with recursion depth r, and Ω(log d) bits on documents of
// depth d; the Section 8 algorithm meets those bounds up to log factors.
// The contrapositive is the robustness story: a document that drives the
// evaluator's live state beyond a configured budget is, by the lower
// bounds, a document no streaming evaluator could handle in that budget
// either — so the principled response is to stop with a typed, recoverable
// error rather than grow without bound. Each enforcement site compares a
// live-state measure against one budget field; a breach surfaces as a
// *Error that callers detect with errors.As, or that the engine turns into
// an abstain verdict under the Abstain policy (the degraded mode of the
// public API).
//
// The zero value of Limits disables every budget: all checks are a single
// compare against zero, so unlimited operation stays on the existing
// allocation-free hot path.
package limits

import "fmt"

// Policy selects what a match call does when a budget is breached.
type Policy uint8

const (
	// Fail (the default) returns the *Error.
	Fail Policy = iota
	// Abstain returns no error and the verdicts decided before the breach,
	// flagged as abstained. The engine's match calls apply it, so the
	// policy a document breached under is the one it ran with.
	Abstain
)

// Limits is a per-document resource budget. A field <= 0 leaves that
// budget unenforced. Breaches surface as *Error, or under Abstain as a
// degraded result.
type Limits struct {
	// MaxDepth bounds the open-element nesting depth (the paper's d and,
	// on recursive documents, its recursion term r). Enforced by the
	// tokenizer's element stack and the evaluators' level counters: a
	// 10^6-deep element chain is refused at depth MaxDepth+1, not parsed to
	// completion. Every layer counts it the same way: a self-closing tag is
	// a level like any element, and an element's attributes — child events,
	// in the paper's folding of the attribute axis — sit one level below it.
	MaxDepth int
	// MaxTokenBytes bounds the size of a single token: a text run, CDATA
	// section, comment, processing instruction, or attribute value. In
	// streaming mode this also bounds the retained unconsumed tail, since
	// an incomplete construct is held until it completes — the budget that
	// stops a gigabyte text node (or a tag with 10^4 attributes) from
	// buffering whole.
	MaxTokenBytes int
	// MaxBufferedBytes bounds the evaluators' candidate-text buffer (the
	// paper's text-width term w): bytes held for value-restricted
	// predicate leaves awaiting truth-set evaluation, plus, in the shared
	// engine, fragment captures. In the shared engine only numeric
	// comparisons, string functions and other truth sets buffer — a
	// textual = or != against a string constant streams its text through a
	// cursor into its constants (charged in MemStats.PeakGroupBits) and
	// holds none of it; the Section 8 reference filter buffers every
	// restricted leaf.
	MaxBufferedBytes int
	// MaxLiveTuples bounds the evaluators' live matching state: frontier
	// tuples plus open candidate scopes plus pending leaf candidates (the
	// paper's frontier-size term FS(Q), times recursion on recursive
	// documents), plus, in the shared engine, one automaton-stack entry per
	// open element. In the shared engine only predicate steps hold frontier
	// tuples — a subscription's location-step continuations are offered by
	// the shared automaton's states, not held, a step with no predicate on
	// its path from the root opens no scope, and no scope stands for the
	// document root, so a set with no predicate is charged the depth alone;
	// a live obligation is a tuple where its scope has two or more, and a
	// scope with one (a predicate group's, a step's or a predicate node's
	// with one conjunct) pays for it and is charged once — and
	// dead-but-unremoved tuples are evicted before a breach is declared, so
	// the budget measures state that could still influence a verdict.
	MaxLiveTuples int
	// MaxDocBytes bounds the total document size: bytes consumed from a
	// reader, or the slice length on the in-memory paths.
	MaxDocBytes int64
	// Policy selects failure (Fail, the default) or graceful degradation
	// (Abstain) on a breach; the enforcement sites ignore it.
	Policy Policy
}

// Enabled reports whether any budget is set.
func (l Limits) Enabled() bool {
	return l.MaxDepth > 0 || l.MaxTokenBytes > 0 || l.MaxBufferedBytes > 0 ||
		l.MaxLiveTuples > 0 || l.MaxDocBytes > 0
}

// Error reports a resource-budget breach: which budget, its configured
// value, and the observed value that crossed it. It is returned (never
// panicked) by every enforcement site, and the breaching component is
// left reusable after its Reset. Detect with errors.As; the observed
// value may exceed the limit by at most one event's worth of state, since
// budgets are checked at event granularity.
type Error struct {
	// Resource names the breached budget: "depth", "token-bytes",
	// "buffered-bytes", "live-tuples", or "doc-bytes".
	Resource string
	// Limit is the configured budget.
	Limit int64
	// Observed is the live-state measure that crossed it.
	Observed int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("resource limit exceeded: %s %d > %d", e.Resource, e.Observed, e.Limit)
}
