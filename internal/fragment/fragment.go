// Package fragment classifies Forward XPath queries into the fragments the
// paper's theorems quantify over: Redundancy-free XPath (Definition 5.1 =
// star-restricted + conjunctive + univariate + leaf-only-value-restricted +
// strongly subsumption-free), Recursive XPath (Section 7.2.1), the
// document-depth-eligible queries of Theorem 7.14, and the
// closure-free / path-consistency-free queries of Section 8.6, with the
// query-only analyses they rest on (structural query automorphisms,
// Definition 6.8; path consistency, Definition 8.5). Streamable decides
// which queries the Section 8 algorithm, and so the engine, evaluates.
//
// It also computes the query frontier size FS(Q) of Definition 4.1 — the
// quantity the paper's headline lower bound is stated in — and prices
// memory by Theorem 8.8's cost model (EstimatedBits, LowerBoundBits).
package fragment

import (
	"errors"
	"fmt"
	"math/bits"

	"streamxpath/internal/query"
)

// Check is the outcome of one fragment test: whether it holds and, if not
// (or if undecided), why.
type Check struct {
	OK     bool
	Reason string // empty when OK and decided exactly
}

// Err is what a caller that requires the check reports: nil when it holds,
// else its reason, attributed to this package.
func (c Check) Err() error {
	if c.OK {
		return nil
	}
	return errors.New("fragment: " + c.Reason)
}

// Report aggregates every fragment property of a query.
type Report struct {
	StarRestricted          Check
	Conjunctive             Check
	Univariate              Check
	LeafOnlyValueRestricted Check
	Sunflower               Check
	PrefixSunflower         Check
}

// RedundancyFree reports whether all five conditions of Definition 5.1
// hold (strong subsumption-freeness being the two sunflower properties,
// Definition 5.18).
func (r *Report) RedundancyFree() bool {
	return r.StarRestricted.OK && r.Conjunctive.OK && r.Univariate.OK &&
		r.LeafOnlyValueRestricted.OK && r.Sunflower.OK && r.PrefixSunflower.OK
}

// Issues lists the reasons for every failing check.
func (r *Report) Issues() []string {
	var out []string
	for _, c := range []struct {
		name string
		c    Check
	}{
		{"star-restricted", r.StarRestricted},
		{"conjunctive", r.Conjunctive},
		{"univariate", r.Univariate},
		{"leaf-only-value-restricted", r.LeafOnlyValueRestricted},
		{"sunflower", r.Sunflower},
		{"prefix-sunflower", r.PrefixSunflower},
	} {
		if !c.c.OK {
			out = append(out, c.name+": "+c.c.Reason)
		}
	}
	return out
}

// Classify runs every fragment test on q. The sunflower checks depend on
// the first four holding; when they do not, the sunflower checks are
// reported as failed with a dependency reason.
func Classify(q *query.Query) *Report {
	r := &Report{
		StarRestricted: StarRestricted(q),
		Conjunctive:    Conjunctive(q),
		Univariate:     Univariate(q),
	}
	if !r.Univariate.OK {
		dep := Check{Reason: "requires a univariate query"}
		r.LeafOnlyValueRestricted, r.Sunflower, r.PrefixSunflower = dep, dep, dep
		return r
	}
	r.LeafOnlyValueRestricted = LeafOnlyValueRestricted(q)
	r.Sunflower = Sunflower(q)
	r.PrefixSunflower = PrefixSunflower(q)
	return r
}

// IsRedundancyFree is shorthand for Classify(q).RedundancyFree().
func IsRedundancyFree(q *query.Query) bool { return Classify(q).RedundancyFree() }

// StarRestricted implements Definition 5.2: no wildcard node is a leaf, has
// a descendant axis, or has a child with a descendant axis.
func StarRestricted(q *query.Query) Check {
	for _, u := range q.Nodes() {
		if !u.IsWildcard() {
			continue
		}
		if u.IsLeaf() {
			return Check{Reason: fmt.Sprintf("wildcard node at depth %d is a leaf", u.Depth())}
		}
		if u.Axis == query.AxisDescendant {
			return Check{Reason: "wildcard node has a descendant axis (pattern like //*)"}
		}
		for _, c := range u.Children {
			if c.Axis == query.AxisDescendant {
				return Check{Reason: "wildcard node has a child with a descendant axis (pattern like */..//x)"}
			}
		}
	}
	return Check{OK: true}
}

// Conjunctive implements Definition 5.4: every predicate is an atomic
// predicate or a conjunction of atomic predicates (Definition 5.3). In
// particular no or/not anywhere, and no boolean-output operator strictly
// inside an atomic predicate (which would force boolean-to-non-boolean
// casts like 1 - (a > 5)).
func Conjunctive(q *query.Query) Check { return conjunctive(q.Nodes()) }

// conjunctive is Conjunctive over the query's nodes.
func conjunctive(nodes []*query.Node) Check {
	for _, u := range nodes {
		if u.Pred == nil {
			continue
		}
		if c := conjunctivePred(u.Pred); !c.OK {
			return c
		}
	}
	return Check{OK: true}
}

func conjunctivePred(e *query.Expr) Check {
	// Top level: an `and` spine over atomics, or a single atomic.
	if e.Kind == query.ExprLogic {
		if e.Op != "and" {
			return Check{Reason: fmt.Sprintf("predicate uses %s", e.Op)}
		}
		for _, a := range e.Args {
			if c := conjunctivePred(a); !c.OK {
				return c
			}
		}
		return Check{OK: true}
	}
	return atomicOK(e, true)
}

// atomicOK checks Definition 5.3 on a candidate atomic predicate: no
// logical operators inside, and no boolean-output node except the root.
func atomicOK(e *query.Expr, isRoot bool) Check {
	if e.Kind == query.ExprLogic {
		return Check{Reason: fmt.Sprintf("logical operator %s inside an atomic predicate", e.Op)}
	}
	if !isRoot && e.BoolOutput() {
		return Check{Reason: fmt.Sprintf("boolean-output subexpression %s inside an atomic predicate", e)}
	}
	for _, a := range e.Args {
		if c := atomicOK(a, false); !c.OK {
			return c
		}
	}
	return Check{OK: true}
}

// Univariate implements Definition 5.5: every atomic predicate references
// at most one query node.
func Univariate(q *query.Query) Check { return univariate(q.Nodes()) }

// univariate is Univariate over the query's nodes.
func univariate(nodes []*query.Node) Check {
	for _, u := range nodes {
		if u.Pred == nil {
			continue
		}
		if p := firstAtomic(u.Pred, func(p *query.Expr) bool { return pathLeaves(p) > 1 }); p != nil {
			return Check{Reason: fmt.Sprintf("atomic predicate %s has %d variables", p, pathLeaves(p))}
		}
	}
	return Check{OK: true}
}

// firstAtomic returns the first of e's atomic predicates, in the order
// Expr.AtomicPredicates lists them, that f holds for, or nil.
func firstAtomic(e *query.Expr, f func(*query.Expr) bool) *query.Expr {
	if !e.IsLogic() {
		if f(e) {
			return e
		}
		return nil
	}
	for _, a := range e.Args {
		if p := firstAtomic(a, f); p != nil {
			return p
		}
	}
	return nil
}

// pathLeaves returns len(e.PathLeaves()).
func pathLeaves(e *query.Expr) int {
	n := 0
	if e.Kind == query.ExprPath {
		n++
	}
	for _, a := range e.Args {
		n += pathLeaves(a)
	}
	return n
}

// LeafOnlyValueRestricted implements Definition 5.7: no internal node is
// value-restricted.
func LeafOnlyValueRestricted(q *query.Query) Check { return leafOnlyValueRestricted(q.Nodes()) }

// leafOnlyValueRestricted is LeafOnlyValueRestricted over the query's nodes.
func leafOnlyValueRestricted(nodes []*query.Node) Check {
	for _, u := range nodes {
		if u.IsLeaf() {
			continue
		}
		vr, err := query.ValueRestricted(u)
		if err != nil {
			return Check{Reason: err.Error()}
		}
		if vr {
			return Check{Reason: fmt.Sprintf("internal node %s is value-restricted (pattern like [b[c] > 5])", u.NTest)}
		}
	}
	return Check{OK: true}
}

// Streamable decides whether the Section 8 algorithm can evaluate q — and
// with it the dissemination engine, which runs that algorithm over a shared
// index. In order: q is conjunctive, univariate and
// leaf-only-value-restricted; no atomic predicate is constant (the per-child
// conjunction rule has nowhere to hang [5 > 3], and such atoms are
// degenerate: a constant-true one is a no-op, a constant-false one makes the
// query unsatisfiable); and every leaf has a truth set, which a tree built
// by hand may lack. The first failure is the reason.
func Streamable(q *query.Query) Check {
	nodes := q.Nodes()
	if c := conjunctive(nodes); !c.OK {
		return Check{Reason: "query not conjunctive: " + c.Reason}
	}
	if c := univariate(nodes); !c.OK {
		return Check{Reason: "query not univariate: " + c.Reason}
	}
	if c := leafOnlyValueRestricted(nodes); !c.OK {
		return Check{Reason: "query not leaf-only-value-restricted: " + c.Reason}
	}
	for _, u := range nodes {
		if u.Pred == nil {
			continue
		}
		if p := firstAtomic(u.Pred, func(p *query.Expr) bool { return pathLeaves(p) == 0 }); p != nil {
			return Check{Reason: fmt.Sprintf("constant atomic predicate %s is not supported", p)}
		}
	}
	for _, u := range nodes {
		if !u.IsLeaf() {
			continue // LeafOnlyValueRestricted computed the internal nodes' sets
		}
		if _, err := query.TruthSetOf(u); err != nil {
			return Check{Reason: err.Error()}
		}
	}
	return Check{OK: true}
}

// leafSets returns the truth sets of the leaves in u's structural
// domination set (L_u of Section 5.5).
func leafSets(q *query.Query, u *query.Node) ([]query.Set, error) {
	var out []query.Set
	for _, v := range SDomLeaves(q, u) {
		s, err := query.TruthSetOf(v)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Sunflower implements Definition 5.16: every leaf u has a truth-set member
// outside the union of the truth sets of the leaves it structurally
// dominates. The witness search is exact for the recognized truth-set
// shapes; a failed search on a GenericSet is reported as a (conservative)
// failure.
func Sunflower(q *query.Query) Check {
	for _, u := range q.Nodes() {
		if u.IsRoot() || !u.IsLeaf() {
			continue
		}
		set, err := query.TruthSetOf(u)
		if err != nil {
			return Check{Reason: err.Error()}
		}
		others, err := leafSets(q, u)
		if err != nil {
			return Check{Reason: err.Error()}
		}
		if len(others) == 0 {
			// Union is empty; the property reduces to TRUTH(u) ≠ ∅.
			if _, ok := set.Witness(); !ok {
				return Check{Reason: fmt.Sprintf("leaf %s has an empty truth set %s", u.NTest, set)}
			}
			continue
		}
		if _, ok := query.WitnessOutside(set, others); !ok {
			return Check{Reason: fmt.Sprintf("leaf %s: no value in %s avoids the dominated leaves' truth sets", u.NTest, set)}
		}
	}
	return Check{OK: true}
}

// PrefixSunflower implements Definition 5.17: every internal node u has a
// string in PREFIX(TRUTH(u)) that is not a prefix of any member of the
// truth sets of the leaves it structurally dominates.
func PrefixSunflower(q *query.Query) Check {
	for _, u := range q.Nodes() {
		if u.IsLeaf() {
			continue
		}
		others, err := leafSets(q, u)
		if err != nil {
			return Check{Reason: err.Error()}
		}
		if len(others) == 0 {
			continue // empty union: trivially satisfied
		}
		w, ok := query.NonPrefixWitness(others)
		if !ok {
			return Check{Reason: fmt.Sprintf("internal node %s: every string is a prefix of some dominated-leaf truth-set member (pattern like fn:ends-with)", u.NTest)}
		}
		set, err := query.TruthSetOf(u)
		if err != nil {
			return Check{Reason: err.Error()}
		}
		if !set.ExtendsToMember(w) {
			return Check{Reason: fmt.Sprintf("internal node %s: witness %q is outside PREFIX(TRUTH(u))", u.NTest, w)}
		}
	}
	return Check{OK: true}
}

// FrontierAt returns the query frontier F(u): u together with its
// super-siblings (siblings of u and of its ancestors), per Definition 4.1.
func FrontierAt(u *query.Node) []*query.Node {
	out := []*query.Node{u}
	for cur := u; cur.Parent != nil; cur = cur.Parent {
		for _, sib := range cur.Parent.Children {
			if sib != cur {
				out = append(out, sib)
			}
		}
	}
	return out
}

// FrontierSize returns FS(Q) = max_u |F(u)| (Definition 4.1).
func FrontierSize(q *query.Query) int { return frontierMax(q.Root) }

// frontierMax returns the largest |F(v)| over the nodes v of u's subtree,
// counting what FrontierAt lists without building it.
func frontierMax(u *query.Node) int {
	n := 1
	for cur := u; cur.Parent != nil; cur = cur.Parent {
		for _, sib := range cur.Parent.Children {
			if sib != cur {
				n++
			}
		}
	}
	for _, c := range u.Children {
		n = max(n, frontierMax(c))
	}
	return n
}

// MaxFrontierNode returns a node achieving FS(Q) (the first in depth-first
// order).
func MaxFrontierNode(q *query.Query) *query.Node {
	var best *query.Node
	bestN := -1
	for _, u := range q.Nodes() {
		if n := len(FrontierAt(u)); n > bestN {
			bestN, best = n, u
		}
	}
	return best
}

// log2ceil returns ⌈log₂ n⌉ with a floor of 1 bit (n ≤ 2 included).
func log2ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// EstimatedBits applies the cost model of Theorem 8.8 to an evaluator's
// peak state on one document: each of tuples costs log|Q| + log d + log w
// bits (node reference, level, buffer offset) plus one matched bit, the
// text buffer 8 bits per byte, and the level counter log d. querySize is
// |Q|, bufferBytes the peak buffered text w and depth the document depth d;
// each logarithm is at least 1 bit.
func EstimatedBits(querySize, tuples, bufferBytes, depth int) int {
	perTuple := log2ceil(querySize) + log2ceil(depth) + log2ceil(bufferBytes) + 1
	return tuples*perTuple + bufferBytes*8 + log2ceil(depth)
}

// LowerBoundBits applies the paper's lower-bound theorems to an observed
// document shape: any streaming evaluator must distinguish about
// frontierSize concurrent candidate states (the Section 6 frontier bound),
// and needs Ω(log d) bits of level information on a document of depth d
// (Section 4) — so the floor is frontierSize·⌈log₂ d⌉ bits, with
// frontierSize at least 1. EstimatedBits / LowerBoundBits is an
// evaluator's optimality ratio: how far its peak state sits above the
// information-theoretic floor.
func LowerBoundBits(frontierSize, depth int) int {
	return max(frontierSize, 1) * log2ceil(depth)
}

// RecursiveSpec identifies the structure Theorem 7.4 needs: a node v with
// at least two child-axis children, such that v or one of its ancestors has
// a descendant axis; v1 is v itself if it has the descendant axis, else its
// lowest ancestor that does; W1 and W2 are the two child-axis children.
type RecursiveSpec struct {
	V, V1, W1, W2 *query.Node
}

// RecursiveNode reports whether q belongs to Recursive XPath
// (Section 7.2.1) and returns the witnessing nodes.
func RecursiveNode(q *query.Query) (*RecursiveSpec, bool) {
	for _, v := range q.Nodes() {
		if v.IsRoot() {
			continue
		}
		var childKids []*query.Node
		for _, c := range v.Children {
			if c.Axis == query.AxisChild {
				childKids = append(childKids, c)
			}
		}
		if len(childKids) < 2 {
			continue
		}
		// v or an ancestor must have a descendant axis.
		for cur := v; cur != nil && !cur.IsRoot(); cur = cur.Parent {
			if cur.Axis == query.AxisDescendant {
				return &RecursiveSpec{V: v, V1: cur, W1: childKids[0], W2: childKids[1]}, true
			}
		}
	}
	return nil, false
}

// DepthSpec identifies the node Theorem 7.14 needs: a node u with a child
// axis whose node test and whose parent's node test are not wildcards (and
// whose parent is not the root, so the padded documents remain
// well-formed).
type DepthSpec struct {
	U *query.Node
}

// DepthEligibleNode reports whether q satisfies Theorem 7.14's hypothesis
// and returns the witnessing node.
func DepthEligibleNode(q *query.Query) (*DepthSpec, bool) {
	for _, u := range q.Nodes() {
		if u.IsRoot() || u.Axis != query.AxisChild || u.IsWildcard() {
			continue
		}
		p := u.Parent
		if p == nil || p.IsRoot() || p.IsWildcard() {
			continue
		}
		return &DepthSpec{U: u}, true
	}
	return nil, false
}

// ClosureFree implements Definition 8.7: no node has the descendant axis.
func ClosureFree(q *query.Query) bool {
	for _, u := range q.Nodes() {
		if u.Axis == query.AxisDescendant {
			return false
		}
	}
	return true
}
