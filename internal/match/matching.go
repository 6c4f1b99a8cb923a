// Package match implements the document-side matching machinery of
// Sections 5.5, 6.2, 6.3 and 8.6: matchings and structural matchings of
// documents with queries (Definition 5.8), leaf-preserving matchings
// (Definition 6.3), hybrid matchings (Definition 6.6), path matchings
// (Definition 8.2), path recursion depth (Definition 8.3) and text width
// (Definition 8.4). The analyses that read only the query — structural
// query automorphisms, structural subsumption and path consistency — are
// in internal/fragment.
//
// Lemma 5.10 states that a document matches a query iff a matching exists;
// MatchOracle therefore provides a second, independently implemented
// BOOLEVAL oracle, cross-checked against internal/semantics by tests.
package match

import (
	"fmt"

	"streamxpath/internal/query"
	"streamxpath/internal/tree"
)

// Matching is a mapping from query nodes to document nodes. A (full)
// matching satisfies the four properties of Definition 5.8: root match, axis
// match, node test match, and value match; a structural matching satisfies
// the first three.
type Matching map[*query.Node]*tree.Node

// Kind selects the strength of a matching.
type Kind uint8

const (
	// Structural matchings satisfy root/axis/node-test match only.
	Structural Kind = iota
	// Full matchings additionally satisfy value match: STRVAL(φ(v)) ∈
	// TRUTH(v) for every v.
	Full
)

// Sets caches the truth set of every query node, as value matching needs
// them repeatedly.
type Sets map[*query.Node]query.Set

// TruthSets computes the truth sets of every node of q (Definition 5.6).
// It fails if q is not univariate.
func TruthSets(q *query.Query) (Sets, error) {
	out := make(Sets)
	for _, u := range q.Nodes() {
		s, err := query.TruthSetOf(u)
		if err != nil {
			return nil, err
		}
		out[u] = s
	}
	return out, nil
}

// Options configures a matching search.
type Options struct {
	Kind Kind
	// Sets are the truth sets for value matching; required for Full.
	Sets Sets
	// Require pins specific query nodes to specific document nodes; the
	// search only returns matchings honoring the pins. This realizes
	// "y matches v relative to the context" (Definition 5.9) with the
	// root context.
	Require map[*query.Node]*tree.Node
}

// nodeOK checks the local (non-recursive) conditions for φ(u) = x: node
// kind, node test passage, value match and pins.
func nodeOK(u *query.Node, x *tree.Node, o *Options) bool {
	if want, pinned := o.Require[u]; pinned && want != x {
		return false
	}
	if u.IsRoot() {
		if x.Kind != tree.KindRoot {
			return false
		}
	} else {
		if u.Axis == query.AxisAttribute {
			if x.Kind != tree.KindAttribute {
				return false
			}
		} else if x.Kind != tree.KindElement {
			return false
		}
		if !u.IsWildcard() && u.NTest != x.Name {
			return false
		}
	}
	if o.Kind == Full {
		set := o.Sets[u]
		if set == nil {
			return false
		}
		if !set.Contains(x.StrVal()) {
			return false
		}
	}
	return true
}

// axisCandidates returns the document nodes that relate to x according to
// the axis of v (Definition 3.2), in document order.
func axisCandidates(v *query.Node, x *tree.Node) []*tree.Node {
	var out []*tree.Node
	switch v.Axis {
	case query.AxisChild, query.AxisAttribute:
		for _, c := range x.Children {
			if c.Kind != tree.KindText {
				out = append(out, c)
			}
		}
	case query.AxisDescendant:
		x.Walk(func(y *tree.Node) bool {
			if y != x && y.Kind != tree.KindText {
				out = append(out, y)
			}
			return true
		})
	}
	return out
}

// Find searches for a matching of the document node x with the query node u
// (a mapping from Q_u into D_x per Definition 5.8). Children of a query node
// are matched independently — matchings need not be injective — so the
// search is a per-child backtracking embed.
func Find(u *query.Node, x *tree.Node, o Options) (Matching, bool) {
	phi := make(Matching)
	if !embed(u, x, &o, phi) {
		return nil, false
	}
	return phi, true
}

func embed(u *query.Node, x *tree.Node, o *Options, phi Matching) bool {
	if !nodeOK(u, x, o) {
		return false
	}
	phi[u] = x
	for _, v := range u.Children {
		found := false
		for _, y := range axisCandidates(v, x) {
			scratch := make(Matching)
			if embed(v, y, o, scratch) {
				for k, w := range scratch {
					phi[k] = w
				}
				found = true
				break
			}
		}
		if !found {
			delete(phi, u)
			return false
		}
	}
	return true
}

// FindDocQuery searches for a matching of the document D with the query Q:
// a matching of ROOT(D) with ROOT(Q).
func FindDocQuery(q *query.Query, d *tree.Node, o Options) (Matching, bool) {
	return Find(q.Root, d, o)
}

// MatchOracle decides BOOLEVAL via Lemma 5.10: D matches Q iff a matching
// of D and Q exists. Only valid for univariate queries (truth sets must be
// computable).
func MatchOracle(q *query.Query, d *tree.Node) (bool, error) {
	sets, err := TruthSets(q)
	if err != nil {
		return false, err
	}
	_, ok := FindDocQuery(q, d, Options{Kind: Full, Sets: sets})
	return ok, nil
}

// MatchesAt reports whether the document node y matches the query node v
// relative to the context ROOT(Q) = ROOT(D) (Definition 5.9 with the
// convention of the remark following it): some matching of D with Q maps v
// to y.
func MatchesAt(q *query.Query, d *tree.Node, v *query.Node, y *tree.Node, sets Sets) bool {
	_, ok := FindDocQuery(q, d, Options{
		Kind: Full, Sets: sets,
		Require: map[*query.Node]*tree.Node{v: y},
	})
	return ok
}

// Verify checks that phi is a matching of x with u of the given strength,
// returning a descriptive error on the first violated property.
func Verify(phi Matching, u *query.Node, x *tree.Node, o Options) error {
	if phi[u] != x {
		return fmt.Errorf("match: root match fails")
	}
	for _, v := range u.Nodes() {
		img, ok := phi[v]
		if !ok {
			return fmt.Errorf("match: node %s unmapped", v.NTest)
		}
		if v != u {
			pimg := phi[v.Parent]
			switch v.Axis {
			case query.AxisChild, query.AxisAttribute:
				if img.Parent != pimg {
					return fmt.Errorf("match: axis match fails at %s (child)", v.NTest)
				}
			case query.AxisDescendant:
				if !pimg.IsAncestorOf(img) {
					return fmt.Errorf("match: axis match fails at %s (descendant)", v.NTest)
				}
			}
		}
		if !v.IsRoot() && !v.IsWildcard() && v.NTest != img.Name {
			return fmt.Errorf("match: node test match fails at %s -> %s", v.NTest, img.Name)
		}
		if o.Kind == Full {
			set := o.Sets[v]
			if set == nil || !set.Contains(img.StrVal()) {
				return fmt.Errorf("match: value match fails at %s (value %q)", v.NTest, img.StrVal())
			}
		}
	}
	return nil
}

// IsLeafPreserving reports whether phi maps every leaf of Q_u to a document
// leaf (a node with no element children), per Definition 6.3.
func IsLeafPreserving(phi Matching, u *query.Node) bool {
	for _, v := range u.Nodes() {
		if v.IsLeaf() && tree.IsInternal(phi[v]) {
			return false
		}
	}
	return true
}

// FindAll enumerates every matching of x with u (up to the given limit;
// limit <= 0 means unbounded). Used by uniqueness tests on canonical
// documents.
func FindAll(u *query.Node, x *tree.Node, o Options, limit int) []Matching {
	var out []Matching
	var rec func(v *query.Node, y *tree.Node, phi Matching) bool
	rec = func(v *query.Node, y *tree.Node, phi Matching) bool {
		if !nodeOK(v, y, &o) {
			return true
		}
		phi[v] = y
		// Enumerate choices child-by-child via nested iteration.
		var iterate func(i int) bool
		iterate = func(i int) bool {
			if i == len(v.Children) {
				if v == u {
					cp := make(Matching, len(phi))
					for k, w := range phi {
						cp[k] = w
					}
					out = append(out, cp)
					return limit <= 0 || len(out) < limit
				}
				return true
			}
			child := v.Children[i]
			for _, cand := range axisCandidates(child, y) {
				saved := snapshot(phi, child)
				okCont := func() bool {
					if !embedAll(child, cand, &o, phi, func() bool { return iterate(i + 1) }) {
						return false
					}
					return true
				}()
				restore(phi, child, saved)
				if !okCont {
					return false
				}
			}
			return true
		}
		cont := iterate(0)
		delete(phi, v)
		return cont
	}
	rec(u, x, make(Matching))
	return out
}

// embedAll assigns child and (recursively, all choices) its subtree, calling
// k for every complete assignment; returns false to stop enumeration.
func embedAll(v *query.Node, y *tree.Node, o *Options, phi Matching, k func() bool) bool {
	if !nodeOK(v, y, o) {
		return true
	}
	phi[v] = y
	var iterate func(i int) bool
	iterate = func(i int) bool {
		if i == len(v.Children) {
			return k()
		}
		child := v.Children[i]
		for _, cand := range axisCandidates(child, y) {
			saved := snapshot(phi, child)
			cont := embedAll(child, cand, o, phi, func() bool { return iterate(i + 1) })
			restore(phi, child, saved)
			if !cont {
				return false
			}
		}
		return true
	}
	cont := iterate(0)
	delete(phi, v)
	return cont
}

// snapshot/restore save and restore the assignments of a query subtree
// around a backtracking choice.
func snapshot(phi Matching, v *query.Node) map[*query.Node]*tree.Node {
	saved := make(map[*query.Node]*tree.Node)
	for _, n := range v.Nodes() {
		if img, ok := phi[n]; ok {
			saved[n] = img
		}
	}
	return saved
}

func restore(phi Matching, v *query.Node, saved map[*query.Node]*tree.Node) {
	for _, n := range v.Nodes() {
		if img, ok := saved[n]; ok {
			phi[n] = img
		} else {
			delete(phi, n)
		}
	}
}

// Hybrid builds the hybrid mapping of Definition 6.6 from a matching phi of
// x with u and a matching eta of D with Q∖Q_u: query nodes in Q_u take phi's
// assignment, the rest take eta's.
func Hybrid(phi, eta Matching, u *query.Node) Matching {
	mu := make(Matching, len(phi)+len(eta))
	for k, v := range eta {
		mu[k] = v
	}
	inQu := make(map[*query.Node]bool)
	for _, n := range u.Nodes() {
		inQu[n] = true
	}
	for k, v := range phi {
		if inQu[k] {
			mu[k] = v
		}
	}
	return mu
}

// RecursionDepth computes the recursion depth of D w.r.t. the query node v
// (Section 4.2): the length of the longest sequence of document nodes that
// lie on one root-to-leaf path and all match v (relative to the root
// context).
func RecursionDepth(q *query.Query, d *tree.Node, v *query.Node) (int, error) {
	sets, err := TruthSets(q)
	if err != nil {
		return 0, err
	}
	matches := make(map[*tree.Node]bool)
	d.Walk(func(y *tree.Node) bool {
		if y.Kind == tree.KindElement && MatchesAt(q, d, v, y, sets) {
			matches[y] = true
		}
		return true
	})
	return longestNestedChain(d, matches), nil
}

// longestNestedChain returns the maximum number of marked nodes on any
// root-to-leaf path.
func longestNestedChain(d *tree.Node, marked map[*tree.Node]bool) int {
	best := 0
	var rec func(n *tree.Node, depth int)
	rec = func(n *tree.Node, depth int) {
		if marked[n] {
			depth++
		}
		if depth > best {
			best = depth
		}
		for _, c := range n.Children {
			rec(c, depth)
		}
	}
	rec(d, 0)
	return best
}
