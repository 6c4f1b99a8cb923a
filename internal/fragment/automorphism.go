package fragment

import "streamxpath/internal/query"

// Automorphism is a structural query automorphism (Definition 6.8): a
// mapping from the node set of Q to itself that preserves the root,
// preserves axes (children with child axis map to children with child axis
// of the parent's image; descendants map to descendants), and preserves
// non-wildcard node tests. It need not be injective.
type Automorphism map[*query.Node]*query.Node

// IsTrivial reports whether psi is the identity.
func (psi Automorphism) IsTrivial() bool {
	for k, v := range psi {
		if k != v {
			return false
		}
	}
	return true
}

// VerifyAutomorphism checks the three properties of Definition 6.8.
func VerifyAutomorphism(q *query.Query, psi Automorphism) bool {
	if psi[q.Root] != q.Root {
		return false
	}
	for _, u := range q.Nodes() {
		img, ok := psi[u]
		if !ok {
			return false
		}
		if u.IsRoot() {
			continue
		}
		pimg := psi[u.Parent]
		switch u.Axis {
		case query.AxisChild, query.AxisAttribute:
			if img.Parent != pimg || img.Axis != u.Axis {
				return false
			}
		case query.AxisDescendant:
			if !isDescendant(img, pimg) {
				return false
			}
		}
		if !u.IsWildcard() && img.NTest != u.NTest {
			return false
		}
	}
	return true
}

// isDescendant reports whether d is a proper descendant of a in the query
// tree.
func isDescendant(d, a *query.Node) bool {
	for p := d.Parent; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// autoCandidates returns the possible images of u given its parent's image.
func autoCandidates(u, parentImg *query.Node) []*query.Node {
	var out []*query.Node
	switch u.Axis {
	case query.AxisChild, query.AxisAttribute:
		for _, c := range parentImg.Children {
			if c.Axis == u.Axis && (u.IsWildcard() || c.NTest == u.NTest) {
				out = append(out, c)
			}
		}
	case query.AxisDescendant:
		parentImg.Walk(func(c *query.Node) bool {
			if c != parentImg && (u.IsWildcard() || c.NTest == u.NTest) {
				out = append(out, c)
			}
			return true
		})
	}
	return out
}

// FindAutomorphism searches for a structural query automorphism satisfying
// the pins in require (psi[k] = require[k]). Pass nil to find any
// automorphism (the identity always exists).
func FindAutomorphism(q *query.Query, require map[*query.Node]*query.Node) (Automorphism, bool) {
	nodes := q.Nodes() // depth-first: parents precede children
	psi := make(Automorphism)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return true
		}
		u := nodes[i]
		if u.IsRoot() {
			if want, pinned := require[u]; pinned && want != q.Root {
				return false
			}
			psi[u] = u
			return rec(i + 1)
		}
		for _, cand := range autoCandidates(u, psi[u.Parent]) {
			if want, pinned := require[u]; pinned && want != cand {
				continue
			}
			psi[u] = cand
			if rec(i + 1) {
				return true
			}
			delete(psi, u)
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	return psi, true
}

// AllAutomorphisms enumerates every structural query automorphism of q (up
// to limit; limit <= 0 means all). Query trees are small, so exhaustive
// enumeration is practical.
func AllAutomorphisms(q *query.Query, limit int) []Automorphism {
	nodes := q.Nodes()
	var out []Automorphism
	psi := make(Automorphism)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			cp := make(Automorphism, len(psi))
			for k, v := range psi {
				cp[k] = v
			}
			out = append(out, cp)
			return limit <= 0 || len(out) < limit
		}
		u := nodes[i]
		if u.IsRoot() {
			psi[u] = u
			cont := rec(i + 1)
			delete(psi, u)
			return cont
		}
		for _, cand := range autoCandidates(u, psi[u.Parent]) {
			psi[u] = cand
			cont := rec(i + 1)
			delete(psi, u)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

// StructurallySubsumes reports whether u structurally subsumes v, decided
// via Lemma 6.9: u subsumes v iff some structural query automorphism maps v
// to u.
func StructurallySubsumes(q *query.Query, u, v *query.Node) bool {
	_, ok := FindAutomorphism(q, map[*query.Node]*query.Node{v: u})
	return ok
}

// SDom returns the structural domination set of u (Definition 5.15),
// excluding u itself: the nodes v ≠ u that u structurally subsumes. (The
// canonical-document construction and the sunflower properties quantify
// over dominated nodes other than u.)
func SDom(q *query.Query, u *query.Node) []*query.Node {
	var out []*query.Node
	for _, v := range q.Nodes() {
		if v != u && StructurallySubsumes(q, u, v) {
			out = append(out, v)
		}
	}
	return out
}

// SDomLeaves returns L_u: the leaf nodes in the structural domination set
// of u (Section 5.5), excluding u itself.
func SDomLeaves(q *query.Query, u *query.Node) []*query.Node {
	var out []*query.Node
	for _, v := range SDom(q, u) {
		if v.IsLeaf() {
			out = append(out, v)
		}
	}
	return out
}
