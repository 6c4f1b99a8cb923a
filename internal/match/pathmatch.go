package match

import (
	"streamxpath/internal/query"
	"streamxpath/internal/tree"
)

// PathMatches implements Definition 8.2: x path matches u if there is a map
// ρ from PATH(u) to PATH(x) with root match, axis match and node test match
// (no predicates, no values), and ρ(u) = x.
func PathMatches(u *query.Node, x *tree.Node) bool {
	qpath := u.Path() // qpath[0] = query root
	dpath := x.Path() // dpath[0] = document root
	if x.Kind == tree.KindText {
		return false
	}
	// pm[i][j]: qpath[0..i] maps into dpath[0..j] with ρ(qpath[i]) =
	// dpath[j].
	m, k := len(qpath), len(dpath)
	pm := make([][]bool, m)
	for i := range pm {
		pm[i] = make([]bool, k)
	}
	pm[0][0] = true // roots map to roots
	for i := 1; i < m; i++ {
		v := qpath[i]
		for j := 1; j < k; j++ {
			y := dpath[j]
			if !stepOK(v, y) {
				continue
			}
			switch v.Axis {
			case query.AxisChild, query.AxisAttribute:
				pm[i][j] = pm[i-1][j-1]
			case query.AxisDescendant:
				for jp := 0; jp < j; jp++ {
					if pm[i-1][jp] {
						pm[i][j] = true
						break
					}
				}
			}
		}
	}
	return pm[m-1][k-1]
}

// stepOK checks node kind and node test passage for a path-matching step.
func stepOK(v *query.Node, y *tree.Node) bool {
	if v.Axis == query.AxisAttribute {
		if y.Kind != tree.KindAttribute {
			return false
		}
	} else if y.Kind != tree.KindElement {
		return false
	}
	return v.IsWildcard() || v.NTest == y.Name
}

// PathRecursionDepth implements Definition 8.3: the maximum length of a
// nested sequence of document nodes that all path match the same query
// node.
func PathRecursionDepth(q *query.Query, d *tree.Node) int {
	best := 0
	for _, u := range q.Nodes() {
		if u.IsRoot() {
			continue
		}
		marked := make(map[*tree.Node]bool)
		d.Walk(func(y *tree.Node) bool {
			if y.Kind == tree.KindElement && PathMatches(u, y) {
				marked[y] = true
			}
			return true
		})
		if n := longestNestedChain(d, marked); n > best {
			best = n
		}
	}
	return best
}

// TextWidth implements Definition 8.4: the maximum length of STRVAL(x) over
// document nodes x that path match some leaf of Q.
func TextWidth(q *query.Query, d *tree.Node) int {
	var leaves []*query.Node
	for _, u := range q.Nodes() {
		if !u.IsRoot() && u.IsLeaf() {
			leaves = append(leaves, u)
		}
	}
	best := 0
	d.Walk(func(y *tree.Node) bool {
		if y.Kind == tree.KindText {
			return true
		}
		for _, u := range leaves {
			if PathMatches(u, y) {
				if n := len(y.StrVal()); n > best {
					best = n
				}
				break
			}
		}
		return true
	})
	return best
}
