package fragment

import "streamxpath/internal/query"

// pathPattern is the (axis, ntest, isAttr) step sequence of PATH(u) below
// the root, used by the path-consistency decision procedure.
type pathPattern []patternStep

type patternStep struct {
	axis  query.Axis
	ntest string
}

func patternOf(u *query.Node) pathPattern {
	path := u.Path()
	out := make(pathPattern, 0, len(path)-1)
	for _, v := range path[1:] {
		out = append(out, patternStep{axis: v.Axis, ntest: v.NTest})
	}
	return out
}

// symbol is a candidate document-node label for the common-path search.
type symbol struct {
	name string
	attr bool
}

// accepts reports whether a step can consume the symbol.
func (s patternStep) accepts(sym symbol) bool {
	if (s.axis == query.AxisAttribute) != sym.attr {
		return false
	}
	return s.ntest == query.Wildcard || s.ntest == sym.name
}

// PathConsistent implements Definition 8.5: u and v are path consistent if
// some document node path matches both. Decided by a product reachability
// search over the two path patterns: states (i, j) count fully-matched
// steps; a symbol advances a pattern whose next step accepts it, may be
// skipped under a pending descendant step, and kills the search under a
// pending child step it does not satisfy. Both patterns must complete on
// the same final symbol (the shared node x).
func PathConsistent(u, v *query.Node) bool {
	p1, p2 := patternOf(u), patternOf(v)
	m1, m2 := len(p1), len(p2)
	if m1 == 0 || m2 == 0 {
		return m1 == 0 && m2 == 0 // both are the root
	}
	// Candidate alphabet: every ntest in either pattern plus a fresh
	// name that passes only wildcards.
	var alphabet []symbol
	seen := map[symbol]bool{}
	add := func(s symbol) {
		if s.name != query.Wildcard && !seen[s] {
			seen[s] = true
			alphabet = append(alphabet, s)
		}
	}
	for _, st := range append(append(pathPattern{}, p1...), p2...) {
		add(symbol{name: st.ntest, attr: st.axis == query.AxisAttribute})
	}
	add(symbol{name: "\x00fresh", attr: false})

	type state struct{ i, j int }
	visited := map[state]bool{{0, 0}: true}
	frontier := []state{{0, 0}}
	for len(frontier) > 0 {
		var next []state
		for _, st := range frontier {
			for _, sym := range alphabet {
				// Each pattern either advances, legally stays
				// (pending descendant step), or dies.
				moves1 := movesAfter(p1, st.i, sym)
				moves2 := movesAfter(p2, st.j, sym)
				for _, i2 := range moves1 {
					for _, j2 := range moves2 {
						// Acceptance: both complete on this symbol.
						if i2 == m1 && j2 == m2 && i2 > st.i && j2 > st.j {
							return true
						}
						ns := state{i2, j2}
						// States where a pattern has completed early are
						// dead: the shared endpoint must be the final
						// symbol for both.
						if i2 == m1 || j2 == m2 {
							continue
						}
						if !visited[ns] {
							visited[ns] = true
							next = append(next, ns)
						}
					}
				}
			}
		}
		frontier = next
	}
	return false
}

// movesAfter returns the possible progress counts after a pattern in state
// i consumes sym: advance to i+1 if the next step accepts, stay at i if the
// next step is a descendant step (the node is skipped material inside the
// gap). An exhausted or blocked pattern yields no moves.
func movesAfter(p pathPattern, i int, sym symbol) []int {
	if i >= len(p) {
		return nil // already complete; consuming more is invalid
	}
	var out []int
	stp := p[i]
	if stp.accepts(sym) {
		out = append(out, i+1)
	}
	if stp.axis == query.AxisDescendant && !sym.attr {
		out = append(out, i)
	}
	return out
}

// PathConsistencyFree implements Definition 8.6: no two distinct nodes of Q
// are path consistent.
func PathConsistencyFree(q *query.Query) bool {
	nodes := q.Nodes()
	for i, u := range nodes {
		if u.IsRoot() {
			continue
		}
		for _, v := range nodes[i+1:] {
			if v.IsRoot() || v == u {
				continue
			}
			if PathConsistent(u, v) {
				return false
			}
		}
	}
	return true
}
