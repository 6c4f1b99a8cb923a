package core

import (
	"streamxpath/internal/fragment"
	"streamxpath/internal/query"
)

// Program is the immutable compile product of a query: the fragment
// validation, node numbering, per-leaf truth sets, and the
// value-restriction marks that decide which leaves buffer text. A Program
// carries no streaming state, so it is safe to share: many Filters (one
// per goroutine or per document stream) can run off one Program.
type Program struct {
	q     *query.Query
	nodes []*query.Node       // depth-first order; index = node id
	ids   map[*query.Node]int // node -> id (for snapshots)
	sets  map[*query.Node]query.Set
	// restricted marks value-restricted leaves (the only ones that need
	// buffering).
	restricted map[*query.Node]bool
}

// NewProgram validates that q is in the fragment the Section 8 algorithm
// supports (fragment.Streamable) and precomputes the truth sets of its
// leaves.
func NewProgram(q *query.Query) (*Program, error) {
	return NewProgramOpts(q, Options{})
}

// NewProgramOpts is NewProgram with explicit Options.
func NewProgramOpts(q *query.Query, opts Options) (*Program, error) {
	if err := fragment.Streamable(q).Err(); err != nil {
		return nil, err
	}
	p := &Program{
		q:          q,
		ids:        make(map[*query.Node]int),
		sets:       make(map[*query.Node]query.Set),
		restricted: make(map[*query.Node]bool),
	}
	for i, u := range q.Nodes() {
		p.nodes = append(p.nodes, u)
		p.ids[u] = i
		s, _ := query.TruthSetOf(u) // Streamable found every node's set
		p.sets[u] = s
		if u.IsLeaf() && (opts.BufferAllLeaves || !s.IsAll()) {
			p.restricted[u] = true
		}
	}
	return p, nil
}

// NewFilter instantiates streaming run state over the program. Filters off
// the same program share all compile-time tables.
func (p *Program) NewFilter() *Filter {
	f := &Filter{prog: p}
	f.Reset()
	return f
}
