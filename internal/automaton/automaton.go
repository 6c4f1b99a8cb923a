// Package automaton implements the finite-state-automaton paradigm for
// streaming XPath filtering that the paper argues against (Sections 1.2
// and 2): a position NFA compiled from a linear path query, evaluated over
// the stream with a stack of state sets, with optional lazy or eager
// determinization.
//
// The point of this baseline is the memory accounting: the eager DFA's
// state count is exponential in the query size in the worst case (queries
// like //a/*/*/…/b), and even the lazy DFA's transition table grows with
// the document's name variety — whereas the paper's algorithm
// (internal/core) stays near the frontier-size lower bound. Benchmarks
// reproduce this comparison (experiment E18 of `go run ./cmd/xpexperiments`).
package automaton

import (
	"fmt"
	"sort"
	"strings"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// step is one NFA step compiled from a query path step.
type step struct {
	ntest      string
	descendant bool
}

// NFA is the position automaton of a linear path query: position i means
// "the first i steps have matched along the current path". Position m
// (= len(steps)) is accepting.
type NFA struct {
	Query *query.Query
	steps []step
}

// FromQuery compiles a linear (predicate-free) path query into an NFA. It
// rejects queries with predicates or attribute axes — the classic automata
// systems the paper compares against handle the /, //, * fragment.
func FromQuery(q *query.Query) (*NFA, error) {
	if err := Linear(q); err != nil {
		return nil, err
	}
	n := &NFA{Query: q}
	for u := q.Root.Successor; u != nil; u = u.Successor {
		n.steps = append(n.steps, step{ntest: u.NTest, descendant: u.Axis == query.AxisDescendant})
	}
	return n, nil
}

// Linear reports why q is outside the /, //, * fragment, nil if it is
// inside. It allocates nothing on success.
func Linear(q *query.Query) error {
	if q.Root.Successor == nil {
		return fmt.Errorf("automaton: empty query")
	}
	for u := q.Root.Successor; u != nil; u = u.Successor {
		if predicated(u) {
			return fmt.Errorf("automaton: predicates not supported (query node %s)", u.NTest)
		}
		if u.Axis == query.AxisAttribute {
			return fmt.Errorf("automaton: attribute axis not supported")
		}
	}
	return nil
}

// IsLinear reports whether Linear(q) is nil, building no error: what a
// caller that only branches on the answer asks.
func IsLinear(q *query.Query) bool {
	if q.Root.Successor == nil {
		return false
	}
	for u := q.Root.Successor; u != nil; u = u.Successor {
		if predicated(u) || u.Axis == query.AxisAttribute {
			return false
		}
	}
	return true
}

// predicated reports whether query node u has a predicate or a predicate
// child: a node's children are its successor, if any, and its predicate
// children.
func predicated(u *query.Node) bool {
	return u.Pred != nil || len(u.Children) > 1 || (len(u.Children) == 1 && u.Successor == nil)
}

// Accepting returns the accepting position.
func (n *NFA) Accepting() int { return len(n.steps) }

// stateSet is a sorted set of active positions.
type stateSet []int

func (s stateSet) key() string {
	var b strings.Builder
	for i, p := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
	}
	return b.String()
}

// Step computes the successor state set on reading an element name:
// position i survives if step i+1 is a descendant step (the gap may absorb
// the element), and advances if the name passes step i+1's node test.
func (n *NFA) Step(s stateSet, name string) stateSet {
	next := map[int]bool{}
	for _, i := range s {
		if i >= len(n.steps) {
			continue // accepting position: latched externally
		}
		st := n.steps[i]
		if st.descendant {
			next[i] = true
		}
		if st.ntest == query.Wildcard || st.ntest == name {
			next[i+1] = true
		}
	}
	out := make(stateSet, 0, len(next))
	for p := range next {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Start returns the initial state set {0}.
func (n *NFA) Start() stateSet { return stateSet{0} }

// Contains reports whether the set contains position p.
func (s stateSet) contains(p int) bool {
	for _, x := range s {
		if x == p {
			return true
		}
	}
	return false
}

// LazyDFA filters a stream by lazily determinizing the NFA: reached state
// sets are interned and (set, name) transitions memoized. The transition
// table is the memory cost the paper's Section 1.2 attributes to the
// automata paradigm.
type LazyDFA struct {
	nfa   *NFA
	sets  []stateSet
	index map[string]int
	trans map[[2]int]int // (set id, symbol id) -> set id
	syms  map[string]int
	stack []int
	match bool
	inDoc bool
	stats DFAStats
}

// DFAStats accounts the automaton's memory. For a MergedNFA the memo's
// fields are the automaton's, one count over every runner; PeakStack is a
// runner's.
type DFAStats struct {
	// States is the number of distinct state sets materialized; a
	// MergedNFA stops counting a set it dropped because one of its states
	// was unlinked.
	States int
	// Transitions is the number of memoized transition-table entries.
	Transitions int
	// Materialized counts the transitions ever computed. It never falls:
	// when a MergedNFA forgets an entry because it changed, Transitions
	// drops and computing the entry again counts here.
	Materialized int
	// Symbols is the number of distinct names known to the alphabet: for
	// LazyDFA, element names actually seen; for a MergedNFA, the size of
	// the symbol table its runners dispatch on (an engine-shared table also
	// counts query node tests and names from prior documents). Refreshed
	// when a transition is memoized.
	Symbols int
	// PeakStack is the maximum state-stack depth (the document depth).
	PeakStack int
}

// EstimatedBits is the transition-table memory under a compact encoding:
// each entry stores a target state id; each state set stores its positions.
func (s DFAStats) EstimatedBits(nfaSize int) int {
	stateBits := 1
	for 1<<stateBits < s.States+1 {
		stateBits++
	}
	return s.Transitions*stateBits + s.States*nfaSize + s.PeakStack*stateBits
}

// NewLazyDFA returns a filter over the NFA.
func NewLazyDFA(n *NFA) *LazyDFA {
	d := &LazyDFA{
		nfa:   n,
		index: make(map[string]int),
		trans: make(map[[2]int]int),
		syms:  make(map[string]int),
	}
	d.Reset()
	return d
}

// Reset clears the stream state but keeps the memoized transition table
// (as a long-running filter would).
func (d *LazyDFA) Reset() {
	d.stack = d.stack[:0]
	d.match = false
	d.inDoc = false
	d.stats.PeakStack = 0
}

// intern returns the id of a state set, materializing it if new.
func (d *LazyDFA) intern(s stateSet) int {
	k := s.key()
	if id, ok := d.index[k]; ok {
		return id
	}
	id := len(d.sets)
	d.sets = append(d.sets, s)
	d.index[k] = id
	d.stats.States = len(d.sets)
	return id
}

// symbol interns an element name.
func (d *LazyDFA) symbol(name string) int {
	if id, ok := d.syms[name]; ok {
		return id
	}
	id := len(d.syms)
	d.syms[name] = id
	d.stats.Symbols = len(d.syms)
	return id
}

// Process consumes one SAX event.
func (d *LazyDFA) Process(e sax.Event) error {
	switch e.Kind {
	case sax.StartDocument:
		d.inDoc = true
		d.stack = append(d.stack, d.intern(d.nfa.Start()))
	case sax.EndDocument:
		d.inDoc = false
	case sax.StartElement:
		if !d.inDoc || len(d.stack) == 0 {
			return fmt.Errorf("automaton: startElement outside document")
		}
		top := d.stack[len(d.stack)-1]
		sym := d.symbol(e.Name)
		key := [2]int{top, sym}
		nextID, ok := d.trans[key]
		if !ok {
			next := d.nfa.Step(d.sets[top], e.Name)
			nextID = d.intern(next)
			d.trans[key] = nextID
			d.stats.Transitions = len(d.trans)
			d.stats.Materialized++
		}
		if d.sets[nextID].contains(d.nfa.Accepting()) {
			d.match = true
		}
		d.stack = append(d.stack, nextID)
		if len(d.stack) > d.stats.PeakStack {
			d.stats.PeakStack = len(d.stack)
		}
	case sax.EndElement:
		if len(d.stack) <= 1 {
			return fmt.Errorf("automaton: unmatched endElement")
		}
		d.stack = d.stack[:len(d.stack)-1]
	case sax.Text:
		// Linear path queries ignore character data.
	}
	return nil
}

// ProcessAll streams an event sequence and returns the match result.
func (d *LazyDFA) ProcessAll(events []sax.Event) (bool, error) {
	for _, e := range events {
		if err := d.Process(e); err != nil {
			return false, err
		}
	}
	return d.match, nil
}

// Matched reports whether an accepting position was reached.
func (d *LazyDFA) Matched() bool { return d.match }

// Stats returns the memory accounting.
func (d *LazyDFA) Stats() DFAStats { return d.stats }

// EagerStateCount performs the full subset construction over the alphabet
// of the query's node tests plus one "other" symbol, returning the number
// of reachable deterministic states. For queries like //a/*^k/b this count
// is exponential in k — the paper's Section 1.2 blowup.
func EagerStateCount(n *NFA, limit int) (int, bool) {
	alphabet := map[string]bool{}
	for _, st := range n.steps {
		if st.ntest != query.Wildcard {
			alphabet[st.ntest] = true
		}
	}
	names := make([]string, 0, len(alphabet)+1)
	for nm := range alphabet {
		names = append(names, nm)
	}
	sort.Strings(names)
	names = append(names, "\x00other")

	seen := map[string]bool{}
	frontier := []stateSet{n.Start()}
	seen[n.Start().key()] = true
	count := 1
	for len(frontier) > 0 {
		var next []stateSet
		for _, s := range frontier {
			for _, nm := range names {
				t := n.Step(s, nm)
				k := t.key()
				if !seen[k] {
					seen[k] = true
					count++
					if limit > 0 && count >= limit {
						return count, false
					}
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	return count, true
}
