package automaton

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"streamxpath/internal/query"
	"streamxpath/internal/symtab"
)

// MergedNFA is a combined position automaton for MANY path queries at once:
// a prefix-sharing trie over location steps, in the style of the YFilter
// family of dissemination engines. Queries that agree on their first k steps
// (same node test, same axis) share k trie states, so the per-event work of
// the shared evaluation depends on the number of distinct active states, not
// on the number of subscriptions. Every query's location path, predicates
// ignored, is Added, with its output id at the last state. An ungated
// output (a linear query's) is in the accept lists of the item sets holding
// its state fresh; a gated one is its owner's, internal/engine, to decide
// where its state is entered, and to report (SharedRunner.Latched). The
// steps of a predicate are Held — the owner hangs its nodes off their
// states, and reads an element's candidates off the item set it enters —
// and output nothing. A step may take the attribute axis: its state is
// looked up below an element (SharedRunner.Attribute) and never enters an
// item set.
//
// The trie is edited where it stands, in O(1) per step, and the lazy DFA —
// one memo, read by every SharedRunner over the automaton — forgets only
// the memoized transitions that depended on the states whose child sets
// changed. An unlinked state's slot goes on a free list for the next new
// state, so Slots never exceeds the peak of linked states. That cannot
// alias: unlinking drops every memoized item set holding the state before
// its slot is freed (dropSets), and a mutation abandons the document in
// flight.
type MergedNFA struct {
	tab    *symtab.Table
	states []mstate
	// freeStates are the slots of unlinked states, handed out again before
	// states grows; live counts the states other than the root that some
	// ungated output passes through, and held the Hold calls not yet
	// Released.
	freeStates []int
	live       int
	held       int

	// outputs counts the Added outputs, and gated the gated ones among them.
	// The ids are the caller's: it hands one to Add, and the runners' owners
	// latch by it.
	outputs, gated int

	// The memo: the item sets reached so far, each a dstate, from start on.
	// index finds a set by its key, and setsOf[state] lists the sets
	// holding the state in either mode — where a change of its children has
	// to be forgotten. setsOf is keyed by the states the memo holds, so the
	// memo of a large automaton is what documents have materialized. A
	// dropped set is in neither: nothing references it. The memo is the
	// automaton's, not a runner's, because it depends on the queries and on
	// the paths documents have taken, not on any one document.
	//
	// Runners read it without a lock (dstate.next). mu serializes what
	// writes it: a runner's miss (transition), the patches — which no runner
	// may overlap — and Stats, which reads its counters.
	mu     sync.Mutex
	start  *dstate
	index  map[string]*dstate
	setsOf map[int][]*dstate
	stats  DFAStats
}

// dstate is one memoized item set, a state of the lazily determinized
// automaton. items is fixed at interning. accepts lists the outputs of its
// fresh states, the ones entering it latches; Add and Remove edit it, never
// while a runner matches. row[sym] is the successor on the symbol, nil
// until computed; a row is replaced by a longer one, never grown in place,
// so a runner that loaded it reads a whole row.
type dstate struct {
	items   []int
	accepts []int
	row     atomic.Pointer[row]
}

type row []atomic.Pointer[dstate]

// edge keys a state's child: the step's interned node test (symtab.None
// for the wildcard) and axis. All per-event matching compares symbols,
// never strings.
type edge struct {
	sym  symtab.Sym
	axis query.Axis
}

// mstate is one trie state: the step that enters it, from how many steps
// below the root, plus its children.
type mstate struct {
	parent int
	edge   edge
	kids   map[edge]int
	// outputs are the ungated outputs accepted when this state is entered by
	// a direct match (not retained across a gap).
	outputs []int
	depth   int32
	// descKids counts the children reached by a descendant step; only
	// with one may the state survive a non-matching element (the "gap" of
	// //).
	descKids int32
	// through counts the Added queries whose path passes through or ends at
	// this state — the outputs at it or below — by kind (ungated, gated), and
	// descThrough those that leave it by a descendant step; held counts the
	// Hold calls on it. A state other than the root is unlinked when all
	// drop to zero.
	through, descThrough [2]int32
	held                 int32
	// bound says a child step from the root leads to the state: the root
	// element's end decides its gated outputs (SharedRunner.EndElement).
	bound bool
}

// NewMergedNFA returns an automaton containing only the root state,
// interning node tests into tab (nil for a private table). States are
// bound to the table as they are created, so the automaton can change
// while a runner holds it.
func NewMergedNFA(tab *symtab.Table) *MergedNFA {
	if tab == nil {
		tab = symtab.New()
	}
	m := &MergedNFA{tab: tab, states: []mstate{{parent: -1}}, // state 0: the query root $
		index: map[string]*dstate{}, setsOf: map[int][]*dstate{}}
	m.start = m.intern([]int{0}) // the root, fresh; it holds no unlinked state, so it is never dropped
	return m
}

// Add merges query q's location path, its predicates ignored, into the
// trie with output id out at its final state, and returns that state, which
// Remove takes back. An ungated output is accepted there, and must be a
// linear query's (the /, //, * fragment): Add refuses any other.
func (m *MergedNFA) Add(q *query.Query, out int, gated bool) (int, error) {
	if !gated {
		if err := Linear(q); err != nil {
			return 0, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, k := 0, kind(gated)
	for u := q.Root.Successor; u != nil; u = u.Successor {
		next := m.child(cur, u.Axis, u.NTest)
		if u.Axis == query.AxisDescendant {
			m.states[cur].descThrough[k]++
		}
		if m.states[next].through[k]++; k == 0 && m.states[next].through[0] == 1 {
			m.live++
		}
		cur = next
	}
	m.outputs++
	if gated {
		m.gated++
		return cur, nil
	}
	m.states[cur].outputs = append(m.states[cur].outputs, out)
	m.accept(cur, out, true)
	return cur, nil
}

// kind indexes the counts by output kind: 0 ungated, 1 gated.
func kind(gated bool) int {
	if gated {
		return 1
	}
	return 0
}

// Child returns the state an Added path's step (axis, ntest) enters from.
func (m *MergedNFA) Child(from int, axis query.Axis, ntest string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.child(from, axis, ntest)
}

// Hold returns the state a step along axis with node test ntest enters from
// state from, and keeps it linked until Release. A predicate's steps are
// held from the step they qualify down, and released deepest first.
func (m *MergedNFA) Hold(from int, axis query.Axis, ntest string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.child(from, axis, ntest)
	m.states[s].held++
	m.held++
	return s
}

// Release takes back one Hold of state s.
func (m *MergedNFA) Release(s int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.states[s].held--
	m.held--
	m.unlinkIdle(s)
}

// child returns cur's child along the step (axis, ntest), linking a new
// state for the first step of that shape.
func (m *MergedNFA) child(cur int, axis query.Axis, ntest string) int {
	e := edge{axis: axis}
	if ntest != query.Wildcard {
		e.sym = m.tab.Intern(ntest)
	}
	if next, ok := m.states[cur].kids[e]; ok {
		return next
	}
	next, fresh := len(m.states), mstate{parent: cur, edge: e, depth: m.states[cur].depth + 1,
		bound: m.states[cur].bound || cur == 0 && axis == query.AxisChild}
	if k := len(m.freeStates); k > 0 {
		next = m.freeStates[k-1]
		m.freeStates = m.freeStates[:k-1]
		m.states[next] = fresh
	} else {
		m.states = append(m.states, fresh)
	}
	st := &m.states[cur]
	if st.kids == nil {
		st.kids = map[edge]int{}
	}
	st.kids[e] = next
	m.childChanged(cur, e, +1)
	return next
}

// Remove withdraws the query Add put output out for, of the same kind, at
// state cur: the id is dropped and the states nothing passes through any
// more are unlinked. The scan for an ungated id is linear in the ids
// accepted at the same state (duplicates of one query).
func (m *MergedNFA) Remove(cur, out int, gated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outputs--
	if gated {
		m.gated--
	} else {
		outs := m.states[cur].outputs
		i := slices.Index(outs, out)
		outs[i] = outs[len(outs)-1]
		m.states[cur].outputs = outs[:len(outs)-1]
		m.accept(cur, out, false)
	}
	// Counts never grow downwards, so the emptied states are a suffix of the
	// path and each is a leaf by the time the walk reaches it.
	for k := kind(gated); cur != 0; {
		st := &m.states[cur]
		parent := st.parent
		if st.edge.axis == query.AxisDescendant {
			m.states[parent].descThrough[k]--
		}
		if st.through[k]--; k == 0 && st.through[0] == 0 {
			m.live--
		}
		m.unlinkIdle(cur)
		cur = parent
	}
}

// unlinkIdle unlinks state s, a leaf by now, if no query passes through it
// and no step holds it.
func (m *MergedNFA) unlinkIdle(s int) {
	st := &m.states[s]
	if st.through != [2]int32{} || st.held > 0 {
		return
	}
	parent, e := st.parent, st.edge
	*st = mstate{parent: -1}
	m.freeStates = append(m.freeStates, s)
	delete(m.states[parent].kids, e)
	m.dropSets(s)
	m.childChanged(parent, e, -1)
}

// childChanged records that state p gained (delta +1) or lost (-1) its
// child along e and forgets the memoized transitions that touches: those of
// the item sets containing p, on e's symbol — on every symbol when e is a
// wildcard, or when p's first descendant child arrived or its last one
// left, because that is what decides whether p survives a non-matching
// element. An attribute child touches none: it is never stepped into.
func (m *MergedNFA) childChanged(p int, e edge, delta int) {
	if e.axis == query.AxisAttribute {
		return
	}
	flipped := false
	if e.axis == query.AxisDescendant {
		st := &m.states[p]
		st.descKids += int32(delta)
		flipped = st.descKids == 0 || (delta > 0 && st.descKids == 1)
	}
	m.invalidate(p, e.sym, flipped)
}

// Size returns the number of states some ungated output passes through,
// the root included — the shared-structure measure reported by engine
// statistics, which counts the states of gated outputs' steps on their own.
func (m *MergedNFA) Size() int { return m.live + 1 }

// Depth returns the number of steps from the root to linked state s: of
// every path Added that ends there.
func (m *MergedNFA) Depth(s int) int { return int(m.states[s].depth) }

// Slots returns the number of state slots allocated: the linked states of
// either kind plus the free slots of unlinked ones, which is their peak.
func (m *MergedNFA) Slots() int { return len(m.states) }

// An active item is a trie state in one of two modes. A "fresh" state was
// entered by matching its own step at the current element; all its
// children are enabled for the next level. A "looping" state is retained
// across a gap element absorbed by a descendant-axis child; only its
// descendant-axis children remain enabled — a child-axis child must match
// exactly one level below the fresh occurrence, so enabling it from a
// looping state would accept /-steps at descendant depth (the classic
// merged-trie unsoundness). Items are encoded as state*2 | loopingBit.
const loopingBit = 1

// step computes the successor item set on reading an element with the
// given interned name: four child-index probes per fresh item, two per
// looping one. It runs only when the memo gains a (set, symbol)
// transition; the steady state never reaches it.
func (m *MergedNFA) step(items []int, sym symtab.Sym) []int {
	out := make([]int, 0, 2*len(items)) // never nil: a nil set is a dropped one
	for _, it := range items {
		id, looping := it>>1, it&loopingBit != 0
		st := &m.states[id]
		for _, e := range [4]edge{{sym, query.AxisDescendant}, {symtab.None, query.AxisDescendant}, {sym, query.AxisChild}, {symtab.None, query.AxisChild}} {
			if looping && e.axis != query.AxisDescendant {
				break
			}
			if c, ok := st.kids[e]; ok {
				out = append(out, c<<1)
			}
		}
		if st.descKids > 0 {
			out = append(out, id<<1|loopingBit)
		}
	}
	// A state held both fresh and looping offers its descendant-axis
	// children, and its own looping item, twice. The set is ordered by
	// depth, so that a state comes before every state below it.
	slices.SortFunc(out, func(a, b int) int {
		return cmp.Or(int(m.states[a>>1].depth-m.states[b>>1].depth), a-b)
	})
	n := 0
	for i, it := range out {
		if i == 0 || it != out[i-1] {
			out[n] = it
			n++
		}
	}
	return out[:n]
}

// reach counts the outputs a continuation of one or more elements can still
// emit from an item set that has just been entered: everything, gated or
// not, in the subtrees under the items' enabled children — all children of
// a fresh item, the descendant-axis ones of a looping item — and the gated
// outputs of the set's own fresh states, whose ungated ones latched on
// entry. The subtrees of a trie are nested or disjoint and the through
// counts give their sizes, so the count needs no walk: it sums, by kind, the
// items no other item covers. Of the root element's set, bound counts the
// gated outputs below a fresh state a child step from the root enters.
func (m *MergedNFA) reach(items []int) (live [2]int, bound int) {
	for _, it := range items {
		s := it >> 1
		st := &m.states[s]
		covered := m.under(items, s)
		switch {
		case it&loopingBit == 0 && covered:
			live[0] -= len(st.outputs) // counted by the covering item, and latched
		case it&loopingBit == 0:
			live[0] += int(st.through[0]) - len(st.outputs)
			live[1] += int(st.through[1])
			if st.bound {
				bound += int(st.through[1])
			}
		case !covered:
			// (A state held fresh and looping at once was entered at two
			// depths, so a descendant step leads to it and the looping item
			// of that step's origin covers both.)
			live[0] += int(st.descThrough[0])
			live[1] += int(st.descThrough[1])
		}
	}
	return live, bound
}

// under reports whether state s lies in the subtree under an enabled child
// of some item.
func (m *MergedNFA) under(items []int, s int) bool {
	for s != 0 {
		st := &m.states[s]
		if stateSet(items).contains(st.parent<<1) ||
			(st.edge.axis == query.AxisDescendant && stateSet(items).contains(st.parent<<1|loopingBit)) {
			return true
		}
		s = st.parent
	}
	return false
}

// intern returns the memo's state for an item set, materializing it if new.
// A new state is built whole — accepts and its setsOf entries — before the
// index publishes it, so that whatever interrupts a miss leaves no state
// invalidation cannot reach.
func (m *MergedNFA) intern(items []int) *dstate {
	k := stateSet(items).key()
	if d, ok := m.index[k]; ok {
		return d
	}
	d := &dstate{items: items}
	for _, it := range items {
		if it&loopingBit == 0 {
			d.accepts = append(d.accepts, m.states[it>>1].outputs...)
		}
	}
	for i, it := range items {
		if i == 0 || it>>1 != items[i-1]>>1 {
			m.setsOf[it>>1] = append(m.setsOf[it>>1], d)
		}
	}
	m.index[k] = d
	return d
}

// next returns the memoized successor of d on sym, nil if there is none
// yet: an atomic load of the row and one of its entry, no lock.
func (d *dstate) next(sym symtab.Sym) *dstate {
	if r := d.row.Load(); r != nil && int(sym) < len(*r) {
		return (*r)[sym].Load()
	}
	return nil
}

// transition computes and memoizes the successor of from on sym: a miss. It
// holds the memo's lock, interns the successor, and publishes the row entry
// last, so a runner that reads the entry finds a whole state.
func (m *MergedNFA) transition(from *dstate, sym symtab.Sym) *dstate {
	m.mu.Lock()
	defer m.mu.Unlock()
	if to := from.next(sym); to != nil {
		return to // another runner's miss memoized it meanwhile
	}
	to := m.intern(m.step(from.items, sym))
	r := from.row.Load()
	if r == nil || int(sym) >= len(*r) {
		// Grow only to the symbol actually observed (doubling to amortize),
		// not to the full table: a long-running engine's shared table
		// accumulates every name of every document, and sizing all rows to it
		// would turn the memo into O(states x lifetime names) memory. The
		// longer row replaces the old one whole.
		var old row
		if r != nil {
			old = *r
		}
		n := max(int(sym)+1, 2*len(old))
		grown := make(row, n)
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		r = &grown
		from.row.Store(r)
	}
	(*r)[sym].Store(to)
	m.stats.Transitions++
	m.stats.Materialized++
	m.stats.Symbols = m.tab.Len() - 1
	return to
}

// clearRow forgets every memoized transition out of d.
func (m *MergedNFA) clearRow(d *dstate) {
	if r := d.row.Load(); r != nil {
		for sym := range *r {
			if (*r)[sym].Load() != nil {
				(*r)[sym].Store(nil)
				m.stats.Transitions--
			}
		}
	}
}

// accept enters out into (add) or withdraws it from the accept lists of the
// memo's states holding state s fresh: s has just gained or lost out as an
// output.
func (m *MergedNFA) accept(s, out int, add bool) {
	for _, d := range m.setsOf[s] {
		if !stateSet(d.items).contains(s << 1) {
			continue
		}
		if add {
			d.accepts = append(d.accepts, out)
			continue
		}
		i := slices.Index(d.accepts, out)
		d.accepts[i] = d.accepts[len(d.accepts)-1]
		d.accepts = d.accepts[:len(d.accepts)-1]
	}
}

// invalidate forgets the transitions a change of state p's child along sym
// made wrong: in every memoized set holding p, the entry for sym, or the
// whole row when sym is None (a wildcard child answers every symbol) or
// flipped is set (p gained its first or lost its last descendant child, so
// its looping item joins or leaves every successor). A set holding the
// looping item of a p that can no longer loop has become unreachable —
// every predecessor holds p and is being cleared — and is dropped.
func (m *MergedNFA) invalidate(p int, sym symtab.Sym, flipped bool) {
	stranded := flipped && m.states[p].descKids == 0
	// Backwards: drop moves the last holder into the dropped one's place,
	// and the last has been visited.
	holders := m.setsOf[p]
	for i := len(holders) - 1; i >= 0; i-- {
		d := holders[i]
		switch r := d.row.Load(); {
		case stranded && stateSet(d.items).contains(p<<1|loopingBit):
			m.drop(d)
		case flipped || sym == symtab.None:
			m.clearRow(d)
		case r != nil && int(sym) < len(*r) && (*r)[sym].Load() != nil:
			(*r)[sym].Store(nil)
			m.stats.Transitions--
		}
	}
}

// dropSets drops every memoized set holding state s, which has just been
// unlinked. Nothing still points at them: a set holding s is entered only
// from a set holding s or s's parent, and the parent's sets are invalidated
// on s's symbol by the same Remove.
func (m *MergedNFA) dropSets(s int) {
	for hs := m.setsOf[s]; len(hs) > 0; hs = m.setsOf[s] {
		m.drop(hs[len(hs)-1])
	}
}

// drop takes d out of the memo — its row, its index entry and its place in
// setsOf — after which nothing references it.
func (m *MergedNFA) drop(d *dstate) {
	m.clearRow(d)
	delete(m.index, stateSet(d.items).key())
	for i, it := range d.items {
		if s := it >> 1; i == 0 || s != d.items[i-1]>>1 {
			hs := m.setsOf[s]
			j := slices.Index(hs, d)
			hs[j] = hs[len(hs)-1]
			hs[len(hs)-1] = nil
			if len(hs) == 1 {
				delete(m.setsOf, s)
			} else {
				m.setsOf[s] = hs[:len(hs)-1]
			}
		}
	}
}

// Stats returns the memo's accounting: the item sets and transitions it
// holds and has computed, over every runner of the automaton. PeakStack is
// a runner's (SharedRunner.Stats).
func (m *MergedNFA) Stats() DFAStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.States = len(m.index)
	return s
}

// SharedRunner evaluates a MergedNFA over a document with a stack of the
// automaton's memoized item sets, stepping along their dense transition
// rows indexed by the tokenizer-supplied symbol — two atomic loads per
// element once warm, no hashing, no lock, no allocation, independent of
// subscription count — and latching the entered set's accept list in the
// runner's owner (latch), which keeps the verdicts. The runner holds only
// what one document makes it hold; the memo is the automaton's, so it
// persists across Reset, patches — a row depends only on the child sets of
// the states in its item set — and runners.
//
// The automaton must not change between StartDocument and the document's
// last event.
type SharedRunner struct {
	m     *MergedNFA
	stack []*dstate
	depth int // levels processed while short-circuited
	// live counts the outputs whose verdict is still open, by kind. XML has
	// exactly one root element (the tokenizers reject a second), so the
	// moment the root's item set is pushed, the outputs any document
	// suffix can still emit are fixed: the automaton's reach from that
	// set. From then on live counts those not yet matched (StartElementSym
	// says what the runner stops doing when no ungated one is left); before
	// the root element every output is live. bound counts the live gated
	// outputs below a child step from the root.
	live      [2]int
	bound     int
	peakStack int

	// latch is the owner's record of the document's verdicts: it is handed
	// the outputs an entered item set accepts (inside StartElementSym, while
	// the matching element's start event is current, and outside the memo's
	// lock), latches them, and returns how many of them latched for the first
	// time this document — the runner keeps no verdicts, only how many are
	// left. It must not reenter the runner.
	latch func(outs []int) (first int)
}

// NewSharedRunner returns a runner over the merged automaton, dispatching
// on the automaton's symbol table, with matches going to latch. An
// automaton may have any number of runners, each matching its own documents
// over the one memo, concurrently while the automaton is not patched; a
// runner is made and dropped without telling the automaton.
func NewSharedRunner(m *MergedNFA, latch func(outs []int) (first int)) *SharedRunner {
	r := &SharedRunner{m: m, latch: latch}
	r.Reset()
	return r
}

// Reset clears the per-document state (the stack and the counts of what is
// live). It does not allocate once warm; the owner clears its own verdicts.
func (r *SharedRunner) Reset() {
	r.stack = r.stack[:0]
	r.depth = 0
	r.live, r.bound = [2]int{r.m.outputs - r.m.gated, r.m.gated}, 0
	r.peakStack = 0
}

// StartDocument begins a document.
func (r *SharedRunner) StartDocument() {
	r.stack = append(r.stack[:0], r.m.start)
}

// StartElementSym processes a startElement event whose name was interned
// by the tokenizer, latching any outputs accepted by the transition.
// Once every still-live ungated output has matched, so the rest are
// decided negative, no accept list is left to latch, and with no step held
// and no gated output, whose owners read every element's item set, the
// runner only counts depth (the per-subscription monotone early exit,
// applied to the whole shared index). The shortcut applies only inside an
// element (stack depth > 1): a start at depth 1 is the root, whose reach
// is not counted yet, so it is processed in full and counts it. The
// owner steps no runner over an automaton with no output. Warm
// transitions touch no map and allocate nothing, and what they latch is
// the entered set's accept list: the trie's states are read once per
// document, for the root element's reach, and not per element.
func (r *SharedRunner) StartElementSym(sym symtab.Sym) {
	done := r.live[0] == 0 && len(r.stack) > 1
	if len(r.stack) == 0 || done && r.m.held == 0 && r.m.gated == 0 {
		r.depth++
		return
	}
	top := r.stack[len(r.stack)-1]
	next := top.next(sym)
	if next == nil {
		next = r.m.transition(top, sym)
	}
	if acc := next.accepts; len(acc) > 0 && !done {
		r.live[0] -= r.latch(acc)
	}
	r.stack = append(r.stack, next)
	if len(r.stack) == 2 {
		// The root element just opened: from here on only its subtree can
		// produce elements, so the outputs reachable from its item set are
		// the only ones still undecided — and every later latch is one of
		// them. (A second root element would break that; the engine refuses
		// one, as the tokenizers do.)
		r.live, r.bound = r.m.reach(next.items)
	}
	r.peakStack = max(r.peakStack, len(r.stack))
}

// Entered returns the current element's item set — items Fresh decodes, a
// state before the states below it — valid until the next event.
func (r *SharedRunner) Entered() []int { return r.stack[len(r.stack)-1].items }

// Fresh decodes an item of Entered or Attribute: its state, and
// whether the state was entered by matching its own step rather than kept
// across a gap.
func Fresh(item int) (state int, fresh bool) { return item >> 1, item&loopingBit == 0 }

// Attribute appends to dst, as fresh items, the states an attribute named
// sym of the current element enters — the attribute children of the item
// set's fresh states — and enters none: an attribute has no item set.
func (r *SharedRunner) Attribute(sym symtab.Sym, dst []int) []int {
	for _, it := range r.Entered() {
		if it&loopingBit != 0 {
			continue
		}
		kids := r.m.states[it>>1].kids
		for _, e := range [2]edge{{sym, query.AxisAttribute}, {symtab.None, query.AxisAttribute}} {
			if c, ok := kids[e]; ok {
				dst = append(dst, c<<1)
			}
		}
	}
	return dst
}

// EndElement processes an endElement event. The root element's end decides
// the gated outputs below a child step from the root; an ungated one, and a
// gated one below a descendant step from it, stay open to the document end.
func (r *SharedRunner) EndElement() {
	if r.depth > 0 {
		r.depth--
		return
	}
	if len(r.stack) > 1 {
		r.stack = r.stack[:len(r.stack)-1]
		if len(r.stack) == 1 {
			r.live[1] -= r.bound
			r.bound = 0
		}
	}
}

// Latched counts out k gated outputs at state s, each latched for the
// first time this document before the root element's end: the outputs one
// trie node delivers, or those of a run's stretch, whose nodes share the
// state.
func (r *SharedRunner) Latched(s, k int) {
	r.live[1] -= k
	if r.m.states[s].bound {
		r.bound -= k
	}
}

// Undecided returns the number of outputs whose verdict is still open:
// not yet matched and still reachable by some continuation of the
// document. Before the root element everything unmatched is undecided;
// afterwards, unmatched outputs outside the root item set's reach are
// decided negative, and the root element's end decides more (EndElement).
// Zero means a streaming caller may abandon the document — the remaining
// verdicts are final either way.
func (r *SharedRunner) Undecided() int { return r.live[0] + r.live[1] }

// Stats returns the automaton's memo accounting (MergedNFA.Stats) with the
// runner's PeakStack.
func (r *SharedRunner) Stats() DFAStats {
	s := r.m.Stats()
	s.PeakStack = r.peakStack
	return s
}
