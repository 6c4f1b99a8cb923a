package automaton

import (
	"slices"
	"sort"
	"sync"

	"streamxpath/internal/query"
	"streamxpath/internal/symtab"
)

// MergedNFA is a combined position automaton for MANY linear path queries
// at once: a prefix-sharing trie over location steps, in the style of the
// YFilter family of dissemination engines. Queries that agree on their
// first k steps (same node test, same axis) share k trie states, so the
// per-event work of the shared evaluation depends on the number of
// distinct active states, not on the number of subscriptions. Accepting
// states carry output sets: the ids of the subscriptions whose final step
// they are.
//
// The trie is edited where it stands. Add extends it through a per-state
// child index and Remove unlinks the states no query passes through any
// more, both in O(|query|); every SharedRunner bound to the automaton is
// told which states' child sets changed and forgets only the memoized
// transitions that depended on them. An unlinked state's slot goes on a
// free list and the next Add takes it, so Slots never exceeds the peak of
// Size however long the automaton is patched. That cannot alias: Remove
// drops every memoized item set holding the state before its slot is freed
// (SharedRunner.dropSets), and a mutation abandons the document in flight.
//
// Like the single-query NFA, the merged automaton covers the /, //, *
// fragment; predicates and attribute axes are routed by internal/engine to
// the frontier-based shared matcher instead.
type MergedNFA struct {
	tab    *symtab.Table
	states []mstate
	// freeStates are the slots of unlinked states, handed out again before
	// states grows; live counts the rest, the root included.
	freeStates []int
	live       int

	// outputs counts the output ids accepted at some state. The ids are the
	// caller's: it hands one to Add, and the runners' owners latch by it.
	outputs int

	// runners are the runners bound to the automaton, each with a memo of its
	// own that every patch has to reach. bind guards the list against runners
	// bound and unbound at once — engines quarantined concurrently — while
	// Add and Remove, which no runner may overlap, read it without the lock.
	runners []*SharedRunner
	bind    sync.Mutex
}

// edge keys a state's child: the step's interned node test (symtab.None
// for the wildcard) and axis. All per-event matching compares symbols,
// never strings.
type edge struct {
	sym        symtab.Sym
	descendant bool
}

// mstate is one trie state: the step that enters it plus its children.
type mstate struct {
	parent int
	edge   edge
	kids   map[edge]int
	// descKids counts the children reached by a descendant step; only
	// with one may the state survive a non-matching element (the "gap" of
	// //).
	descKids int
	// outputs are the ids accepted when this state is entered by a direct
	// match (not retained across a gap).
	outputs []int
	// through counts the queries whose path passes through or ends at this
	// state — the outputs accepted at it or below — and descThrough those
	// that leave it by a descendant step. A state other than the root is
	// unlinked when through drops to zero.
	through     int
	descThrough int
}

// NewMergedNFA returns an automaton containing only the root state,
// interning node tests into tab (nil for a private table). States are
// bound to the table as they are created, so the automaton can change
// while a runner holds it.
func NewMergedNFA(tab *symtab.Table) *MergedNFA {
	if tab == nil {
		tab = symtab.New()
	}
	return &MergedNFA{tab: tab, states: []mstate{{parent: -1}}, live: 1} // state 0: the query root $
}

// Add merges a linear (predicate-free, attribute-free) path query into the
// trie, accepting output id out at its final state, and returns that state,
// which Remove takes back. It returns an error for queries outside the /,
// //, * fragment.
func (m *MergedNFA) Add(q *query.Query, out int) (int, error) {
	if err := Linear(q); err != nil {
		return 0, err
	}
	cur := 0
	m.states[0].through++
	for u := q.Root.Successor; u != nil; u = u.Successor {
		e := edge{descendant: u.Axis == query.AxisDescendant}
		if u.NTest != query.Wildcard {
			e.sym = m.tab.Intern(u.NTest)
		}
		next, ok := m.states[cur].kids[e]
		if !ok {
			if k := len(m.freeStates); k > 0 {
				next = m.freeStates[k-1]
				m.freeStates = m.freeStates[:k-1]
				m.states[next] = mstate{parent: cur, edge: e}
			} else {
				next = len(m.states)
				m.states = append(m.states, mstate{parent: cur, edge: e})
			}
			m.live++
			st := &m.states[cur]
			if st.kids == nil {
				st.kids = map[edge]int{}
			}
			st.kids[e] = next
			m.childChanged(cur, e, +1)
		}
		if e.descendant {
			m.states[cur].descThrough++
		}
		m.states[next].through++
		cur = next
	}
	m.states[cur].outputs = append(m.states[cur].outputs, out)
	m.outputs++
	for _, r := range m.runners {
		r.accept(cur, out, true)
	}
	return cur, nil
}

// Remove withdraws the query Add accepted out for at state cur: the id is
// dropped and the states only that query passed through are unlinked. The
// scan for the id is linear in the ids accepted at the same state
// (duplicates of one query).
func (m *MergedNFA) Remove(cur, out int) {
	outs := m.states[cur].outputs
	for i, o := range outs {
		if o == out {
			outs[i] = outs[len(outs)-1]
			m.states[cur].outputs = outs[:len(outs)-1]
			break
		}
	}
	m.outputs--
	for _, r := range m.runners {
		r.accept(cur, out, false)
	}
	// through never grows downwards, so the emptied states are a suffix of
	// the path and each is a leaf by the time the walk reaches it.
	for cur != 0 {
		st := &m.states[cur]
		st.through--
		parent, e := st.parent, st.edge
		if e.descendant {
			m.states[parent].descThrough--
		}
		if st.through == 0 {
			*st = mstate{parent: -1}
			m.freeStates = append(m.freeStates, cur)
			m.live--
			delete(m.states[parent].kids, e)
			for _, r := range m.runners {
				r.dropSets(cur)
			}
			m.childChanged(parent, e, -1)
		}
		cur = parent
	}
	m.states[0].through--
	for _, r := range m.runners {
		r.compact()
	}
}

// childChanged records that state p gained (delta +1) or lost (-1) its
// child along e and tells the runners which memoized transitions that
// touches: those of the item sets containing p, on e's symbol — on every
// symbol when e is a wildcard, or when p's first descendant child arrived
// or its last one left, because that is what decides whether p survives a
// non-matching element.
func (m *MergedNFA) childChanged(p int, e edge, delta int) {
	flipped := false
	if e.descendant {
		st := &m.states[p]
		st.descKids += delta
		flipped = st.descKids == 0 || (delta > 0 && st.descKids == 1)
	}
	for _, r := range m.runners {
		r.invalidate(p, e.sym, flipped)
	}
}

// Size returns the number of live trie states (including the root) — the
// shared-structure measure reported by engine statistics.
func (m *MergedNFA) Size() int { return m.live }

// Slots returns the number of state slots allocated: Size plus the free
// slots of unlinked states, which is the peak of Size.
func (m *MergedNFA) Slots() int { return len(m.states) }

// Outputs returns the number of output ids in use.
func (m *MergedNFA) Outputs() int { return m.outputs }

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
// looping one. It runs only when the runner memoizes a new (set, symbol)
// transition; the steady state never reaches it.
func (m *MergedNFA) step(items []int, sym symtab.Sym) []int {
	out := make([]int, 0, 2*len(items)) // never nil: a nil set is a dropped one
	for _, it := range items {
		id, looping := it>>1, it&loopingBit != 0
		st := &m.states[id]
		for _, e := range [4]edge{{sym, true}, {symtab.None, true}, {sym, false}, {symtab.None, false}} {
			if looping && !e.descendant {
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
	// children, and its own looping item, twice.
	sort.Ints(out)
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
// emit from an item set that has just been entered: everything accepted in
// the subtrees under the items' enabled children — all children of a fresh
// item, the descendant-axis ones of a looping item — except what the set's
// own fresh states accept, which latched on entry. The subtrees of a trie
// are nested or disjoint and the through counts give their sizes, so the
// count needs no walk: it sums the items no other item covers.
func (m *MergedNFA) reach(items []int) int {
	n := 0
	for _, it := range items {
		s := it >> 1
		st := &m.states[s]
		covered := m.under(items, s)
		switch {
		case it&loopingBit == 0 && covered:
			n -= len(st.outputs) // counted by the covering item, and latched
		case it&loopingBit == 0:
			n += st.through - len(st.outputs)
		case !covered:
			// (A state held fresh and looping at once was entered at two
			// depths, so a descendant step leads to it and the looping item
			// of that step's origin covers both.)
			n += st.descThrough
		}
	}
	return n
}

// under reports whether state s lies in the subtree under an enabled child
// of some item.
func (m *MergedNFA) under(items []int, s int) bool {
	for s != 0 {
		st := &m.states[s]
		if stateSet(items).contains(st.parent<<1) ||
			(st.edge.descendant && stateSet(items).contains(st.parent<<1|loopingBit)) {
			return true
		}
		s = st.parent
	}
	return false
}

// SharedRunner evaluates a MergedNFA over a document with a stack of
// interned item sets and lazily memoized (set, symbol) transitions held
// in dense per-set rows indexed by the tokenizer-supplied symbol — one
// bounds-checked array load per element once warm, no hashing, no
// allocation, independent of subscription count. Matches latch in the
// runner's owner (latch), which keeps the verdicts; the transition rows
// persist across Reset as a long-running dissemination engine's would, and
// across the automaton's Add and Remove:
// a row depends only on the child sets of the states in its item set, so a
// mutation zeroes the entries under the states it relinked and nothing
// else. What a set accepts is a list kept beside it — the outputs of its
// fresh states, gathered when the set is interned — so entering a set reads
// one list and no state; a change of outputs edits the lists of the sets
// holding the state it happened at, and touches no row.
//
// The automaton must not change between StartDocument and the document's
// last event.
type SharedRunner struct {
	m *MergedNFA
	// sets[id] is an interned item set, nil once dropped; index finds a set
	// by its key. dropped counts the nil entries, which compact squeezes out
	// once they outnumber the rest.
	sets    [][]int
	index   map[string]int
	dropped int
	// rows[set][sym] holds the memoized successor set id + 1; 0 means not
	// yet computed. Rows grow lazily to the symbol table's size.
	rows [][]uint32
	// accepts[set] lists the outputs of the set's fresh states, the ones
	// entering it latches.
	accepts [][]int
	// setsOf[state] lists the ids of the sets holding the state in either
	// mode — where a change of its children has to be forgotten. Ids of
	// dropped sets are swept out on the next visit. It is keyed by the
	// states the memo holds, so that a runner's share of a large automaton
	// is what it has materialized.
	setsOf map[int][]int

	startID int // interned id of the initial item set
	stack   []int
	depth   int // levels processed while short-circuited
	left    int // outputs not yet matched
	// liveLeft counts the outputs whose verdict is still open. XML has
	// exactly one root element (the tokenizers reject a second), so the
	// moment the root's item set is pushed, the outputs any document
	// suffix can still emit are fixed: the automaton's reach from that
	// set. From then on liveLeft counts those not yet matched — when it
	// hits zero every remaining output is decided negative and the runner
	// stops doing per-element work. Before the root element every output
	// is live.
	liveLeft int
	stats    DFAStats

	// latch is the owner's record of the document's verdicts: it is handed
	// the outputs an entered item set accepts (inside StartElementSym, while
	// the matching element's start event is current), latches them, and
	// returns how many of them latched for the first time this document —
	// the runner keeps no verdicts, only how many are left. It must not
	// reenter the runner.
	latch func(outs []int) (first int)
}

// NewSharedRunner returns a runner over the merged automaton, dispatching
// on the automaton's symbol table: callers that tokenize with that table
// feed the runner symbols directly via StartElementSym. Matches go to latch
// (see SharedRunner.latch). The runner follows the automaton's later Add and
// Remove calls until Unbind. An automaton may have any number of runners,
// each matching its own documents: they read it and write only themselves,
// so they may run concurrently while it is not patched. Binding and Unbind
// may run concurrently with each other and with the other runners'
// matching, but not with Add or Remove.
func NewSharedRunner(m *MergedNFA, latch func(outs []int) (first int)) *SharedRunner {
	r := &SharedRunner{m: m, index: map[string]int{}, setsOf: map[int][]int{}, latch: latch}
	m.bind.Lock()
	m.runners = append(m.runners, r)
	m.bind.Unlock()
	r.startID = r.intern([]int{0}) // the root, fresh
	r.Reset()
	return r
}

// Unbind stops the runner following the automaton's mutations. It is not to
// be used again.
func (r *SharedRunner) Unbind() {
	m := r.m
	m.bind.Lock()
	defer m.bind.Unlock()
	i := slices.Index(m.runners, r)
	m.runners = slices.Delete(m.runners, i, i+1)
}

// Reset clears the per-document state (the stack and the counts of what is
// left) but keeps the memoized transition rows. It does not allocate once
// warm; the owner clears its own verdicts.
func (r *SharedRunner) Reset() {
	r.stack = r.stack[:0]
	r.depth = 0
	r.left = r.m.outputs
	r.liveLeft = r.left
	r.stats.PeakStack = 0
}

func (r *SharedRunner) intern(items []int) int {
	k := stateSet(items).key()
	if id, ok := r.index[k]; ok {
		return id
	}
	id := len(r.sets)
	r.sets = append(r.sets, items)
	r.index[k] = id
	r.rows = append(r.rows, nil)
	var acc []int
	for _, it := range items {
		if it&loopingBit == 0 {
			acc = append(acc, r.m.states[it>>1].outputs...)
		}
	}
	r.accepts = append(r.accepts, acc)
	for i, it := range items {
		if i == 0 || it>>1 != items[i-1]>>1 {
			r.setsOf[it>>1] = append(r.setsOf[it>>1], id)
		}
	}
	r.stats.States++
	return id
}

// clearRow forgets every memoized transition out of set id.
func (r *SharedRunner) clearRow(id int) {
	for sym, to := range r.rows[id] {
		if to != 0 {
			r.rows[id][sym] = 0
			r.stats.Transitions--
		}
	}
}

// holders returns the ids of the live sets holding state s, sweeping the
// dropped ones out of the inverse index, which keeps no empty list.
func (r *SharedRunner) holders(s int) []int {
	ids := r.setsOf[s]
	live := ids[:0]
	for _, id := range ids {
		if r.sets[id] != nil {
			live = append(live, id)
		}
	}
	r.keep(s, live)
	return live
}

// keep stores ids as the sets holding state s.
func (r *SharedRunner) keep(s int, ids []int) {
	if len(ids) == 0 {
		delete(r.setsOf, s)
	} else {
		r.setsOf[s] = ids
	}
}

// accept enters out into (add) or withdraws it from the accept lists of the
// sets holding state s fresh: s has just gained or lost out as an output.
func (r *SharedRunner) accept(s, out int, add bool) {
	for _, id := range r.holders(s) {
		if !stateSet(r.sets[id]).contains(s << 1) {
			continue
		}
		acc := r.accepts[id]
		if add {
			r.accepts[id] = append(acc, out)
			continue
		}
		i := slices.Index(acc, out)
		acc[i] = acc[len(acc)-1]
		r.accepts[id] = acc[:len(acc)-1]
	}
}

// invalidate forgets the transitions a change of state p's child along sym
// made wrong: in every set holding p, the entry for sym, or the whole row
// when sym is None (a wildcard child answers every symbol) or flipped is
// set (p gained its first or lost its last descendant child, so its
// looping item joins or leaves every successor). A set holding the looping
// item of a p that can no longer loop has become unreachable — every
// predecessor holds p and is being cleared — and is dropped.
func (r *SharedRunner) invalidate(p int, sym symtab.Sym, flipped bool) {
	stranded := flipped && r.m.states[p].descKids == 0
	for _, id := range r.holders(p) {
		switch row := r.rows[id]; {
		case stranded && stateSet(r.sets[id]).contains(p<<1|loopingBit):
			r.drop(id)
		case flipped || sym == symtab.None:
			r.clearRow(id)
		case int(sym) < len(row) && row[sym] != 0:
			row[sym] = 0
			r.stats.Transitions--
		}
	}
}

// dropSets drops every set holding state s, which has just been unlinked.
// Nothing still points at them: a set holding s is entered only from a set
// holding s or s's parent, and the parent's sets are invalidated on s's
// symbol by the same Remove.
func (r *SharedRunner) dropSets(s int) {
	for _, id := range r.holders(s) {
		r.drop(id)
	}
	delete(r.setsOf, s)
}

func (r *SharedRunner) drop(id int) {
	r.clearRow(id)
	delete(r.index, stateSet(r.sets[id]).key())
	r.sets[id], r.rows[id], r.accepts[id] = nil, nil, nil
	r.stats.States--
	r.dropped++
}

// compact renumbers the sets densely once the dropped ones outnumber the
// live, so that what is indexed by set id stays proportional to the memo
// however long the automaton is patched. It runs at the end of a Remove —
// the only place sets are dropped — and costs one pass over the memo per
// that many drops. The stack goes with the old numbering: the automaton
// changed, so the document that built it has been abandoned.
func (r *SharedRunner) compact() {
	if r.dropped <= 64 || r.dropped <= r.stats.States {
		return
	}
	renumbered := make([]uint32, len(r.sets)) // new id + 1; 0 for a dropped set
	n := 0
	for id, set := range r.sets {
		if set != nil {
			r.sets[n], r.rows[n], r.accepts[n] = set, r.rows[id], r.accepts[id]
			n++
			renumbered[id] = uint32(n)
		}
	}
	clear(r.sets[n:])
	clear(r.rows[n:])
	clear(r.accepts[n:])
	r.sets, r.rows, r.accepts = r.sets[:n], r.rows[:n], r.accepts[:n]
	for _, row := range r.rows {
		for sym, to := range row {
			if to != 0 {
				row[sym] = renumbered[to-1]
			}
		}
	}
	for k, id := range r.index {
		r.index[k] = int(renumbered[id]) - 1
	}
	for s, ids := range r.setsOf {
		live := ids[:0]
		for _, id := range ids {
			if to := renumbered[id]; to != 0 {
				live = append(live, int(to)-1)
			}
		}
		r.keep(s, live)
	}
	r.startID = int(renumbered[r.startID]) - 1
	r.stack = r.stack[:0]
	r.dropped = 0
}

// StartDocument begins a document.
func (r *SharedRunner) StartDocument() {
	r.stack = append(r.stack[:0], r.startID)
}

// StartElementSym processes a startElement event whose name was interned
// by the tokenizer, latching any outputs accepted by the transition.
// Once every output has matched — or every still-live output has, so the
// rest are decided negative — the runner only counts depth (the
// per-subscription monotone early exit, applied to the whole shared
// index). The liveLeft shortcut applies only inside an element (stack
// depth > 1): a start at depth 1 would be a new root, whose subtree the
// live count does not describe, so it is processed in full and recounts.
// Warm transitions touch no map and allocate nothing, and what they latch
// is the entered set's accept list: the trie's states are read once per
// document, for the root element's reach, and not per element.
func (r *SharedRunner) StartElementSym(sym symtab.Sym) {
	if len(r.stack) == 0 || r.left == 0 || (r.liveLeft == 0 && len(r.stack) > 1) {
		r.depth++
		return
	}
	top := r.stack[len(r.stack)-1]
	row := r.rows[top]
	var nextID int
	if int(sym) < len(row) && row[sym] != 0 {
		nextID = int(row[sym]) - 1
	} else {
		nextID = r.intern(r.m.step(r.sets[top], sym))
		row = r.rows[top]
		if int(sym) >= len(row) {
			// Grow only to the symbol actually observed (doubling to
			// amortize), not to the full table: a long-running engine's
			// shared table accumulates every name of every document, and
			// sizing all rows to it would turn the memo into
			// O(states x lifetime names) memory.
			n := int(sym) + 1
			if d := 2 * len(row); d > n {
				n = d
			}
			if n > r.m.tab.Len() {
				n = r.m.tab.Len()
			}
			grown := make([]uint32, n)
			copy(grown, row)
			row = grown
			r.rows[top] = grown
		}
		row[sym] = uint32(nextID) + 1
		r.stats.Transitions++
		r.stats.Materialized++
		r.stats.Symbols = r.m.tab.Len() - 1
	}
	if acc := r.accepts[nextID]; len(acc) > 0 {
		first := r.latch(acc)
		r.left -= first
		r.liveLeft -= first
	}
	r.stack = append(r.stack, nextID)
	if len(r.stack) == 2 {
		// The root element just opened: from here on only its subtree can
		// produce elements, so the outputs reachable from its item set are
		// the only ones still undecided — and every later latch is one of
		// them. (A second root element would break that; the engine refuses
		// one, as the tokenizers do.)
		r.liveLeft = r.m.reach(r.sets[nextID])
	}
	if len(r.stack) > r.stats.PeakStack {
		r.stats.PeakStack = len(r.stack)
	}
}

// EndElement processes an endElement event.
func (r *SharedRunner) EndElement() {
	if r.depth > 0 {
		r.depth--
		return
	}
	if len(r.stack) > 1 {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// Undecided returns the number of outputs whose verdict is still open:
// not yet matched and still reachable by some continuation of the
// document. Before the root element everything unmatched is undecided;
// afterwards, unmatched outputs outside the root item set's reachable
// set are decided negative (no continuation can emit them) and stop
// counting. Zero means a streaming caller may abandon the document —
// the remaining verdicts are final either way.
func (r *SharedRunner) Undecided() int { return r.liveLeft }

// Stats returns the lazy-determinization memory accounting.
func (r *SharedRunner) Stats() DFAStats { return r.stats }
