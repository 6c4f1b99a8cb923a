package engine

import (
	"slices"

	"streamxpath/internal/automaton"
	"streamxpath/internal/bytestr"
	"streamxpath/internal/query"
	"streamxpath/internal/symtab"
	"streamxpath/internal/value"
)

// nodeKind distinguishes the two roles a trie node can play.
type nodeKind uint8

const (
	// kindSpine marks a step of some subscription's root succession, from
	// its first predicated or attribute step on, shared by every
	// subscription continuing the same step by the same canonical step key:
	// reaching one commits its terminals, gated on the predicates on the way.
	kindSpine nodeKind = iota
	// kindPred marks a node inside a predicate subtree. Predicate nodes
	// follow the paper's Section 8 conjunction rule exactly as in
	// internal/core: a candidate scope resolves to a real match iff every
	// child obligation matched, and value-restricted leaves buffer candidate
	// text for truth-set evaluation at endElement — or, compared by
	// textual = or !=, stream it through a cursor (streq.go).
	kindPred
)

// tnode is one node of the shared query index: a location step (spine) or
// a predicate-subtree node, unified across all subscriptions that contain
// a structurally identical step at the same prefix (see query.StepKey). A
// standing set holds one per distinct step, so it holds what every spine
// step needs — 80 bytes — and keeps what only predicates and group members
// need behind x.
type tnode struct {
	// parent is the spine step a spine node continues: nil on a top node (a
	// subscription's first predicated or attribute step) and on predicate
	// nodes. run is the run of a group member's continuation (group.go).
	parent *tnode
	run    *contRun
	// x holds a node's predicate and group-member part: nil on a spine node
	// with no predicate, which is most of them.
	x *nodeExt

	// terminals are the result slots of the subscriptions whose OUT node
	// this spine node is: reaching it (with all predicates on the way
	// satisfied) matches them. A node with neither terminals nor kids is
	// unlinked.
	terminals []int

	// at is the merged NFA's state the node's step enters — on its
	// subscriptions' paths, or Held for a predicate node — whose hold lists
	// the node: among its members or preds, at slot, or, continuing a group
	// member, in that group's run. kids counts a spine node's continuations:
	// with its terminals, what a document has to match below it
	// (tnode.need). key is a spine node's step key, interned in the trie's
	// key table. id is a spine node's entry in the document's latch counts
	// (matcher.latched) — not a leaf's of one terminal, whose count is that
	// terminal's result bit (matcher.owes) — and sid the stack of its open
	// scopes (matcher.open) — an ungrouped spine node's while it opens
	// scopes, an internal predicate node's — -1 where there is none (refit).
	at, kids, key int32
	id, sid, slot int32
	kind          nodeKind
	axis          query.Axis
}

// nodeExt is the part of a trie node that only some carry: a predicated
// spine step's conjunctive children, a group member's constant, and a
// predicate node's place and truth set.
type nodeExt struct {
	// conj are the conjunctive children a candidate resolves: for a spine
	// node, the roots of its predicate subtrees (none on a group member: the
	// group holds the path, mem the constant); for a predicate node, all of
	// its children (predicate children and successor alike).
	conj []*tnode

	// Truth-set machinery for predicate leaves, read off the first
	// subscription's query node (identical canonical steps have identical
	// truth sets): a leaf is restricted when its set is not all strings.
	// The leaf of a predicate group's path is restricted with no set: its
	// value is resolved against the group's constants. strs is set on a
	// restricted leaf compared by textual = or != (ne) — one constant, or a
	// textual equality group's — and its candidates stream their text
	// through a cursor into it instead of buffering it.
	set            query.Set
	strs           *strIndex
	restricted, ne bool

	// up is the stack of open scopes (matcher.open) that holds a predicate
	// node's parent scopes: its spine node's, its group's or its parent
	// predicate node's. pos is its index among its parent's conj, and its
	// obligation's bit among a parent scope's matched bits (obl).
	up, pos int32

	// mem is set (grp non-nil) on a spine node whose one predicate is a
	// comparison of a path's value against a constant: the node is a member
	// of a predicate group (group.go), which evaluates the path once for
	// all its members.
	mem member
}

// conj returns n's conjunctive children (nodeExt.conj).
func (n *tnode) conj() []*tnode {
	if n.x == nil {
		return nil
	}
	return n.x.conj
}

// mem returns the group member spine node n is, nil if it is none.
func (n *tnode) mem() *member {
	if n.x == nil || n.x.mem.grp == nil {
		return nil
	}
	return &n.x.mem
}

// opens reports whether a candidate element for spine node n opens a scope:
// only a step with predicates to resolve, or with continuations whose
// matches it or a predicated ancestor gates, holds state.
func (n *tnode) opens() bool { return n.kids > 0 || len(n.conj()) > 0 }

// need is what a document has to latch below spine node n before n stops
// accepting candidates: its terminals, and its continuations.
func (n *tnode) need() int { return len(n.terminals) + int(n.kids) }

// leafSlot returns the result slot of spine node n's one terminal when n is
// a leaf with no predicate of its own — what a satisfied stretch of its run
// latches it by (latchStretch) — and -1 otherwise.
func (n *tnode) leafSlot() int32 {
	if n.kids > 0 || len(n.terminals) != 1 || len(n.conj()) > 0 {
		return -1
	}
	return int32(n.terminals[0])
}

// scopesOf returns the id of the stack that holds spine node p's open
// scopes — its group's for a group member — or -1 for no node: what a top
// node continues, which is offered once per element entering its state.
func scopesOf(p *tnode) int32 {
	switch {
	case p == nil:
		return -1
	case p.mem() != nil:
		return p.x.mem.grp.sid
	}
	return p.sid
}

// hold is what the trie hangs off one state of the merged NFA: the nodes
// whose steps, predicates ignored, lead to it, by the scope that parents
// them. //catalog/item[priority > 1] and [priority > 2] are two nodes of one
// state — the two members of one predicate group — and the f7 leaves below
// them two nodes of its f7 child: one run, parented by one group scope.
// members are the ungrouped nodes continuing an ungrouped step (parented by
// its scope) or none (top nodes); groups hold the grouped nodes; runs the
// ungrouped continuations of group members, one per group; preds the
// predicate nodes, parented by the scopes on their up stacks. desc says a
// descendant step enters the state.
type hold struct {
	members []*tnode
	groups  []*predGroup
	runs    []*contRun
	preds   []*tnode
	desc    bool
}

// empty reports whether nothing hangs off the hold's state any more.
func (h *hold) empty() bool {
	return len(h.members)+len(h.groups)+len(h.runs)+len(h.preds) == 0
}

// holdOf returns the hold of n's state, making it for the state's first
// node.
func (t *trie) holdOf(n *tnode) *hold {
	if k := int(n.at) + 1 - len(t.holds); k > 0 {
		t.holds = append(t.holds, make([]*hold, k)...)
	}
	if t.holds[n.at] == nil {
		t.holds[n.at] = &hold{desc: n.axis == query.AxisDescendant}
	}
	return t.holds[n.at]
}

// addMember has the hold of n's state hold the ungrouped spine node n:
// among the members, or in the run of the group the step it continues
// belongs to.
func (t *trie) addMember(n *tnode) {
	if p := n.parent; p != nil && p.mem() != nil {
		t.joinRun(n, p.x.mem.grp)
		return
	}
	h := t.holdOf(n)
	n.slot = int32(len(h.members))
	h.members = append(h.members, n)
}

// dropMember undoes addMember.
func (t *trie) dropMember(n *tnode) {
	if n.run != nil {
		t.leaveRun(n)
		return
	}
	h := t.holds[n.at]
	last := h.members[len(h.members)-1]
	h.members[n.slot], last.slot = last, n.slot
	h.members = h.members[:len(h.members)-1]
}

// trie is the compiled index the gated outputs' predicates need: from each
// gated subscription's first predicated or attribute step on, a trie over
// canonical step keys with predicate subtrees hanging off spine nodes, each
// node at a state of the merged NFA. Matching a document reads the trie and
// never writes to it: everything per-document lives on the matcher.
type trie struct {
	nfa *automaton.MergedNFA
	// holds[s] is what hangs off the merged NFA's state s, nil where no
	// node's step enters it. nodes finds every spine node by the node it
	// continues, its state and its step key (nodeKey). live counts the gated
	// subscriptions.
	holds []*hold
	nodes map[nodeKey]*tnode
	live  int
	// ids are the latch counts' (matcher.latched): a spine node's while it
	// has continuations or more than one terminal (refit), and a predicate
	// group's or a run's and their second one (frags) for their extracting
	// terminals. sids are the stacks of open scopes' (matcher.open): an
	// ungrouped spine node's while it opens scopes (refit), a group's and an
	// internal predicate node's. Every engine holds a vector of each, so a
	// leaf of one terminal with no predicate costs it nothing.
	ids, sids idSpace
	// keys interns the spine nodes' step keys, and buf is where Add builds
	// a key to look it up.
	keys      keyTab
	buf       []byte
	predNodes int
}

// nodeKey finds a spine node in trie.nodes: the id of the node it continues
// (-1 for a top node; a node with a continuation has an id), its state and
// its step key's id.
type nodeKey struct {
	parent, at, key int32
}

// nodeKey returns the key n is entered in the trie's nodes under.
func (n *tnode) nodeKey() nodeKey {
	k := nodeKey{parent: -1, at: n.at, key: n.key}
	if n.parent != nil {
		k.parent = n.parent.id
	}
	return k
}

// newTrie returns a trie whose steps are states of nfa.
func newTrie(nfa *automaton.MergedNFA) *trie {
	return &trie{nfa: nfa, nodes: map[nodeKey]*tnode{}, keys: keyTab{ids: map[string]int32{}}}
}

// idSpace hands out small ids, the ones given back first, so that vectors
// indexed by them stay as long as the most owners ever held at once.
type idSpace struct {
	n    int32 // the ids handed out, free ones included
	free []int32
}

func (s *idSpace) take() int32 {
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		return id
	}
	s.n++
	return s.n - 1
}

func (s *idSpace) give(id int32) { s.free = append(s.free, id) }

// keyTab interns step keys: each distinct key is one string and one id,
// counted by the spine nodes that have it and freed with the last.
type keyTab struct {
	ids  map[string]int32
	strs []string // by id; "" on a free one
	refs []int32
	idSpace
}

// find returns the id of key k, -1 if no node has it.
func (kt *keyTab) find(k []byte) int32 {
	if id, ok := kt.ids[string(k)]; ok {
		return id
	}
	return -1
}

// intern returns the id of key k for one more node that has it; a key no
// node has yet costs one string.
func (kt *keyTab) intern(k []byte) int32 {
	if id := kt.find(k); id >= 0 {
		kt.refs[id]++
		return id
	}
	id, s := kt.take(), string(k)
	if int(id) == len(kt.strs) {
		kt.strs, kt.refs = append(kt.strs, ""), append(kt.refs, 0)
	}
	kt.strs[id], kt.refs[id] = s, 1
	kt.ids[s] = id
	return id
}

// release gives back one node's use of key id.
func (kt *keyTab) release(id int32) {
	if kt.refs[id]--; kt.refs[id] == 0 {
		delete(kt.ids, kt.strs[id])
		kt.strs[id] = ""
		kt.give(id)
	}
}

// link and unlink enter spine node n in the trie's nodes as a continuation
// of p, if any, or undo it, with p's continuations — a step that gains its
// first continuation or loses its last takes or gives back a latch id, and
// starts or stops opening scopes (refit). p has an id while n is entered
// under it.
func (t *trie) link(p, n *tnode) {
	if p != nil {
		p.kids++
		t.refit(p)
	}
	t.nodes[n.nodeKey()] = n
}

func (t *trie) unlink(p, n *tnode) {
	delete(t.nodes, n.nodeKey())
	if p != nil {
		p.kids--
		t.refit(p)
	}
}

// refit brings what spine node n holds in line with its continuations and
// terminals after either changed: a latch id while its count is more than
// one terminal's result bit, a stack of open scopes while it opens them —
// with the tally of n's run; a group member's scopes are its group's — and
// its entry in its run.
func (t *trie) refit(n *tnode) {
	switch own := n.kids > 0 || len(n.terminals) > 1; {
	case own && n.id < 0:
		n.id = t.ids.take()
	case !own && n.id >= 0:
		t.ids.give(n.id)
		n.id = -1
	}
	switch own := n.opens() && n.mem() == nil; {
	case own && n.sid < 0:
		n.sid = t.sids.take()
		if n.run != nil {
			n.run.scoped++
		}
	case !own && n.sid >= 0:
		t.sids.give(n.sid)
		n.sid = -1
		if n.run != nil {
			n.run.scoped--
		}
	}
	if r := n.run; r != nil {
		r.nodes[locate(r.nodes, n, &n.parent.x.mem)].slot = n.leafSlot()
	}
}

// ends records d (±1) subscriptions ending at spine node n in what its group
// or run tallies of them: one that wants fragments when extract is set, and
// every match when every is.
func (n *tnode) ends(d int, extract, every bool) {
	var ts *tally
	switch mb := n.mem(); {
	case mb != nil:
		mb.grp.terminals += d
		ts = &mb.grp.tally
	case n.run != nil:
		ts = &n.run.tally
	default:
		return
	}
	if extract {
		ts.extracting += d
	}
	if every {
		ts.every += d
	}
}

// predicateChildren counts u's children that are not its successor.
func predicateChildren(u *query.Node) int {
	if u.Successor != nil {
		return len(u.Children) - 1
	}
	return len(u.Children)
}

// add merges one gated subscription's query, which fragment.Streamable
// accepted and the merged NFA has Added, into the trie, ending it at result
// slot slot, and returns its OUT node: a spine node for each location step
// from the first predicated or attribute step on — the last step when there
// is none (AddEvery); the query has one (Engine.add refuses a query
// without). extract says whether the subscription wants the matched element
// captured, and every whether it wants every element it selects (which
// implies extract). A step some node has already costs no allocation.
func (t *trie) add(q *query.Query, slot int, extract, every bool) *tnode {
	var cur *tnode
	at := 0
	for u := q.Root.Successor; u != nil; u = u.Successor {
		at = t.nfa.Child(at, u.Axis, u.NTest)
		if cur == nil && predicateChildren(u) == 0 && u.Axis != query.AxisAttribute && u.Successor != nil {
			continue
		}
		t.buf = query.AppendStepKey(t.buf[:0], u)
		var child *tnode
		if cur == nil || cur.id >= 0 { // a node with no id has no continuation
			k := nodeKey{parent: -1, at: int32(at), key: t.keys.find(t.buf)}
			if cur != nil {
				k.parent = cur.id
			}
			child = t.nodes[k]
		}
		if child == nil {
			child = &tnode{kind: kindSpine, axis: u.Axis, parent: cur, key: t.keys.intern(t.buf), id: -1, sid: -1, at: int32(at)}
			if preds := u.PredicateChildren(); !t.joinGroup(child, u, preds) {
				if len(preds) > 0 {
					// A predicated step opens scopes from the start (refit).
					child.x, child.sid = &nodeExt{}, t.sids.take()
				}
				for i, pc := range preds {
					child.x.conj = append(child.x.conj, t.buildPred(pc, child.at, child.sid, i))
				}
				t.addMember(child)
			}
			t.link(cur, child)
		}
		cur = child
	}
	cur.terminals = append(cur.terminals, slot)
	cur.ends(1, extract, every)
	t.refit(cur)
	t.live++
	return cur
}

// remove withdraws the subscription holding result slot slot, added with
// the same extract and every, whose OUT node is out, unlinking the spine
// nodes left with neither terminals nor continuations, with their predicate
// subtrees — from the trie's nodes, their state's hold, group or run, and a
// predicate node's Hold — deepest first, so each is a leaf when its turn
// comes, and giving back their scope ids and step keys (their latch ids went
// with their last terminal or continuation: refit). The scan of the OUT
// node's terminals is linear in the subscriptions ending there (duplicates
// of one query). Scopes a document in flight has open go stale; the engine
// abandons it, and matcher.reset drops them unread.
func (t *trie) remove(out *tnode, slot int, extract, every bool) {
	t.live--
	i := slices.Index(out.terminals, slot)
	out.terminals[i] = out.terminals[len(out.terminals)-1]
	out.terminals = out.terminals[:len(out.terminals)-1]
	out.ends(-1, extract, every)
	t.refit(out)
	for n := out; n != nil && n.need() == 0; n = n.parent {
		t.unlink(n.parent, n)
		if n.mem() != nil {
			t.leaveGroup(n)
		} else {
			t.dropMember(n)
			t.dropPreds(n.conj())
		}
		t.unhold(n)
		if n.sid >= 0 {
			t.sids.give(n.sid)
		}
		t.keys.release(n.key)
	}
}

// unhold drops what the trie hangs off node n's state once nothing is left
// there, and gives back a predicate node's hold of its state.
func (t *trie) unhold(n *tnode) {
	if t.holds[n.at].empty() {
		t.holds[n.at] = nil
	}
	if n.kind == kindPred {
		t.nfa.Release(int(n.at))
	}
}

// dropPreds takes predicate subtrees, whose spine node or group is leaving
// the trie, out of their states' holds, deepest first, and gives back their
// stacks' ids.
func (t *trie) dropPreds(nodes []*tnode) {
	for _, n := range nodes {
		t.dropPreds(n.x.conj)
		t.predNodes--
		h := t.holds[n.at]
		last := h.preds[len(h.preds)-1]
		h.preds[n.slot], last.slot = last, n.slot
		h.preds = h.preds[:len(h.preds)-1]
		t.unhold(n)
		if n.sid >= 0 {
			t.sids.give(n.sid)
		}
	}
}

// buildPred compiles one predicate-subtree node, the pos-th conjunctive
// child of the node or group whose step enters state from and whose scopes
// are on stack up, and holds its step from there. Predicate subtrees are
// built once per distinct spine step: a second subscription sharing the
// step (equal StepKey, which covers the whole predicate) reuses the first
// one's subtree, truth sets included.
func (t *trie) buildPred(v *query.Node, from, up int32, pos int) *tnode {
	set, _ := query.TruthSetOf(v) // Streamable found every node's set
	n := &tnode{
		kind: kindPred,
		axis: v.Axis,
		at:   int32(t.nfa.Hold(int(from), v.Axis, v.NTest)),
		id:   -1,
		sid:  -1,
		x:    &nodeExt{set: set, restricted: v.IsLeaf() && !set.IsAll(), up: up, pos: int32(pos)},
	}
	if cmp, ok := query.ComparisonOf(set); ok && n.x.restricted && !cmp.Numeric {
		n.x.strs, n.x.ne = newStrIndex(cmp.Str), cmp.Op == value.OpNe
	}
	t.predNodes++
	h := t.holdOf(n)
	n.slot = int32(len(h.preds))
	h.preds = append(h.preds, n)
	if len(v.Children) > 0 {
		n.sid = t.sids.take()
	}
	for i, c := range v.Children {
		n.x.conj = append(n.x.conj, t.buildPred(c, n.at, n.sid, i))
	}
	return n
}

// metBlock is the least room the matcher's stack of matched bits
// (matcher.met) has, in words. 8 words are 64 bytes, a whole cache line;
// the stack grows by doubling, and the allocator places an object of a
// power-of-two size on that size's boundary, so it fills whole lines. The
// matchers of a pool write their bits from different cores; a smaller
// array could share a line with another matcher's, and each write would
// wait for the other core.
const metBlock = 8

// keptCommits is the room for commits that Reset leaves every free scope it
// keeps, whatever the last document used: 16 commits are 384 bytes, and a
// stream whose documents gate up to that many matches on one scope, or
// none, reuses its scopes' room rather than growing it again per document.
const keptCommits = 16

// obl is one obligation of open scope sc: predicate node n, one of the
// conjunctive children of sc's node or group, awaiting a candidate match
// within the scope, one level below the scope's for a child or attribute
// step — the multi-query generalization of core.Tuple, whose node and level
// the scope fixes. What is left of the tuple is its matched bit, bit
// n.x.pos of the scope's words on the matcher's met stack, which latches
// like core.Tuple.Matched. An unmatched obligation whose node's axis is
// child is parked while a candidate of it is open: no other element can be
// its candidate until that closes (Fig. 20 lines 10-11). It is in no index:
// the merged NFA's states offer n to the element, once per open scope of
// its parent. It is a value; reaching an obligation allocates nothing.
type obl struct {
	sc *scope
	n  *tnode
}

// commit is one conditional match held by a gating scope: subscription
// sub matches if the scope's predicates resolve true — in a group scope, if
// member mem's comparison does — with cap, holding one reference, the
// fragment captured for the matching element (nil without extraction).
// What an element offers a group scope directly is one rangeCommit.
type commit struct {
	sub int
	cap *capture
	mem *tnode
}

// rangeCommit is what one candidate element of a run left undecided in the
// run's group scope, whatever the run's size: the subscriptions ending at
// the predicate-free nodes from from on match if the scope's values come to
// satisfy the member their node continues. In a threshold run the nodes
// before from continue satisfied members and have been delivered, when the
// element started or as the boundary passed them (release). cap is the
// element's capture, holding one reference, when some subscription of the
// run still wanted a fragment.
type rangeCommit struct {
	run  *contRun
	from int
	cap  *capture
}

// scope is an open candidate match of an internal trie node — or of all the
// members of a predicate group at once — generalizing core's scope. origin
// is the scope whose node this one's continues — for a spine scope the next
// scope up the trie-ancestor chain, which is how a commit finds the
// predicate scopes that gate it (an unrelated subscription's open predicate
// scope must not). A scope is on its node's or group's stack of open scopes
// (matcher.open), prev the one below it. Its conjunctive obligations, in
// the order of the node's conj, are unmet of them not matched yet: matching
// is monotone, so the scope's predicate is decided true the moment unmet
// reaches zero (decide), and refuted if the scope closes first. Their
// matched bits are the words of the matcher's met stack from met on, one
// bit per conjunctive child (obl); scopes open and close in stack order, so
// each scope's words top the stack while it is the innermost open.
// commits holds the subscriptions whose match is conditional on this
// scope's predicates (only undecided spine scopes with obligations hold
// commits). cap, when non-nil, is the capture of the scope's own candidate
// element, taken at open time for the node's terminals — they are decided
// only later, after the element's start has streamed past. A closed scope
// waits for reuse on the matcher's free list, linked through prev.
type scope struct {
	node    *tnode
	origin  *scope
	prev    *scope
	commits []commit
	cap     *capture
	// grp is a group scope's part, nil on the others (node is nil on a
	// group scope): a scope of a node holds none of it.
	grp               *groupScope
	level, unmet, met int32
}

// arity returns how many conjunctive children sc's node or group has: one
// for a group, whose one obligation is its path.
func (sc *scope) arity() int {
	if sc.grp != nil {
		return 1
	}
	return len(sc.node.conj())
}

// cand returns the obligation predicate scope sc is a candidate for.
func (sc *scope) cand() obl { return obl{sc: sc.origin, n: sc.node} }

// groupScope is what a group scope holds beyond a scope: its group, the
// conditional matches its runs hold in it (ranges), and what its values have
// decided about its members so far. A closed one waits for reuse on the
// matcher's free list of them, linked through next.
type groupScope struct {
	g      *predGroup
	ranges []rangeCommit
	seen
	next *groupScope
}

// pendingVal is an open candidate of a value-restricted predicate leaf: it
// streams the element's text through cur into the leaf's string index, or
// buffers it from start on in the shared buffer, as core's pending does.
type pendingVal struct {
	ob    obl
	level int
	start int
	cur   cursor
}

// cand is what a state the current element entered offers it below origin,
// an open scope of the parent step: a predicate node (origin's obligation
// to it), a spine node, a predicate group for all its members, or a run for
// all its nodes.
type cand struct {
	node   *tnode
	grp    *predGroup
	run    *contRun
	origin *scope
}

// matchStats instruments the shared matcher; its fields are Stats's and
// MemStats's, which document them. The document-level counters — events,
// depth — are the engine's: the matcher is not dispatched elements while the
// trie holds no subscription.
type matchStats struct {
	TupleVisits     int
	FrontierInserts int
	GroupProbes     int
	PeakLive        int
	PeakTuples      int
	PeakScopes      int
	PeakPendings    int
	PeakBufferBytes int
	PeakGroupBits   int
}

// matcher is the streaming run state over a trie: a stack of candidate
// scopes, holding their obligations, with a stack per node and group of its
// open ones, and pending text buffers; what it decides latches in the engine's
// record (hits). One matcher evaluates every gated subscription in a
// single document pass, reading the item sets its engine's NFA runner
// enters. Scopes are recycled through a free list, trimmed at each reset to
// what the last document held open at once, so steady-state matching
// allocates nothing once the document shapes have been seen.
type matcher struct {
	tr  *trie
	run *automaton.SharedRunner

	// tuples and lone count the open scopes' live obligations — unmatched,
	// and not parked — apart by their scope's arity (track). met is the
	// stack of the open scopes' matched bits, in the order of scopes.
	tuples, lone int
	met          []uint64

	// scopes are the open candidate scopes, ordered by level; open[sid] tops
	// the stack (scope.prev) of the open scopes of the node or group with
	// scope id sid (tnode.sid, predGroup.sid), where a candidate finds its
	// parent scopes.
	scopes   []*scope
	open     []*scope
	pendings []pendingVal
	// buf is the text of the buffering pendings, refCount of them; cursors
	// counts the streamed pendings whose cursors are live.
	buf      []byte
	refCount int
	cursors  int
	// groupBits is the index state the open group scopes and cursors hold
	// (see predGroup.indexBits and strIndex.bits).
	groupBits int

	// hits is the engine's record of the document's verdicts and
	// fragments, where the matcher latches its subscriptions by result slot.
	hits *hits
	// latched counts, by latch id, what the document has latched below each
	// spine node, group and run, from zero: of a node, the subscriptions
	// ending at it and the continuations that latched all they need; of a
	// group, such members; of a run, such nodes; and, by a group's or a
	// run's frags id, its extracting terminals that have a fragment kept.
	// When a count reaches what the owner has (tnode.need, predGroup.size,
	// len(contRun.nodes), tally.extracting) the owner stops accepting
	// candidates, or capturing for them — the per-subscription monotone
	// early exit, applied to shared state. A leaf of one terminal has no
	// count: its terminal's result bit is one (owes). touched lists the ids
	// the document has counted, each once, so that reset clears those alone.
	latched []int32
	touched []int32

	// Fragment-extraction state: cm is the engine's capture manager, whose
	// mode says whether the document captures at all. capCommits counts
	// outstanding capture holds in commit entries and scope caps: while
	// nonzero, an early exit could miss a better (earlier) fragment, so
	// Decided stays false.
	cm         *capman
	capCommits int

	held  []*hold // scratch, reused across startElement calls
	cands []cand  // scratch, likewise
	attrs []int   // scratch, likewise
	// freeScopes and freeGroups are the closed scopes and group parts kept
	// for reuse, linked through scope.prev and groupScope.next. commitPeak
	// is the most commits one scope of the document has held.
	freeScopes *scope
	freeGroups *groupScope
	commitPeak int
	stats      matchStats
}

func newMatcher(t *trie, run *automaton.SharedRunner, h *hits) *matcher {
	m := &matcher{tr: t, run: run, hits: h}
	m.reset()
	return m
}

// reset prepares the matcher for the next document. What it clears is what
// the last document touched — the latch counts it raised, the scopes it left
// open — not what the index holds: the latch vector is never cleared whole,
// only extended to the ids the trie has handed out since. The free scopes
// are trimmed to the most the last document held open at once, and the
// commits they have room for to twice the most one of its scopes held —
// the slack of append's doubling — or keptCommits, if more, so an engine
// holds its documents' working state, not the largest it ever met.
func (m *matcher) reset() {
	m.tuples, m.lone = 0, 0
	for _, id := range m.touched {
		m.latched[id] = 0
	}
	m.touched = m.touched[:0]
	if k := int(m.tr.ids.n) - len(m.latched); k > 0 {
		m.latched = append(m.latched, make([]int32, k)...)
	}
	if n := int(m.tr.sids.n); len(m.open) != n {
		m.open = make([]*scope, n)
	} else if len(m.scopes) > 0 {
		clear(m.open) // a document abandoned mid-stream left scopes open
	}
	// A group scope is a scope too, so neither list keeps more than the
	// last document held open at once.
	keep := m.stats.PeakScopes
	sc := &m.freeScopes
	for k := 0; k < keep && *sc != nil; k++ {
		if cap((*sc).commits) > max(2*m.commitPeak, keptCommits) {
			(*sc).commits = nil
		}
		sc = &(*sc).prev
	}
	*sc = nil
	gs := &m.freeGroups
	for k := 0; k < keep && *gs != nil; k++ {
		gs = &(*gs).next
	}
	*gs = nil
	// The scratch stacks' spare capacity still points at scopes, which would
	// keep the trimmed ones alive.
	clear(m.scopes[:cap(m.scopes)])
	clear(m.cands[:cap(m.cands)])
	clear(m.pendings[:cap(m.pendings)])
	m.scopes = m.scopes[:0]
	m.met = m.met[:0]
	m.pendings = m.pendings[:0]
	m.buf = m.buf[:0]
	m.refCount, m.cursors = 0, 0
	m.groupBits = 0
	m.capCommits, m.commitPeak = 0, 0
	m.stats = matchStats{}
}

// count adds k to the latch count of owner id, listing id among the touched
// the first time the document counts it, and returns the new count.
func (m *matcher) count(id, k int32) int32 {
	c := m.latched[id]
	if c == 0 {
		m.touched = append(m.touched, id)
	}
	c += k
	m.latched[id] = c
	return c
}

// left reports whether the owner of id has latched less than need.
func (m *matcher) left(id int32, need int) bool { return m.latched[id] < int32(need) }

// owes reports whether spine node n has latched less than it needs. A leaf
// of one terminal, which has no latch id, owes until that terminal latches
// — for ever, if it is an every-match subscription, which counts nothing.
func (m *matcher) owes(n *tnode) bool {
	if n.id >= 0 {
		return m.left(n.id, n.need())
	}
	s := &m.hits.ix.subs[n.terminals[0]]
	return s.every || !m.hits.has(s)
}

// entered gathers the holds of the states of items that the element entered
// by their own step. items lists a state before the states below it, and so
// do the holds, so that a candidate is processed before any it is a step
// of, whose match could retire it first.
func (m *matcher) entered(items []int) {
	m.held = m.held[:0]
	for _, it := range items {
		if s, fresh := automaton.Fresh(it); fresh && s < len(m.tr.holds) && m.tr.holds[s] != nil {
			m.held = append(m.held, m.tr.holds[s])
		}
	}
}

// collectPreds gathers the predicate nodes the entered states hold, once per
// open scope that parents a candidate: every open scope of the parent node
// (or group) below a descendant step, the parent element's below any other.
// A scope whose obligation to the node has matched is skipped uncounted.
func (m *matcher) collectPreds(elemLevel int) {
	m.cands = m.cands[:0]
	for _, h := range m.held {
		for _, n := range h.preds {
			m.offer(cand{node: n}, n.x.up, h.desc, elemLevel)
		}
	}
}

// collectSpine gathers what the entered states hold of the spine — the
// members, the groups and the runs — likewise, or once when they are top
// nodes. One whose subscriptions have all matched is skipped uncounted —
// the shared form of the monotone early exit.
func (m *matcher) collectSpine(elemLevel int) {
	m.cands = m.cands[:0]
	for _, h := range m.held {
		for _, n := range h.members {
			if m.owes(n) {
				m.offer(cand{node: n}, scopesOf(n.parent), h.desc, elemLevel)
			}
		}
		for _, g := range h.groups {
			if m.left(g.id, g.size) {
				m.offer(cand{grp: g}, scopesOf(g.parent), h.desc, elemLevel)
			}
		}
		for _, r := range h.runs {
			if m.left(r.id, len(r.nodes)) {
				m.offer(cand{run: r}, r.grp.sid, h.desc, elemLevel)
			}
		}
	}
}

// offer gathers candidate c below each open scope of the node or group with
// id parent that parents it, the outermost first — or, when parent is
// -1 (c is a top node), once, below none: the element entered c's state by
// its own step, so it matched the predicate-free path above.
func (m *matcher) offer(c cand, parent int32, desc bool, elemLevel int) {
	if parent < 0 {
		m.stats.TupleVisits++
		m.cands = append(m.cands, c)
		return
	}
	from := len(m.cands)
	for sc := m.open[parent]; sc != nil && (desc || int(sc.level) == elemLevel-1); sc = sc.prev {
		if n := c.node; n != nil && n.kind == kindPred && m.matched(obl{sc, n}) {
			continue
		}
		m.stats.TupleVisits++
		c.origin = sc
		m.cands = append(m.cands, c)
	}
	slices.Reverse(m.cands[from:])
}

// startElementSym offers the element, at level elemLevel, to what the states
// it entered hold — an attribute's are looked up below its element's, as it
// enters none. The predicate nodes come first: leaves start buffering or
// match on existence, internal nodes open candidate scopes (a child-axis
// owner is parked for the scope's duration, as in core). Then the spine:
// reached terminals commit their subscriptions and internal nodes open
// candidate scopes. Each is collected before it is processed: opening
// scopes pushes them on the stacks candidates are found on, and this
// element's own must not be offered it.
func (m *matcher) startElementSym(sym symtab.Sym, isAttr bool, elemLevel int) {
	items := m.run.Entered()
	if isAttr {
		m.attrs = m.run.Attribute(sym, m.attrs[:0])
		items = m.attrs
	}
	m.entered(items)
	if m.tuples+m.lone > 0 {
		// (Zero: every obligation has matched or is parked below its own
		// open candidate, so no predicate node has a candidate.)
		m.collectPreds(elemLevel)
		for _, c := range m.cands {
			m.startPred(obl{c.origin, c.node}, elemLevel)
		}
	}
	m.collectSpine(elemLevel)
	for _, c := range m.cands {
		switch {
		case c.run != nil:
			m.startRun(c.run, c.origin, elemLevel)
		case c.grp != nil:
			if m.left(c.grp.id, c.grp.size) {
				m.openGroup(c.grp, c.origin, elemLevel)
			}
		case m.owes(c.node):
			// (None left: an earlier candidate of this same element already
			// satisfied every subscription this step serves.)
			n := c.node
			// A terminal whose own step carries no predicates commits now, gated
			// only by ancestor scopes (its continuations serve other
			// subscriptions); with predicates the commit waits for the scope's
			// predicates to be decided.
			if len(n.conj()) == 0 && len(n.terminals) > 0 {
				s, mem := m.gate(c.origin, n.parent)
				m.routeCaptured(n.terminals, s, mem)
			}
			if n.opens() {
				m.openScope(n, c.origin, elemLevel)
			}
		}
	}
	m.notePeak()
}

// startPred offers the current element to obligation o in an open scope.
// An earlier candidate of the element may have matched o already, which
// leaves nothing to do. A child-axis obligation parks behind its candidate
// — an internal node's scope or a restricted leaf's pending — while that is
// open: no sibling can be a candidate meanwhile (Fig. 20 lines 10-11). (An
// existence leaf's parks and matches at once.)
func (m *matcher) startPred(o obl, level int) {
	if m.matched(o) {
		return
	}
	n := o.n
	if n.axis == query.AxisChild {
		m.track(o.sc.arity(), -1)
	}
	switch x := n.x; {
	case len(x.conj) > 0:
		m.openScope(n, o.sc, level)
	case x.restricted:
		p := pendingVal{ob: o, level: level, start: len(m.buf)}
		if ix := x.strs; ix != nil {
			p.cur = cursor{ix: ix, hi: len(ix.bks)}
			m.cursors++
			m.noteGroupBits(ix.bits())
		} else {
			m.refCount++
		}
		m.pendings = append(m.pendings, p)
		if len(m.pendings) > m.stats.PeakPendings {
			m.stats.PeakPendings = len(m.pendings)
		}
	default:
		m.satisfy(o)
	}
}

// startRun offers the current element to run r below sc, an open scope of
// its group. What the scope's values have decided so far splits the run: the
// subscriptions ending at nodes that continue a satisfied member are
// delivered to what gates the group itself; the rest wait in the scope as
// one range commit. A node with predicates or continuations of its own opens
// its scope below the group's. A threshold run is split by one search, and
// with no scope to open nothing past the split is looked at; a satisfied
// stretch that nothing gates or captures latches its leaves of one terminal
// in one pass (latchStretch), and the loop routes its other nodes.
func (m *matcher) startRun(r *contRun, sc *scope, level int) {
	g := r.grp
	p, q := sc.split(r)
	up, mem := m.gate(sc.origin, g.parent)
	stretch := up == nil && (m.cm.mode == CaptureOff || !m.left(r.frags, r.extracting))
	if stretch {
		m.latchStretch(r, 0, p)
	}
	held := q < len(r.nodes)
	end := q
	if r.scoped > 0 {
		end = len(r.nodes)
	}
	for i := 0; i < end; i++ {
		if stretch && i < p && r.nodes[i].slot >= 0 {
			continue
		}
		n := r.nodes[i].n
		if !m.owes(n) {
			continue
		}
		if len(n.conj()) == 0 {
			if i < p || (i < q && sc.satisfied(n.parent)) {
				m.routeCaptured(n.terminals, up, mem)
			} else {
				held = true
			}
		}
		if n.opens() {
			m.openScope(n, sc, level)
		}
	}
	if !held || !m.left(r.id, len(r.nodes)) {
		return
	}
	rc := rangeCommit{run: r, from: p}
	if m.cm.mode != CaptureOff && m.left(r.frags, r.extracting) {
		rc.cap = m.cm.elemCapture(r.every > 0)
		m.capCommits++
	}
	sc.grp.ranges = append(sc.grp.ranges, rc)
}

// openScope opens a candidate scope for node n — of a predicate obligation,
// origin's to n, or of a spine step — holding an obligation for each of n's
// conjunctive children. The scope goes on n's stack of open ones, where the
// candidates of its children and continuations find it.
func (m *matcher) openScope(n *tnode, origin *scope, level int) {
	conj := n.conj()
	sc := m.pushScope(origin, level, conj)
	sc.node = n
	sc.prev, m.open[n.sid] = m.open[n.sid], sc
	if n.kind == kindPred {
		return
	}
	if len(conj) > 0 && len(n.terminals) > 0 {
		// The node's own terminals are decided only with this scope's
		// predicates; if any of them wants the element, capture it now,
		// while its start event is current.
		if c := m.hits.capFor(n.terminals); c != nil {
			sc.cap = c
			m.capCommits++
		}
	}
}

// pushScope takes a scope off the free list (or allocates one) and opens it
// below origin at level, with a live obligation for each of the conjunctive
// children conj: a word of unmatched bits per 64 of them, pushed on the met
// stack.
func (m *matcher) pushScope(origin *scope, level int, conj []*tnode) *scope {
	sc := m.freeScopes
	if sc != nil {
		m.freeScopes, sc.prev = sc.prev, nil
	} else {
		sc = &scope{}
	}
	k := len(conj)
	sc.origin, sc.level, sc.unmet, sc.met = origin, int32(level), int32(k), int32(len(m.met))
	top := len(m.met) + (k+63)/64
	if top > cap(m.met) {
		c := max(cap(m.met), metBlock)
		for c < top {
			c *= 2
		}
		m.met = append(make([]uint64, 0, c), m.met...)
	}
	m.met = m.met[:top]
	clear(m.met[sc.met:])
	m.track(k, k)
	m.stats.FrontierInserts += k + 1
	m.scopes = append(m.scopes, sc)
	if len(m.scopes) > m.stats.PeakScopes {
		m.stats.PeakScopes = len(m.scopes)
	}
	return sc
}

// textBytes appends character data to the shared buffer if any buffering
// leaf candidate (of any subscription) is consuming it — the text is
// buffered once no matter how many subscriptions wait on it — and moves
// every live cursor past it.
func (m *matcher) textBytes(data []byte) {
	if m.refCount > 0 {
		m.buf = append(m.buf, data...)
		if len(m.buf) > m.stats.PeakBufferBytes {
			m.stats.PeakBufferBytes = len(m.buf)
		}
	}
	if m.cursors > 0 {
		m.advanceCursors(data)
	}
}

// advanceCursors moves every live cursor past data. A cursor no constant
// continues dies: its candidate is refuted for =, and for != satisfied
// there and then.
func (m *matcher) advanceCursors(data []byte) {
	for i := range m.pendings {
		p := &m.pendings[i]
		if !p.cur.live() {
			continue
		}
		if m.matched(p.ob) {
			p.cur.hi = p.cur.lo // decided already: stop reading
		} else if p.cur.advance(data) {
			continue
		} else if p.ob.n.x.ne {
			m.satisfy(p.ob)
		}
		m.cursors--
	}
}

// text is buffering candidate p's text: a view valid until the buffer is
// next written.
func (m *matcher) text(p *pendingVal) string { return bytestr.String(m.buf[p.start:]) }

// dropPending gives back what closed or evicted candidate p held: its
// cursor, or its claim on the buffer.
func (m *matcher) dropPending(p *pendingVal) {
	ix := p.cur.ix
	if ix == nil {
		if m.refCount--; m.refCount == 0 {
			m.buf = m.buf[:0]
		}
		return
	}
	if p.cur.live() {
		m.cursors--
	}
	m.noteGroupBits(-ix.bits())
}

// endElement resolves the pending leaf candidates and closes the candidate
// scopes of the closing element's level, innermost first (they form
// suffixes of their stacks, as in core). A streamed candidate's
// value is the constant its cursor ends on, if any. Buffered candidate text
// is evaluated through a zero-copy view — predicates only see a string for
// the duration of the Contains call — and parsed as a number at most once,
// however many predicate groups are pending on it.
func (m *matcher) endElement(closing int) {
	var parsed parsedText
	// The closing candidates' cursors are given back before any group hit
	// takes its bits, so that the peak does not depend on their order.
	for k := len(m.pendings); k > 0 && m.pendings[k-1].level == closing; k-- {
		if p := &m.pendings[k-1]; p.cur.ix != nil {
			m.dropPending(p)
		}
	}
	for k := len(m.pendings); k > 0 && m.pendings[k-1].level == closing; k-- {
		// Resolving a candidate opens none: p stays put.
		p := &m.pendings[k-1]
		m.pendings = m.pendings[:k-1]
		if o := p.ob; !m.matched(o) {
			// Every pending of this level read the closing element's text.
			switch x := o.n.x; {
			case x.set == nil:
				m.probe(p, &parsed)
			case p.cur.ix != nil:
				if (p.cur.exact() != nil) != x.ne {
					m.satisfy(o)
				}
			case x.set.Contains(m.text(p)):
				m.satisfy(o)
			}
		}
		if p.cur.ix == nil {
			m.dropPending(p)
		}
		m.unpark(p.ob)
	}
	for len(m.scopes) > 0 {
		sc := m.scopes[len(m.scopes)-1]
		if int(sc.level) != closing {
			break
		}
		m.scopes = m.scopes[:len(m.scopes)-1]
		m.closeScope(sc)
	}
}

// satisfy latches predicate obligation o: an element matched it.
// Conjunctive matching is monotone (Section 8.1), so when o is the last of
// its scope's obligations to match, the scope's predicate is decided there
// and then (decide) rather than when the scope closes. A group scope's
// members are decided by its values instead (release).
func (m *matcher) satisfy(o obl) {
	w, b := m.bit(o)
	if *w&b != 0 {
		return
	}
	*w |= b
	if o.n.axis != query.AxisChild {
		m.track(o.sc.arity(), -1) // (a parked one is not live)
	}
	sc := o.sc
	if sc.unmet--; sc.unmet == 0 && sc.grp == nil {
		m.decide(sc)
	}
}

// decide acts on a scope whose predicate has just been decided true. A
// predicate scope's candidate element matches its obligation. A spine scope
// routes what it holds through gate at once — its commits, and its node's
// own terminals with the element's capture — and from then on gates
// nothing: later matches below it pass straight up.
func (m *matcher) decide(sc *scope) {
	n := sc.node
	if n.kind == kindPred {
		m.satisfy(sc.cand())
		return
	}
	up, mem := m.gate(sc.origin, n.parent)
	for _, c := range sc.commits {
		m.routeEntry(c.sub, c.cap, up, mem)
		m.dropCommitCap(c.cap)
	}
	sc.commits = sc.commits[:0]
	m.route(n.terminals, sc.cap, up, mem)
	m.dropCommitCap(sc.cap)
	sc.cap = nil
}

// closeScope retires a candidate scope, its obligations and whatever it
// still holds. A decided scope has routed everything already; an undecided
// one is refuted, and its conditional matches die with their capture holds —
// as do those of a group scope's members its values never satisfied. The
// scope leaves the top of its stack, its words the top of the met stack,
// and a parked child-axis owner is live again for sibling candidates
// (unpark). The scope returns to the free list (its obligations' candidates
// closed at deeper levels already, so all its unmatched obligations are
// live).
func (m *matcher) closeScope(sc *scope) {
	m.track(sc.arity(), -int(sc.unmet))
	m.met = m.met[:sc.met]
	for _, c := range sc.commits {
		m.dropCommitCap(c.cap)
	}
	gs := sc.grp
	if gs != nil {
		for _, rc := range gs.ranges {
			m.dropCommitCap(rc.cap)
		}
	}
	m.dropCommitCap(sc.cap)
	if gs != nil {
		m.noteGroupBits(-(1 + len(gs.hits)) * gs.g.indexBits())
		m.open[gs.g.sid] = sc.prev
		*gs = groupScope{ranges: gs.ranges[:0], seen: seen{hits: gs.hits[:0]}, next: m.freeGroups}
		m.freeGroups = gs
	} else {
		m.open[sc.node.sid] = sc.prev
		if sc.node.kind == kindPred {
			m.unpark(sc.cand())
		}
	}
	*sc = scope{commits: sc.commits[:0], prev: m.freeScopes}
	m.freeScopes = sc
}

// unpark makes obligation o, whose candidate has just closed, live again
// for its siblings (Fig. 21 lines 23-27) if it parked — a child-axis one did
// — unless it has matched: the bit latches, so it can never accept another.
func (m *matcher) unpark(o obl) {
	if o.n.axis == query.AxisChild && !m.matched(o) {
		m.track(o.sc.arity(), 1)
	}
}

// bit returns the word of the met stack that holds obligation o's matched
// bit, and the bit.
func (m *matcher) bit(o obl) (*uint64, uint64) {
	pos := o.n.x.pos
	return &m.met[o.sc.met+pos>>6], 1 << (pos & 63)
}

// matched reports whether obligation o has matched.
func (m *matcher) matched(o obl) bool {
	w, b := m.bit(o)
	return *w&b != 0
}

// gate returns the nearest scope up the trie-ancestor chain from from whose
// predicates are still undecided for a match arriving through at — the
// spine node from is a scope of, which in a group scope names the member —
// or nil when the match is final. A decided scope, like a group scope's
// satisfied member, is as good as closed: the match passes straight up.
func (m *matcher) gate(from *scope, at *tnode) (*scope, *tnode) {
	for s := from; s != nil; s, at = s.origin, at.parent {
		if s.grp != nil {
			if !s.satisfied(at) {
				return s, at
			}
		} else if s.unmet > 0 {
			return s, nil
		}
	}
	return nil, nil
}

// route delivers matched subscriptions to gate (s, mem) — what gate returned
// for the scope they come from: the nearest trie-ancestor scope whose
// predicates are still unresolved holds them as commits; with none open
// (s nil) the matches are final and latch globally (counting up the latch
// counts that drive the shared early exit). A closing scope, or
// a run offered an element, gates everything it delivers alike and asks
// once. cap, when non-nil, is the fragment captured for the matching element;
// commit entries for extraction-enabled subscriptions take a reference each.
func (m *matcher) route(outs []int, cap *capture, s *scope, mem *tnode) {
	if s == nil {
		for _, sub := range outs {
			m.latch(sub, cap)
		}
		return
	}
	for _, sub := range outs {
		c := cap
		if c != nil && !m.hits.ix.subs[sub].extract {
			c = nil
		}
		m.routeEntry(sub, c, s, mem)
	}
}

// routeCaptured is route for terminals reached at the current element's
// startElement: it starts (or joins) the element's capture when some
// terminal wants a fragment.
func (m *matcher) routeCaptured(outs []int, s *scope, mem *tnode) {
	cap := m.hits.capFor(outs)
	m.route(outs, cap, s, mem)
	if cap != nil {
		m.cm.release(cap) // route took its own holds
	}
}

// routeEntry routes one match — a resolved commit going one gating scope up,
// or a fresh one — to gate (s, mem), taking a capture hold of its own; a
// caller passing on a commit still owns, and must drop, that entry's hold.
func (m *matcher) routeEntry(sub int, cap *capture, s *scope, mem *tnode) {
	if s == nil {
		m.latch(sub, cap)
		return
	}
	if cap != nil {
		cap.refs++
		m.capCommits++
	}
	s.commits = append(s.commits, commit{sub: sub, cap: cap, mem: mem})
	m.commitPeak = max(m.commitPeak, len(s.commits))
}

// latch finalizes a subscription's match in the engine's record (hits.latch,
// which keeps the document-order-first fragment) and, the first time,
// counts it out of the runner and into what has latched below its OUT node —
// and, once the node has latched all it needs, into what that node is a part
// of (finished). The first fragment kept counts into its group's or run's
// frags. An every-match subscription counts nothing, so nothing prunes its
// later matches.
func (m *matcher) latch(sub int, cap *capture) {
	first, captured := m.hits.latch(sub, cap)
	s := &m.hits.ix.subs[sub]
	out := s.out
	if mb := out.mem(); captured && mb != nil {
		m.count(mb.grp.frags, 1)
	} else if captured && out.run != nil {
		m.count(out.run.frags, 1)
	}
	if !first || s.every {
		return
	}
	m.run.Latched(int(out.at), 1)
	if out.id >= 0 { // (a leaf of one terminal has latched all it needs)
		if m.count(out.id, 1) < int32(out.need()) {
			return
		}
	}
	m.finished(out)
}

// finished counts spine node n, which has just latched all it needs, into
// its group or run and into the step it continues, and so on up while each
// step it reaches has latched all it needs in turn.
func (m *matcher) finished(n *tnode) {
	for {
		if mb := n.mem(); mb != nil {
			m.count(mb.grp.id, 1)
		} else if n.run != nil {
			m.count(n.run.id, 1)
		}
		if n = n.parent; n == nil {
			return
		}
		if m.count(n.id, 1) < int32(n.need()) {
			return
		}
	}
}

// latchStretch latches the leaves of one terminal among nodes [from, to) of
// threshold run r — nodes that continue satisfied members, with nothing
// gating or capturing what they deliver — off their entries alone, as
// latch would one by one: it sets the result bits not set yet, counts each
// such leaf into the member it continues, and the lot into the run and,
// once, out of the runner, as the run's nodes share its state. The
// stretch's other nodes are the caller's.
func (m *matcher) latchStretch(r *contRun, from, to int) {
	h, k := m.hits, 0
	for i := from; i < to; i++ {
		e := &r.nodes[i]
		if e.slot < 0 {
			continue
		}
		if s := &h.ix.subs[e.slot]; !h.mark(s) || s.every {
			continue
		}
		k++
		mb := e.mem
		if m.count(mb.id, 1) >= int32(mb.need()) {
			m.finished(mb)
		}
	}
	if k > 0 {
		m.count(r.id, int32(k))
		m.run.Latched(int(r.at), k)
	}
}

// dropCommitCap drops a commit entry's (or scope's) capture hold.
func (m *matcher) dropCommitCap(cap *capture) {
	if cap != nil {
		m.capCommits--
		m.cm.release(cap)
	}
}

// track adds d to the live obligations of a scope of k conjunctive
// children. Two or more are the paper's tuples, which live(), PeakTuples
// and EstimatedBits count; a lone one — every group scope's, and a node's
// with one conjunctive child — is paid for by its scope, and lone counts it
// only so that collectPreds knows it is there.
func (m *matcher) track(k, d int) {
	if k < 2 {
		m.lone += d
		return
	}
	m.tuples += d
	if m.tuples > m.stats.PeakTuples {
		m.stats.PeakTuples = m.tuples
	}
}

// live returns the matcher's live-state count: live tuples, open candidate
// scopes, and pending leaf candidates, buffering or streamed. A scope's lone
// obligation is paid for by the scope, which counts once. This is what the
// MaxLiveTuples budget measures (plus the NFA runner's depth term, added by
// the engine).
func (m *matcher) live() int {
	return m.tuples + len(m.scopes) + len(m.pendings)
}

// notePeak records the live-state count after a start event, the only
// events at which it grows: an end event closes candidates, and an
// obligation it unparks takes the place of the candidate it parked behind.
func (m *matcher) notePeak() {
	m.stats.PeakLive = max(m.stats.PeakLive, m.live())
}

// evictDead sweeps out the pending leaf candidates whose obligation already
// matched: they stop buffering or streaming. A matched obligation stops
// counting the moment it matches; a dead pending is only noticed at its element's
// end, so this sweep backs the live-tuple budget check, which must not
// declare a breach on account of state that is already dead.
func (m *matcher) evictDead() {
	// Compact matched pendings in place. Order is preserved, so the
	// level-suffix invariant endElement pops by survives; buffered bytes
	// are only reclaimed when the last consumer goes, since earlier
	// pendings' start offsets index into the shared buffer.
	out := m.pendings[:0]
	for i := range m.pendings {
		if p := &m.pendings[i]; m.matched(p.ob) {
			m.dropPending(p)
			continue
		}
		out = append(out, m.pendings[i])
	}
	m.pendings = out
}

// endDocument closes every remaining scope bottom-up; afterwards the
// engine's record holds the final per-subscription verdicts.
func (m *matcher) endDocument() {
	for len(m.scopes) > 0 {
		sc := m.scopes[len(m.scopes)-1]
		m.scopes = m.scopes[:len(m.scopes)-1]
		m.closeScope(sc)
	}
}
