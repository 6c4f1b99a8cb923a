package engine

import (
	"math/bits"
	"slices"

	"streamxpath/internal/query"
	"streamxpath/internal/value"
)

// Predicate groups. Subscribers to one step very often differ only in a
// constant — //catalog/item[priority > 3], [priority > 4], … — the
// selective-dissemination shape that XPush and YFilter index by predicate
// value. Spine nodes that continue the same step, carry the same node test
// and have as their only predicate one comparison of the same relative path
// against a constant, with operators of one class, are the members of one
// predicate group. An element that is a candidate for them opens ONE scope,
// whose one obligation, the path, is the scope itself (a scope more per
// inner step of the path), and one pending text value; a value is parsed
// once and resolved against every member by one search over the group's
// constants. What the scope holds is the outcome of those searches — for
// thresholds a single index, the boundary between the members the values
// seen so far satisfy and the rest — so the matcher holds one scope per
// group where the Section 8 algorithm holds a tuple per subscriber, and
// Theorem 8.8's per-entry charge falls with it. The path's steps are held
// states of the merged NFA below the members' state, one for the group.
//
// The continuations of a group's members are indexed the same way. The
// ungrouped steps that continue members of one group into one state of the
// merged NFA — the f7 of …/item[priority > 3]/f7, of …[priority > 4]/f7, …
// — are one run, kept in the order of the members they continue. An f7 element
// below an open group scope costs one probe of the scope and one search
// against its boundary: the nodes before it continue satisfied members and
// their subscriptions pass the group at once, the rest wait in the scope as
// one range commit, released stretch by stretch as the boundary moves. The
// search reads the members' keys, never the run's nodes, and a satisfied
// stretch that nothing gates or captures never reads its leaves of one
// terminal either: each is a result slot in the run's entry for it, set in
// one pass that counts each into its member, the stretch into the run, and
// the stretch out of the runner at once (latchStretch). Gated or capturing
// stretches, and nodes with more than one terminal, or predicates or
// continuations of their own, are routed node by node.
//
// A group of one runs the same code as a group of ten thousand; predicates
// of any other shape (conjunctions, branching paths, string functions,
// textual !=) keep a scope and a predicate subtree per node.
//
// A textual equality group's values are not held at all: its constants are
// a sorted strIndex, and a candidate value streams through a cursor into
// them (streq.go), which names the one constant it equals when the
// candidate closes.

// groupClass is the operator class of a group: what its members' constants
// are indexed by.
type groupClass uint8

const (
	// classThreshold: > and >=, or < and <= (over negated values, so that
	// both read "the running maximum passes the constant"). The members are
	// sorted by constant; those a value satisfies are a prefix.
	classThreshold groupClass = iota
	// classNumEq: numeric = and !=, hashed by constant.
	classNumEq
	// classStrEq: textual =, sorted by constant and streamed.
	classStrEq
)

// predGroup is one predicate group: the members, indexed by constant, and
// the predicate path they share.
type predGroup struct {
	// parent is the step the members continue — a group scope's origin is
	// parent's scope; nil for a group of top nodes, whose scope has no
	// origin — and key, with parent, finds the group in its state's hold.
	// sid names the group's stack of open scopes (matcher.open), id its
	// latch count (matcher.latched), against its size, and frags its latch
	// count of fragments kept, against tally.extracting.
	parent         *tnode
	key            string
	sid, id, frags int32

	class groupClass
	neg   bool // classThreshold over negated values: the group of < and <=
	// conj is the head of the shared predicate path, the one conjunctive
	// child of a group scope; its leaf is restricted and has no truth set.
	conj []*tnode

	// sorted are a threshold group's members by ascending (constant,
	// strictness), one entry each. num or strs hold an equality group's
	// constants, and ne its != members. size counts the members.
	sorted []entry
	num    map[float64]*eqBucket
	strs   strIndex
	ne     []*tnode
	size   int

	// terminals counts the subscriptions ending at a member, and tally the
	// extracting and every-match ones among them.
	terminals int
	tally
}

// tally counts the subscriptions ending at a group's member, or at a run's
// node, that want more than a verdict: extracting those that want fragments
// (every-match ones included), every the every-match ones.
type tally struct {
	extracting, every int
}

// contRun is a run of continuations: the ungrouped spine nodes of one state,
// at, that continue members of one predicate group, which are the steps a
// candidate element of which is parented by that group's scope.
type contRun struct {
	grp *predGroup
	// nodes are the run's nodes, one entry each, kept by the trie's
	// mutations (joinRun, leaveRun, refit) and only read by matching. They
	// are ordered by the member they continue, as grp.sorted orders the
	// members, so that a threshold scope's boundary splits them by one search;
	// in an equality group every member has the same key and the order is
	// that of arrival. scoped counts the nodes a candidate opens a scope for
	// (tnode.opens, which give them a stack: refit); id and frags are its
	// latch counts, as a group's are, against its nodes and tally.extracting.
	nodes     []entry
	scoped    int
	at        int32
	id, frags int32
	tally
}

// entry is one of a threshold group's members, or of a run's nodes, n, kept
// in the order of the key of mem — the member itself, or the one the run's
// node continues — which a search reads off mem, one of the group's few
// members, never off n. slot is, on a run's node that is a leaf with one
// terminal and no predicate of its own (leafSlot), that terminal's result
// slot, all that a satisfied stretch latches it by; -1 on any other node,
// and on a member.
type entry struct {
	n, mem *tnode
	slot   int32
}

// member is a grouped spine node's own part of its predicate: the constant
// the group's path is compared against.
type member struct {
	grp *predGroup
	// In a threshold group a value v satisfies the member iff c < v, or
	// c == v and the comparison is not strict (c is negated with v in a <
	// group).
	c      float64
	strict bool
	// In an equality group the member is satisfied by its bucket's constant
	// (=), or by any other numeric value (!=, with nePos its position in
	// the group's ne).
	bucket *eqBucket
	ne     bool
	nePos  int
}

// eqBucket is one constant of an equality group: the = members comparing
// against it, and how many != members do. An ungrouped textual comparison's
// one constant is a bucket with no members (newStrIndex).
type eqBucket struct {
	num float64
	str string
	eq  []*tnode
	ne  int
}

// groupOf classifies a comparison: the operator class that indexes its
// constant, whether values are negated first, and the tag that tells the
// classes of one path apart in a group key. ok is false for a textual !=,
// which no index by constant helps: every value but one satisfies it.
func groupOf(cmp query.Comparison) (class groupClass, neg bool, tag string, ok bool) {
	switch {
	case !cmp.Numeric:
		return classStrEq, false, `"`, cmp.Op == value.OpEq
	case cmp.Op == value.OpGt || cmp.Op == value.OpGe:
		return classThreshold, false, ">", true
	case cmp.Op == value.OpLt || cmp.Op == value.OpLe:
		return classThreshold, true, "<", true
	}
	return classNumEq, false, "=", true
}

// joinGroup makes spine node n, newly placed at its state, a member of the
// predicate group its predicate belongs to, creating the group for
// its first member; it reports false, having done nothing, for a predicate
// no group evaluates. u is n's query node, and preds its predicate children.
// The cost is the query's own size plus one search and one copy in the
// group: no sort, no rebuild, and the group key is built where step keys
// are (trie.buf).
func (t *trie) joinGroup(n *tnode, u *query.Node, preds []*query.Node) bool {
	if len(preds) != 1 {
		return false
	}
	leaf := preds[0]
	for len(leaf.Children) == 1 {
		leaf = leaf.Children[0]
	}
	if len(leaf.Children) > 0 {
		return false
	}
	// Streamable found the leaf's set. S, an unrestricted leaf's, is no
	// comparison.
	set, _ := query.TruthSetOf(leaf)
	cmp, ok := query.ComparisonOf(set)
	if !ok {
		return false
	}
	class, neg, tag, ok := groupOf(cmp)
	if !ok {
		return false
	}
	key := append(t.buf[:0], u.Axis.String()...)
	key = append(append(key, u.NTest...), '[')
	for v := preds[0]; ; v = v.Children[0] {
		key = append(append(key, v.Axis.String()...), v.NTest...)
		if v == leaf {
			break
		}
	}
	t.buf = append(key, tag...)

	p, h := n.parent, t.holdOf(n)
	i := slices.IndexFunc(h.groups, func(g *predGroup) bool { return g.parent == p && g.key == string(t.buf) })
	if i < 0 {
		i = len(h.groups)
		g := &predGroup{parent: p, key: string(t.buf), sid: t.sids.take(), id: t.ids.take(), frags: t.ids.take(), class: class, neg: neg}
		g.conj = []*tnode{t.buildPred(preds[0], n.at, g.sid, 0)}
		last := g.conj[0].x
		for len(last.conj) > 0 {
			last = last.conj[0].x
		}
		last.set, last.strs = nil, nil
		switch class {
		case classNumEq:
			g.num = map[float64]*eqBucket{}
		case classStrEq:
			last.strs = &g.strs
		}
		h.groups = append(h.groups, g)
	}
	h.groups[i].insert(n, cmp)
	return true
}

// insert makes n the member of g that compares against cmp's constant.
func (g *predGroup) insert(n *tnode, cmp query.Comparison) {
	n.x = &nodeExt{mem: member{grp: g}}
	mb := &n.x.mem
	g.size++
	if g.class == classThreshold {
		mb.c, mb.strict = cmp.Num, cmp.Op == value.OpGt || cmp.Op == value.OpLt
		if g.neg {
			mb.c = -mb.c
		}
		g.sorted = slices.Insert(g.sorted, rank(g.sorted, mb.c, mb.strict), entry{n: n, mem: n, slot: -1})
		return
	}
	var bk *eqBucket
	if g.class == classNumEq {
		if bk = g.num[cmp.Num]; bk == nil {
			bk = &eqBucket{num: cmp.Num}
			g.num[cmp.Num] = bk
		}
	} else if i, ok := g.strs.find(cmp.Str); ok {
		bk = g.strs.bks[i]
	} else {
		bk = &eqBucket{str: cmp.Str}
		g.strs.insert(bk)
	}
	mb.bucket = bk
	if cmp.Op == value.OpNe {
		mb.ne, mb.nePos = true, len(g.ne)
		bk.ne++
		g.ne = append(g.ne, n)
	} else {
		bk.eq = append(bk.eq, n)
	}
}

// remove undoes insert; a constant no member compares against any more
// leaves the index.
func (g *predGroup) remove(n *tnode) {
	mb := &n.x.mem
	g.size--
	if g.class == classThreshold {
		i := locate(g.sorted, n, mb)
		g.sorted = slices.Delete(g.sorted, i, i+1)
		return
	}
	bk := mb.bucket
	if mb.ne {
		last := g.ne[len(g.ne)-1]
		g.ne[mb.nePos], last.x.mem.nePos = last, mb.nePos
		g.ne = g.ne[:len(g.ne)-1]
		bk.ne--
	} else {
		i := slices.Index(bk.eq, n)
		bk.eq[i] = bk.eq[len(bk.eq)-1]
		bk.eq = bk.eq[:len(bk.eq)-1]
	}
	if len(bk.eq) > 0 || bk.ne > 0 {
		return
	}
	if g.class == classNumEq {
		delete(g.num, bk.num)
	} else {
		i, _ := g.strs.find(bk.str)
		g.strs.remove(i)
	}
}

// leaveGroup takes spine node n, which no subscription passes through any
// more, out of its group; a group left without members goes, with its
// predicate path.
func (t *trie) leaveGroup(n *tnode) {
	g := n.x.mem.grp
	g.remove(n)
	if g.size > 0 {
		return
	}
	h := t.holds[n.at]
	h.groups = slices.DeleteFunc(h.groups, func(o *predGroup) bool { return o == g })
	t.dropPreds(g.conj)
	t.sids.give(g.sid)
	t.ids.give(g.id)
	t.ids.give(g.frags)
}

// joinRun puts n, an ungrouped continuation of a member of g, in the run of
// g at n's state, creating the run for its first node, and gives it its
// entry there. Like joining a group it costs one search and one copy, after
// a scan of the state's runs.
func (t *trie) joinRun(n *tnode, g *predGroup) {
	h := t.holdOf(n)
	i := slices.IndexFunc(h.runs, func(r *contRun) bool { return r.grp == g })
	if i < 0 {
		i = len(h.runs)
		h.runs = append(h.runs, &contRun{grp: g, at: n.at, id: t.ids.take(), frags: t.ids.take()})
	}
	r := h.runs[i]
	n.run = r
	if len(r.nodes) == cap(r.nodes) {
		// A run grows by an eighth, not append's double: its entries stand
		// as long as its subscriptions do, and a run of 10 took 16 slots.
		grown := make([]entry, len(r.nodes), len(r.nodes)+1+len(r.nodes)/8)
		copy(grown, r.nodes)
		r.nodes = grown
	}
	k := &n.parent.x.mem
	r.nodes = slices.Insert(r.nodes, rank(r.nodes, k.c, k.strict), entry{n: n, mem: n.parent, slot: n.leafSlot()})
	if n.sid >= 0 {
		r.scoped++
	}
}

// leaveRun takes n, a leaf by now, and its entry out of its run; a run left
// without nodes goes.
func (t *trie) leaveRun(n *tnode) {
	r := n.run
	j := locate(r.nodes, n, &n.parent.x.mem)
	r.nodes = slices.Delete(r.nodes, j, j+1)
	if n.sid >= 0 {
		r.scoped--
	}
	if len(r.nodes) > 0 {
		return
	}
	h := t.holds[n.at]
	h.runs = slices.DeleteFunc(h.runs, func(o *contRun) bool { return o == r })
	t.ids.give(r.id)
	t.ids.give(r.frags)
}

// locate returns the position among es of the entry of node n, whose key is
// k's, by one search for the last entry with that key.
func locate(es []entry, n *tnode, k *member) int {
	i := rank(es, k.c, k.strict) - 1
	for es[i].n != n {
		i--
	}
	return i
}

// rank returns how many of es, in key order, have a key no greater than
// (c, strict) — ascending constants, >= before > at equal ones. Over a
// threshold group's members, rank(v, false) is the boundary a value v draws:
// exactly the members before it are satisfied by v.
func rank(es []entry, c float64, strict bool) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := &es[mid].mem.x.mem; k.c < c || (k.c == c && (strict || !k.strict)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// indexBits is what one index into the group's constants costs a scope, in
// the units of the Theorem 8.8 accounting.
func (g *predGroup) indexBits() int { return bits.Len(uint(g.size)) }

// parsedText is the number a closing element's text parses to, computed for
// the first group that asks and shared by every other pending on the same
// element.
type parsedText struct {
	done, ok bool
	num      float64
}

// openGroup opens the one scope a candidate element gets for all of g's
// members, whose one obligation is the shared predicate path, and puts it on
// g's stack of open ones, where the path's candidates and the runs of the
// members' continuations find it.
func (m *matcher) openGroup(g *predGroup, origin *scope, level int) {
	sc := m.pushScope(origin, level, g.conj)
	gs := m.freeGroups
	if gs != nil {
		m.freeGroups, gs.next = gs.next, nil
	} else {
		gs = &groupScope{}
	}
	gs.g = g
	sc.grp, sc.prev, m.open[g.sid] = gs, m.open[g.sid], sc
	if m.cm.mode != CaptureOff && m.left(g.frags, g.extracting) {
		// Members' own terminals are decided with the scope's values; capture
		// the candidate element now, while its start event is current.
		sc.cap = m.cm.elemCapture(g.every > 0)
		m.capCommits++
	}
	m.noteGroupBits(g.indexBits())
}

// noteGroupBits accounts for index state taken (or, negative, given back) by
// open group scopes.
func (m *matcher) noteGroupBits(d int) {
	m.groupBits += d
	if m.groupBits > m.stats.PeakGroupBits {
		m.stats.PeakGroupBits = m.groupBits
	}
}

// seen is what the values a group scope has seen decide about its members
// so far, and it only ever grows: bound, in a threshold group, is how many
// of grp.sorted they satisfy; hits, in an equality group, are the constants
// they equalled, and other says that some numeric value equalled none.
type seen struct {
	bound int
	hits  []*eqBucket
	other bool
}

// probe resolves closed candidate p of a group's predicate path — the
// pending of the path's leaf obligation — against the group's constants: one
// search moves a threshold group's boundary (the running maximum of the
// values seen is what XPath's existential comparison needs), one lookup
// records a numeric equality group's hit, and a textual one's is the
// constant its cursor ended on. The members that turn satisfied are decided
// there and then (release).
func (m *matcher) probe(p *pendingVal, pt *parsedText) {
	sc := p.ob.sc
	for sc.grp == nil {
		sc = sc.origin
	}
	gs := sc.grp
	g := gs.g
	m.stats.GroupProbes++
	was := gs.seen
	switch {
	case g.class == classStrEq:
		if bk := p.cur.exact(); bk != nil {
			m.hit(sc, bk)
		}
	case !pt.number(m.text(p)):
	case g.class == classNumEq:
		if bk := g.num[pt.num]; bk != nil {
			m.hit(sc, bk)
		} else {
			gs.other = true
		}
	default:
		v := pt.num
		if g.neg {
			v = -v
		}
		if gs.bound = max(gs.bound, rank(g.sorted, v, false)); gs.bound == len(g.sorted) {
			// With every member satisfied no further value can tell
			// anything: the leaf latches like any matched obligation and
			// stops buffering.
			m.satisfy(p.ob)
		}
	}
	m.release(sc, &was)
}

// number reports whether text is a number, parsing it for the first group
// that asks.
func (pt *parsedText) number(text string) bool {
	if !pt.done {
		pt.num, pt.ok = value.ParseNumber(text)
		pt.done = true
	}
	return pt.ok
}

// hit records that a value equalled an equality group's constant.
func (m *matcher) hit(sc *scope, bk *eqBucket) {
	gs := sc.grp
	if slices.Contains(gs.hits, bk) {
		return
	}
	gs.hits = append(gs.hits, bk)
	m.noteGroupBits(gs.g.indexBits())
}

// satisfied reports whether the values seen so far in group scope sc satisfy
// member n's comparison. The answer only ever turns from false to true.
func (sc *scope) satisfied(n *tnode) bool { return sc.grp.g.sat(&n.x.mem, &sc.grp.seen) }

// turned reports whether member n is satisfied by the values group scope sc
// has seen, but was not by those that had decided was.
func (sc *scope) turned(n *tnode, was *seen) bool {
	return sc.satisfied(n) && !sc.grp.g.sat(&n.x.mem, was)
}

// sat reports whether values that decided s satisfy member mb of g.
func (g *predGroup) sat(mb *member, s *seen) bool {
	switch {
	case g.class == classThreshold:
		if s.bound == 0 {
			return false
		}
		at := &g.sorted[s.bound-1].mem.x.mem
		return mb.c < at.c || (mb.c == at.c && (at.strict || !mb.strict))
	case mb.ne:
		return s.other || len(s.hits) > 1 || (len(s.hits) == 1 && s.hits[0] != mb.bucket)
	}
	return slices.Contains(s.hits, mb.bucket)
}

// split places run r against what the values seen so far in group scope sc
// have decided: the nodes before p continue satisfied members, the nodes
// from q on unsatisfied ones, and those between have to be asked one by one.
// A threshold run is ordered like its group, so one search against the
// scope's boundary finds p == q; an equality run has no order to go by.
func (sc *scope) split(r *contRun) (p, q int) {
	gs := sc.grp
	if gs.g.class != classThreshold {
		return 0, len(r.nodes)
	}
	if gs.bound == 0 {
		return 0, 0
	}
	at := &gs.g.sorted[gs.bound-1].mem.x.mem
	p = rank(r.nodes, at.c, at.strict)
	return p, p
}

// release routes, through gate, what group scope sc holds for the members
// its values have just turned satisfied — was is what they had decided
// before — the moment they do: the members' own terminals, the commits held
// against them, and the part of each range commit that continues them. That
// is the boundary's new stretch of a threshold group and the new hit bucket
// of an equality group, never a walk over the whole group; only != members,
// which one hit can turn by the dozen, are asked one by one. What no value
// satisfies is dropped when the scope closes.
func (m *matcher) release(sc *scope, was *seen) {
	gs := sc.grp
	if gs.bound == was.bound && len(gs.hits) == len(was.hits) && gs.other == was.other {
		return
	}
	g := gs.g
	up, mem := m.gate(sc.origin, g.parent)
	if g.terminals > 0 {
		for _, k := range g.sorted[was.bound:gs.bound] {
			m.route(k.n.terminals, sc.cap, up, mem)
		}
		if len(gs.hits) > len(was.hits) {
			for _, n := range gs.hits[len(gs.hits)-1].eq {
				m.route(n.terminals, sc.cap, up, mem)
			}
		}
		if !was.other && len(was.hits) < 2 {
			for _, n := range g.ne {
				if sc.turned(n, was) {
					m.route(n.terminals, sc.cap, up, mem)
				}
			}
		}
	}
	kept := sc.commits[:0]
	for _, c := range sc.commits {
		if sc.satisfied(c.mem) {
			m.routeEntry(c.sub, c.cap, up, mem)
			m.dropCommitCap(c.cap)
		} else {
			kept = append(kept, c)
		}
	}
	sc.commits = kept
	for i := range gs.ranges {
		// A threshold range holds the nodes from its split on, and the
		// boundary moves the split; a stretch that nothing gates or captures
		// latches in one pass. An equality range has no order to go by.
		rc := &gs.ranges[i]
		if r := rc.run; g.class == classThreshold {
			p, _ := sc.split(r)
			stretch := up == nil && rc.cap == nil
			if stretch {
				m.latchStretch(r, rc.from, p)
			}
			for _, k := range r.nodes[rc.from:p] {
				if stretch && k.slot >= 0 {
					continue
				}
				if len(k.n.conj()) == 0 {
					m.route(k.n.terminals, rc.cap, up, mem)
				}
			}
			rc.from = p
			continue
		}
		for _, k := range rc.run.nodes {
			if n := k.n; len(n.conj()) == 0 && sc.turned(k.mem, was) {
				m.route(n.terminals, rc.cap, up, mem)
			}
		}
	}
}
