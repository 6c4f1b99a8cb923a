package engine

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/automaton"
	"streamxpath/internal/fragment"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// The churn differential: one engine lives through a random sequence of
// Add, AddExtract, Remove and Rebuild calls, patching its indexes in place —
// or, in Rebuild, replacing its per-document state — and after every
// few of them one document runs through it and through an engine built from
// nothing with the subscriptions then standing. Everything a
// caller can observe must agree — per event, whether the verdicts are
// decided and how many have latched; per document, the matched ids, the
// fragments, the sizes of the shared structures and the lower-bound term
// of MemStats; and, per event, the sweep of the result bitmap must agree
// with the verdicts read by result slot (checkResults) — the verdicts must
// be the tree evaluator's (internal/semantics), and the result slots, and
// what the patched index derives from the standing queries (each one's
// output state, and a gated one's trie nodes) and the trie from its nodes
// (the count vector every document starts from, the runs and their order),
// must be what a recomputation gives (checkIndex). TestEngineChurnMatchesFreshEngine runs
// it on seeded random bytes, FuzzEngineChurn on whatever the fuzzer finds.

// dice reads the decisions of a run off a byte string; an exhausted string
// answers 0 forever.
type dice struct {
	data []byte
	pos  int
}

func (d *dice) n(k int) int {
	if d.pos >= len(d.data) {
		return 0
	}
	v := int(d.data[d.pos]) % k
	d.pos++
	return v
}

func (d *dice) done() bool { return d.pos >= len(d.data) }

var churnNames = []string{"a", "b", "c", "d"}

// churnPreds are the comparisons churnQuery draws, each taking a small
// constant: with four constants, independent draws land on equal and
// adjacent constants of one predicate group all the time — [%d < b] is
// [b > %d] spelled as another step — and groups grow, shrink to one member
// and vanish as subscriptions come and go. The last compares a two-step
// path.
var churnPreds = []string{"[b > %d]", "[b < %d]", "[b >= %d]", "[b = %d]", "[b != %d]", "[%d < b]", "[c/b <= %d]"}

// churnTails are what churnQuery hangs below //a[b ⋄ k]/c: nothing, a
// predicate no group takes, one a group does, a further step, an attribute.
var churnTails = []string{"", "", "[b]", "[b > 1]", "/d", "/@id"}

// churnQuery draws a query of one to three steps over /, //, the four names
// and *, with [b], a numeric comparison of b or [b = "x"] on some steps and
// sometimes a final attribute step. The pool is small on purpose:
// independent draws share prefixes, whole paths, and often the entire query.
// One draw in four is a continuation of a grouped step into one state —
// //a[b ⋄ k]/c… — so that the runs below //a's groups gain nodes in
// and out of order, lose them from the middle, empty and come back; one of
// those in three hangs the run below a predicated ancestor, //d[b]//a[b ⋄
// k]/c…, whose open scope gates what the run's satisfied stretches deliver
// until the ancestor's predicate is decided.
func churnQuery(d *dice) string {
	if d.n(4) == 0 {
		gate := ""
		if d.n(3) == 0 {
			gate = "//d[b]"
		}
		pred := fmt.Sprintf(churnPreds[d.n(len(churnPreds))], d.n(4))
		return gate + "//a" + pred + "/c" + churnTails[d.n(len(churnTails))]
	}
	var b strings.Builder
	steps := 1 + d.n(3)
	for i := 0; i < steps; i++ {
		b.WriteString([]string{"/", "//"}[d.n(2)])
		if d.n(6) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(churnNames[d.n(len(churnNames))])
		}
		switch d.n(6) {
		case 0:
			b.WriteString("[b]")
		case 1:
			fmt.Fprintf(&b, "[b > %d]", d.n(4))
		case 2:
			if k := d.n(len(churnPreds) + 1); k < len(churnPreds) {
				fmt.Fprintf(&b, churnPreds[k], d.n(4))
			} else {
				b.WriteString(`[b = "x"]`)
			}
		}
	}
	if d.n(8) == 0 {
		b.WriteString("/@id")
	}
	return b.String()
}

// churnShapes are the predicates churnShapeQuery hangs on steps: the
// predicate-subtree shapes churnQuery never draws — a descendant step, whose
// held state gives its parent state a descendant child, a wildcard, an
// attribute, a group of attribute comparisons, a nested predicate (a
// child-axis owner, parked while its scope is open) and a conjunction.
var churnShapes = []string{"[.//b]", "[*]", "[@id]", "[@id = %d]", "[c[b]]", "[b][c]"}

// churnShapeQuery draws a query of one to three steps over /, //, the four
// names and *, with one of churnShapes on some steps. Adding and removing
// such a query holds and releases the states of its predicate nodes.
func churnShapeQuery(d *dice) string {
	var b strings.Builder
	steps := 1 + d.n(3)
	for i := 0; i < steps; i++ {
		b.WriteString([]string{"/", "//"}[d.n(2)])
		if d.n(6) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(churnNames[d.n(len(churnNames))])
		}
		if d.n(2) == 0 {
			shape := churnShapes[d.n(len(churnShapes))]
			if strings.Contains(shape, "%d") {
				shape = fmt.Sprintf(shape, d.n(4))
			}
			b.WriteString(shape)
		}
	}
	return b.String()
}

// churnTexts are the text values churnDoc draws besides single digits:
// whitespace-padded, negative, decimal, non-numeric and empty.
var churnTexts = []string{" 2 ", "-1", "2.0", "x", "", "3\n"}

// churnDoc draws a document over the same names, with id attributes and
// mostly single-digit text, in the serializer's canonical form. Repeated b
// children come of themselves: four names, up to three children.
func churnDoc(d *dice) string {
	var b strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		name := churnNames[d.n(len(churnNames))]
		b.WriteString("<" + name)
		if d.n(3) == 0 {
			fmt.Fprintf(&b, ` id="%d"`, d.n(4))
		}
		b.WriteString(">")
		if kids := d.n(4); depth < 4 && kids > 0 {
			for i := 0; i < kids; i++ {
				elem(depth + 1)
			}
		} else if k := d.n(8); k < 3 {
			fmt.Fprintf(&b, "%d", d.n(5))
		} else if k == 3 {
			b.WriteString(churnTexts[d.n(len(churnTexts))])
		}
		b.WriteString("</" + name + ">")
	}
	elem(0)
	return b.String()
}

type churnSub struct {
	id, src string
	extract bool
	// bare subscriptions are added as a tree with no Source, as one built by
	// hand is.
	bare bool
}

func (s churnSub) addTo(e *Engine) error {
	q := query.MustParse(s.src)
	if s.bare {
		q.Source = ""
	}
	if s.extract {
		return e.AddExtract(s.id, q)
	}
	return e.Add(s.id, q)
}

// churnCover counts the mutations a run made that move what the result
// bitmap's bits stand for — removals from inside the insertion order, which
// shift every later position; Adds given a result slot a removed
// subscription held, by the output kind of the Add (reused) and, when the
// slot changes kind, by the kind that gave it up (crossed); Rebuild, which
// replaces the per-document state — each followed by a document whose
// results are read (checkResults).
type churnCover struct {
	rebuilds, shifted int
	reused, crossed   [2]int // by outputKind
}

// outputKind indexes churnCover's counts: 0 for an ungated output, 1 for a
// gated one.
func outputKind(s *subscription) int {
	if s.gated {
		return 1
	}
	return 0
}

// runChurn plays data against one patched engine, adding the queries
// churnQuery draws, and returns what it covered.
func runChurn(t testing.TB, data []byte) churnCover { return runChurnWith(t, data, churnQuery) }

// runChurnWith is runChurn adding the queries draw draws.
func runChurnWith(t testing.TB, data []byte, draw func(*dice) string) churnCover {
	d := &dice{data: data}
	patched := New()
	patched.SetCapture(CaptureSlice)
	tokP := sax.NewTokenizerBytes(nil, patched.Symbols())
	var live []churnSub
	var cover churnCover
	freed := map[int32]int{} // result slots given up since the last Rebuild, and by which output kind
	serial := 0
	add := func(src string, extract bool) {
		s := churnSub{id: fmt.Sprintf("s%d", serial), src: src, extract: extract, bare: serial%3 == 0}
		serial++
		if err := s.addTo(patched); err != nil {
			t.Fatalf("Add(%s): %v", src, err)
		}
		live = append(live, s)
		slot := patched.byID[s.id]
		sub := &patched.subs[slot]
		if from, ok := freed[slot]; ok {
			delete(freed, slot)
			cover.reused[outputKind(sub)]++
			if from != outputKind(sub) {
				cover.crossed[from]++
			}
		}
	}
	remove := func(i int) {
		slot := patched.byID[live[i].id]
		kind := outputKind(&patched.subs[slot])
		if !patched.Remove(live[i].id) {
			t.Fatalf("Remove(%s) = false", live[i].id)
		}
		freed[slot] = kind
		if i < len(live)-1 {
			cover.shifted++
		}
		live = slices.Delete(live, i, i+1)
	}
	for round := 0; !d.done(); round++ {
		for ops := 1 + d.n(3); ops > 0; ops-- {
			switch k := d.n(16); {
			case k == 0:
				// Down to the empty set, and back up from it next round.
				for len(live) > 0 {
					remove(len(live) - 1)
				}
			case k == 1:
				// A burst of one-off linear queries, removed again: the merged
				// NFA's free list fills with 140 state slots for what follows
				// to take, and the runner drops enough item sets to renumber.
				for i := 0; i < 70; i++ {
					add(fmt.Sprintf("/z/t%d/u", i), false)
				}
				for i := 0; i < 70; i++ {
					remove(len(live) - 1)
				}
			case k == 2:
				// The quarantine step: the per-document state replaced, and
				// the indexes patched on as they stand.
				patched.Rebuild()
				clear(freed)
			case k < 7 && len(live) > 0:
				remove(d.n(len(live)))
			default:
				add(draw(d), d.n(3) == 0)
			}
		}
		doc := churnDoc(d)
		fresh := New()
		fresh.SetCapture(CaptureSlice)
		for _, s := range live {
			if err := s.addTo(fresh); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("round %d, doc %s, subscriptions %v", round, doc, live)
		// Lockstep, so that what a streaming caller would see mid-document
		// is compared too.
		tokP.Reset([]byte(doc))
		tokF := sax.NewTokenizerBytes([]byte(doc), fresh.Symbols())
		for n := 0; ; n++ {
			evP, errP := tokP.Next()
			evF, errF := tokF.Next()
			if errP == io.EOF && errF == io.EOF {
				break
			}
			if errP != nil || errF != nil {
				t.Fatalf("%s: tokenizers: %v / %v", label, errP, errF)
			}
			if err := patched.ProcessBytes(evP); err != nil {
				t.Fatalf("%s: patched: %v", label, err)
			}
			if err := fresh.ProcessBytes(evF); err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}
			if p, f := patched.Decided(), fresh.Decided(); p != f {
				t.Fatalf("%s: event %d: Decided patched=%v fresh=%v", label, n, p, f)
			}
			if p, f := patched.MatchedCount(), fresh.MatchedCount(); p != f {
				t.Fatalf("%s: event %d: MatchedCount patched=%d fresh=%d", label, n, p, f)
			}
			checkResults(t, fmt.Sprintf("%s: event %d", label, n), patched, live, nil)
			checkLive(t, fmt.Sprintf("%s: event %d", label, n), patched)
		}
		got, want := patched.MatchedIDs(), fresh.MatchedIDs()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: matched patched=%v fresh=%v", label, got, want)
		}
		checkResults(t, label, patched, live, []byte(doc))
		if mt := patched.mt; mt.tuples != 0 || mt.lone != 0 || len(mt.scopes) != 0 {
			t.Fatalf("%s: %d live tuples, %d live folded obligations and %d open scopes after the document", label, mt.tuples, mt.lone, len(mt.scopes))
		}
		root := tree.MustParse(doc)
		for _, s := range live {
			if truth := semantics.BoolEval(query.MustParse(s.src), root); truth != slices.Contains(got, s.id) {
				t.Fatalf("%s: %s %s: engines say %v, the tree evaluator %v", label, s.id, s.src, !truth, truth)
			}
		}
		fp, ff := patched.AppendFragments(nil, []byte(doc)), fresh.AppendFragments(nil, []byte(doc))
		if !slices.EqualFunc(fp, ff, func(a, b Fragment) bool { return a.ID == b.ID && string(a.Data) == string(b.Data) }) {
			t.Fatalf("%s: fragments patched=%v fresh=%v", label, fp, ff)
		}
		sp, sf := patched.Stats(), fresh.Stats()
		if sp.NFARouted != sf.NFARouted || sp.TrieRouted != sf.TrieRouted || sp.SpineSteps != sf.SpineSteps ||
			sp.SharedStates != sf.SharedStates || sp.PredNodes != sf.PredNodes {
			t.Fatalf("%s: stats\n patched %s\n fresh   %s", label, sp, sf)
		}
		if p, f := patched.MemStats(), fresh.MemStats(); p != f {
			t.Fatalf("%s: MemStats\n patched %s\n fresh   %s", label, p, f)
		}
		checkIndex(t, label, patched, live)
	}
	cover.rebuilds = patched.Stats().Rebuilds
	return cover
}

// checkResults holds the sweep of the result bitmap against the verdicts
// Matched reads through each subscription's result slot: the matched ids are
// the subscriptions Matched answers true for, in insertion order, and — once
// the document has ended (doc non-nil) — the fragments' ids are the ones
// among them that live, the subscriptions standing, added with extraction,
// in the same order.
func checkResults(t testing.TB, label string, e *Engine, live []churnSub, doc []byte) {
	t.Helper()
	extract := map[string]bool{}
	for _, s := range live {
		extract[s.id] = s.extract
	}
	var matched, extracting []string
	for _, id := range e.IDs() {
		if e.Matched(id) {
			matched = append(matched, id)
			if extract[id] {
				extracting = append(extracting, id)
			}
		}
	}
	if got := e.MatchedIDs(); !slices.Equal(got, matched) {
		t.Fatalf("%s: MatchedIDs %v, Matched answers true for %v", label, got, matched)
	}
	if doc == nil {
		return
	}
	var frags []string
	for _, f := range e.AppendFragments(nil, doc) {
		frags = append(frags, f.ID)
	}
	if !slices.Equal(frags, extracting) {
		t.Fatalf("%s: fragments for %v, the matched extracting subscriptions are %v", label, frags, extracting)
	}
}

// checkLive is one walk of the matcher's live structures, held against what
// the matcher counts as it goes: the open scopes' tuples that are neither
// matched nor parked behind an open candidate, plus the scopes, plus the
// pending leaf candidates, are live(); the scopes' folded obligations that
// are neither are the matcher's lone count; no step whose path carries no
// predicate holds a scope — a spine scope's node opens one, and its chain of
// nodes up from there, its own step included, meets a predicated one — and
// MemStats' peak is at least what is live now.
func checkLive(t testing.TB, label string, e *Engine) {
	t.Helper()
	m := e.mt
	n, lone := len(m.scopes)+len(m.pendings), 0
	for _, sc := range m.scopes {
		if sc.node != nil && sc.node.kind == kindSpine {
			p := sc.node
			for p != nil && len(p.conj()) == 0 && p.mem() == nil {
				p = p.parent
			}
			if p == nil || !sc.node.opens() {
				t.Fatalf("%s: step %s holds a scope with no predicate on its path", label, e.tr.keys.strs[sc.node.key])
			}
		}
		for i := range sc.children {
			if c := &sc.children[i]; !c.matched && !c.parked {
				n++
			}
		}
		if len(sc.children) == 0 && sc.unmet > 0 && !sc.parked {
			lone++
		}
	}
	if live := m.live(); n != live {
		t.Fatalf("%s: %d live tuples, scopes and pendings recounted, live() = %d", label, n, live)
	}
	if lone != m.lone {
		t.Fatalf("%s: %d live folded obligations recounted, the matcher counts %d", label, lone, m.lone)
	}
	if peak := e.MemStats().PeakLiveTuples; peak < n {
		t.Fatalf("%s: %d live, above the peak %d", label, n, peak)
	}
}

// checkIndex holds the engine's index to what add and remove maintain: one
// result slot space — every slot held by one standing subscription, whose
// record holds its position and whose id byID maps to it, or free with a
// zero record; recomputed from the standing queries live, every
// subscription's output at the merged NFA state its location path enters,
// of the kind its query asks, and every gated one's chain of trie nodes up
// from its OUT node: one per step from its first predicated or attribute
// step on, at the state the path enters there, under its step key, and
// none above; and, recomputed from the trie's spine nodes and predicate
// subtrees, the latch ids and the scope ids — each owned once or free, a
// scope id by exactly the ungrouped spine nodes that open scopes, the
// groups and the internal predicate nodes — the key table — each key held
// once, counted by the spine nodes that have it, or free — every group's
// and run's tally of the extracting and every-match subscriptions ending
// there, one merged NFA state per distinct step, and the membership, order
// and scope tally of every state's hold.
func checkIndex(t testing.TB, label string, e *Engine, live []churnSub) {
	t.Helper()
	holder := make([]string, len(e.subs))
	for i, r := range e.results {
		if holder[r.slot] != "" || e.subs[r.slot].pos != int32(i) || e.byID[r.id] != r.slot {
			t.Fatalf("%s: result slot %d: held by %q and %s, at position %d of %d", label, r.slot, holder[r.slot], r.id, e.subs[r.slot].pos, i)
		}
		holder[r.slot] = r.id
	}
	for _, slot := range e.freeSlots {
		if holder[slot] != "" || e.subs[slot] != (subscription{}) {
			t.Fatalf("%s: result slot %d is free and held by %q, or its record is not zero", label, slot, holder[slot])
		}
		holder[slot] = "free"
	}
	if i := slices.Index(holder, ""); i >= 0 {
		t.Fatalf("%s: result slot %d is neither held nor free", label, i)
	}
	if len(e.byID) != len(e.results) {
		t.Fatalf("%s: %d ids mapped, %d subscriptions", label, len(e.byID), len(e.results))
	}
	tr := e.tr
	for slot, s := range e.subs {
		if (s.out != nil) != s.gated {
			t.Fatalf("%s: result slot %d, held by %s, gated %v, ends at trie node %v", label, slot, holder[slot], s.gated, s.out)
		}
	}
	keyOf := func(n *tnode) string { return tr.keys.strs[n.key] }
	// A node's state is a function of its parent's and its own (axis, node
	// test), and no two steps share one. topFrom is the state a top node's
	// step leaves, which the node does not record, and ntest the node test
	// of each node, read off the queries.
	type step struct {
		from  int32
		axis  query.Axis
		ntest string
	}
	topFrom := map[*tnode]int32{}
	ntest := map[*tnode]string{}
	spineSteps := 0
	var pair func(conj []*tnode, qs []*query.Node)
	pair = func(conj []*tnode, qs []*query.Node) {
		for i := 0; i < len(conj) && i < len(qs); i++ {
			ntest[conj[i]] = qs[i].NTest
			pair(conj[i].conj(), qs[i].Children)
		}
	}
	for _, ls := range live {
		slot, q := e.byID[ls.id], query.MustParse(ls.src)
		sub := e.subs[slot]
		var steps []*query.Node
		ats := []int32{0}
		for u := q.Root.Successor; u != nil; u = u.Successor {
			steps = append(steps, u)
			ats = append(ats, int32(e.nfa.Child(int(ats[len(ats)-1]), u.Axis, u.NTest)))
		}
		if gated := automaton.Linear(q) != nil; sub.at != ats[len(steps)] || sub.gated != gated {
			t.Fatalf("%s: %s ends at state %d, gated %v; its path enters %d, and gated is %v", label, ls.src, sub.at, sub.gated, ats[len(steps)], gated)
		}
		fs := int32(1)
		if sub.gated {
			fs = int32(fragment.FrontierSize(q))
		}
		if sub.fs != fs {
			t.Fatalf("%s: %s holds FS %d, want %d", label, ls.src, sub.fs, fs)
		}
		spineSteps += len(steps)
		if !sub.gated {
			continue
		}
		top := slices.IndexFunc(steps, func(u *query.Node) bool {
			return len(u.PredicateChildren()) > 0 || u.Axis == query.AxisAttribute
		})
		if top < 0 {
			top = len(steps) - 1
		}
		n := sub.out
		for i := len(steps) - 1; i >= top; i-- {
			if n == nil || n.kind != kindSpine || keyOf(n) != query.StepKey(steps[i]) || n.at != ats[i+1] {
				t.Fatalf("%s: %s: step %d is not its trie node %v", label, ls.src, i, n)
			}
			if i == top {
				topFrom[n] = ats[i]
			}
			ntest[n] = steps[i].NTest
			if mb := n.mem(); mb != nil {
				pair(mb.grp.conj, steps[i].PredicateChildren())
			} else {
				pair(n.conj(), steps[i].PredicateChildren())
			}
			n = n.parent
		}
		if n != nil {
			t.Fatalf("%s: %s: trie node %s continues a predicate-free step", label, ls.src, keyOf(n))
		}
	}
	if spineSteps != e.steps {
		t.Fatalf("%s: %d location steps counted, the queries have %d", label, e.steps, spineSteps)
	}
	// Every latch id and every scope id is owned once or free.
	owned, ownedS := make([]bool, tr.ids.n), make([]bool, tr.sids.n)
	own := func(what string, ids ...int32) {
		for _, id := range ids {
			if id < 0 || owned[id] {
				t.Fatalf("%s: %s: latch id %d has two owners, or none", label, what, id)
			}
			owned[id] = true
		}
	}
	ownS := func(what string, sid int32) {
		if sid < 0 || ownedS[sid] {
			t.Fatalf("%s: %s: scope id %d has two owners, or none", label, what, sid)
		}
		ownedS[sid] = true
	}
	runs := map[*contRun][]*tnode{}
	stateOf, stepOf := map[step]int32{}, map[int32]step{0: {}}
	place := func(what string, from int32, n *tnode) {
		st := step{from, n.axis, ntest[n]}
		if at, ok := stateOf[st]; ok && at != n.at {
			t.Fatalf("%s: %s is at state %d, a node of the same step at %d", label, what, n.at, at)
		}
		if other, ok := stepOf[n.at]; ok && other != st {
			t.Fatalf("%s: %s shares state %d with another step", label, what, n.at)
		}
		stateOf[st], stepOf[n.at] = n.at, st
		if h := tr.holds[n.at]; h == nil || h.desc != (n.axis == query.AxisDescendant) {
			t.Fatalf("%s: %s is held by no state, or by one of the other axis class", label, what)
		}
	}
	// A predicate node is held from the state of its parent, whose scopes
	// are on its up stack, at its position among the parent's children; an
	// internal one owns the id of its open scopes, a leaf none, and neither
	// a latch id.
	preds := 0
	var walkPreds func(what string, from, up int32, conj []*tnode)
	walkPreds = func(what string, from, up int32, conj []*tnode) {
		for i, n := range conj {
			what := fmt.Sprintf("%s[%d %s%s]", what, i, n.axis, ntest[n])
			preds++
			place(what, from, n)
			if n.kind != kindPred || n.x.up != up || n.x.pos != int32(i) || tr.holds[n.at].preds[n.slot] != n || n.id != -1 {
				t.Fatalf("%s: predicate node misplaced (up %d, want %d; pos %d; latch id %d)", label, n.x.up, up, n.x.pos, n.id)
			}
			if len(n.x.conj) == 0 {
				if n.sid != -1 {
					t.Fatalf("%s: %s: a predicate leaf owns scope id %d", label, what, n.sid)
				}
				continue
			}
			ownS(what, n.sid)
			walkPreds(what, n.at, n.sid, n.x.conj)
		}
	}
	// Every spine node is on some gated subscription's chain, and entered in
	// the trie's nodes under its parent, state and key.
	kids := map[*tnode]int32{}
	keyRefs := map[int32]int32{}
	for k, n := range tr.nodes {
		if k != n.nodeKey() || len(n.terminals) == 0 && n.kids == 0 {
			t.Fatalf("%s: %s is entered under %v, with %d terminals and %d continuations", label, keyOf(n), k, len(n.terminals), n.kids)
		}
		if n.parent != nil {
			kids[n.parent]++
		} else if _, ok := topFrom[n]; !ok {
			t.Fatalf("%s: top node %s is no standing subscription's", label, keyOf(n))
		}
		keyRefs[n.key]++
	}
	tallies := map[*tally]tally{}
	for _, n := range tr.nodes {
		// A spine node owns a latch id exactly while its count is more than
		// one terminal's result bit.
		switch counted := n.kids > 0 || len(n.terminals) > 1; {
		case counted:
			own(keyOf(n), n.id)
		case n.id != -1:
			t.Fatalf("%s: %s is a leaf of one terminal and owns latch id %d", label, keyOf(n), n.id)
		}
		if n.parent != nil {
			place(keyOf(n), n.parent.at, n)
		} else {
			place(keyOf(n), topFrom[n], n)
		}
		// An ungrouped step owns a scope id exactly while it opens scopes; a
		// group member's scopes are its group's.
		switch scoped := n.opens() && n.mem() == nil; {
		case scoped:
			ownS(keyOf(n), n.sid)
		case n.sid != -1:
			t.Fatalf("%s: %s opens no scopes of its own and owns scope id %d", label, keyOf(n), n.sid)
		}
		if n.mem() == nil {
			walkPreds(keyOf(n), n.at, n.sid, n.conj())
		}
		if n.kids != kids[n] {
			t.Fatalf("%s: %s counts %d continuations, %d are entered", label, keyOf(n), n.kids, kids[n])
		}
		var ends tally
		for _, slot := range n.terminals {
			if e.subs[slot].out != n {
				t.Fatalf("%s: %s: result slot %d ends elsewhere", label, keyOf(n), slot)
			}
			if e.subs[slot].extract {
				ends.extracting++
			}
			if e.subs[slot].every {
				ends.every++
			}
		}
		var ts *tally
		switch grouped := n.parent != nil && n.parent.mem() != nil; {
		case n.mem() != nil:
			ts = &n.mem().grp.tally
			if g := n.mem().grp; g.parent != n.parent || !slices.Contains(tr.holds[n.at].groups, g) {
				t.Fatalf("%s: %s's group continues another step, or is not held by its state", label, keyOf(n))
			}
		case grouped:
			if n.run == nil || n.run.grp != n.parent.mem().grp {
				t.Fatalf("%s: %s continues a group member outside its group's run", label, keyOf(n))
			}
			runs[n.run] = append(runs[n.run], n)
			ts = &n.run.tally
		case n.run != nil || tr.holds[n.at].members[n.slot] != n:
			t.Fatalf("%s: %s is not among its state's members", label, keyOf(n))
		}
		if ts != nil {
			sum := tallies[ts]
			sum.extracting += ends.extracting
			sum.every += ends.every
			tallies[ts] = sum
		}
	}
	// Each key in use is one string, counted by the spine nodes that have
	// it; a free one is held by none.
	kt := &tr.keys
	if len(kt.ids) != len(keyRefs) || len(kt.strs) != int(kt.n) || len(kt.refs) != int(kt.n) {
		t.Fatalf("%s: %d keys mapped, %d in use; %d strings and %d counts for %d ids", label, len(kt.ids), len(keyRefs), len(kt.strs), len(kt.refs), kt.n)
	}
	for id, refs := range keyRefs {
		if kt.refs[id] != refs || kt.ids[kt.strs[id]] != id {
			t.Fatalf("%s: key %d (%q) counts %d nodes, %d have it", label, id, kt.strs[id], kt.refs[id], refs)
		}
	}
	for _, id := range kt.free {
		if _, used := keyRefs[id]; used || kt.strs[id] != "" || kt.refs[id] != 0 {
			t.Fatalf("%s: key %d is free and held (%q, %d nodes)", label, id, kt.strs[id], kt.refs[id])
		}
		keyRefs[id] = 0
	}
	if len(keyRefs) != int(kt.n) {
		t.Fatalf("%s: %d of %d key ids are in use or free", label, len(keyRefs), kt.n)
	}
	for s, h := range tr.holds {
		for i := 0; h != nil && i < len(h.groups); i++ {
			g := h.groups[i]
			own("group "+g.key, g.id, g.frags)
			ownS("group "+g.key, g.sid)
			if g.tally != tallies[&g.tally] {
				t.Fatalf("%s: group %s tallies %+v, its members' terminals %+v", label, g.key, g.tally, tallies[&g.tally])
			}
			walkPreds("group "+g.key, int32(s), g.sid, g.conj)
			if slices.IndexFunc(h.groups, func(o *predGroup) bool { return o.parent == g.parent && o.key == g.key }) != i {
				t.Fatalf("%s: state %d holds two groups %s below one step", label, s, g.key)
			}
			for j, rec := range g.sorted {
				mb := rec.n.mem()
				if mb == nil || mb.grp != g || rec != (entry{n: rec.n, mem: rec.n, slot: -1}) || rank(g.sorted[:j], mb.c, mb.strict) != j {
					t.Fatalf("%s: group %s: record %d reads %+v, or is out of order", label, g.key, j, rec)
				}
			}
			if g.class == classThreshold && len(g.sorted) != g.size {
				t.Fatalf("%s: group %s holds %d records for %d members", label, g.key, len(g.sorted), g.size)
			}
		}
	}
	held, heldPreds := 0, 0
	for s, h := range tr.holds {
		if h == nil {
			continue
		}
		if _, ok := stepOf[int32(s)]; !ok || h.empty() {
			t.Fatalf("%s: state %d holds %d members, %d groups, %d runs and %d predicate nodes, and no node is there",
				label, s, len(h.members), len(h.groups), len(h.runs), len(h.preds))
		}
		heldPreds += len(h.preds)
		held += len(h.runs)
		for _, r := range h.runs {
			own("run below "+r.grp.key, r.id, r.frags)
			if r.tally != tallies[&r.tally] {
				t.Fatalf("%s: run below %s tallies %+v, its nodes' terminals %+v", label, r.grp.key, r.tally, tallies[&r.tally])
			}
			nodes, scoped := runs[r], 0
			for i, rec := range r.nodes {
				n := rec.n
				if !slices.Contains(nodes, n) || n.at != int32(s) {
					t.Fatalf("%s: run below %s holds %s, which does not belong there", label, r.grp.key, keyOf(n))
				}
				if n.opens() {
					scoped++
				}
				k := &n.parent.x.mem
				if rec != (entry{n: n, mem: n.parent, slot: n.leafSlot()}) {
					t.Fatalf("%s: run below %s: the record of %s reads %+v", label, r.grp.key, keyOf(n), rec)
				}
				if rank(r.nodes[:i], k.c, k.strict) != i {
					t.Fatalf("%s: run below %s is out of order at %d", label, r.grp.key, i)
				}
			}
			if len(r.nodes) != len(nodes) || scoped != r.scoped || r.at != int32(s) {
				t.Fatalf("%s: run below %s: holds %d nodes of %d, tallies %d scoped of %d",
					label, r.grp.key, len(r.nodes), len(nodes), r.scoped, scoped)
			}
		}
	}
	if held != len(runs) {
		t.Fatalf("%s: %d runs held by states, %d by spine nodes", label, held, len(runs))
	}
	if heldPreds != preds || preds != tr.predNodes {
		t.Fatalf("%s: %d predicate nodes held by states, %d in the trie, %d counted", label, heldPreds, preds, tr.predNodes)
	}
	for _, id := range tr.ids.free {
		own("free list", id)
	}
	if i := slices.Index(owned, false); i >= 0 {
		t.Fatalf("%s: latch id %d is neither owned nor free", label, i)
	}
	for _, sid := range tr.sids.free {
		ownS("free list", sid)
	}
	if i := slices.Index(ownedS, false); i >= 0 {
		t.Fatalf("%s: scope id %d is neither owned nor free", label, i)
	}
}

func TestEngineChurnMatchesFreshEngine(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	var cover churnCover
	for seed := 0; seed < seeds; seed++ {
		data := make([]byte, 6000) // about 120 rounds
		rand.New(rand.NewSource(int64(seed))).Read(data)
		for _, draw := range []func(*dice) string{churnQuery, churnShapeQuery} {
			c := runChurnWith(t, data, draw)
			cover.rebuilds += c.rebuilds
			cover.shifted += c.shifted
			for r := range cover.reused {
				cover.reused[r] += c.reused[r]
				cover.crossed[r] += c.crossed[r]
			}
		}
	}
	if cover.rebuilds == 0 {
		t.Error("no run called Rebuild; matching on replaced per-document state went untested")
	}
	if cover.shifted == 0 || cover.reused[0] == 0 || cover.reused[1] == 0 {
		t.Errorf("results were never read after a shifted position (%d) or a reused slot (ungated %d, gated %d)",
			cover.shifted, cover.reused[0], cover.reused[1])
	}
	if cover.crossed[0] == 0 || cover.crossed[1] == 0 {
		t.Errorf("results were never read after a slot changed output kind (ungated to gated %d, gated to ungated %d)",
			cover.crossed[0], cover.crossed[1])
	}
	t.Logf("shifted %d, reused ungated %d gated %d, crossed ungated→gated %d gated→ungated %d, rebuilds %d",
		cover.shifted, cover.reused[0], cover.reused[1], cover.crossed[0], cover.crossed[1], cover.rebuilds)
}

func FuzzEngineChurn(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A round rebuilds the reference engine from every standing
		// subscription, so the cost of an input is quadratic in its length;
		// past a few dozen rounds more of them find nothing new.
		runChurn(t, data[:min(len(data), 2048)])
	})
}

// TestEngineMutationAbandonsDocument: Add and Remove between startDocument
// and endDocument abandon the document — its remaining events are refused
// and it reports no verdicts — and the next document runs on the patched
// indexes as if the abandoned one had never opened its scopes.
func TestEngineMutationAbandonsDocument(t *testing.T) {
	e := New()
	mustAdd(t, e, "lin", "//a/c")
	mustAdd(t, e, "pred", "//a[b]/c")
	mustAdd(t, e, "deep", "//a[b]//d/e")
	for _, mutate := range []func(){
		func() { mustAdd(t, e, "late", "//a[b]/x") },
		func() { e.Remove("deep") },
		func() { e.Remove("lin") },
	} {
		// Mid-document: //a's scope is open, c has latched lin.
		for _, ev := range []sax.Event{sax.StartDoc(), sax.Start("a"), sax.Start("c")} {
			if err := feed(e, ev); err != nil {
				t.Fatal(err)
			}
		}
		mutate()
		if e.Matched("lin") || len(e.MatchedIDs()) != 0 || e.MatchedCount() != 0 || e.Decided() {
			t.Fatal("an abandoned document still reports verdicts")
		}
		for _, ev := range []sax.Event{sax.End("c"), sax.TextEvent("x"), sax.Start("b"), sax.EndDoc()} {
			if err := feed(e, ev); err == nil {
				t.Fatalf("%v accepted after a mid-document mutation", ev)
			}
		}
		got := run(t, e, "<a><c/><b/><x/><d><e/></d></a>")
		for _, id := range e.IDs() {
			if !got[id] {
				t.Fatalf("after the abandoned document: %s did not match (got %v)", id, got)
			}
		}
	}
	e.Reset()
	if err := feed(e, sax.StartDoc()); err != nil {
		t.Fatal(err)
	}
	if err := e.Add("pred", query.MustParse("//z")); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := feed(e, sax.Start("a")); err != nil {
		t.Fatalf("a rejected Add abandoned the document: %v", err)
	}
}

// churnEngine holds n subscriptions //catalog/item/f<i>, the topology of
// the benchmark's churn workload, and a catalog document carrying the
// first 80 leaf names.
func churnEngine(t *testing.T, n int) (*Engine, string) {
	e := New()
	for i := 0; i < n; i++ {
		mustAdd(t, e, fmt.Sprintf("s%d", i), fmt.Sprintf("//catalog/item/f%d", i))
	}
	var doc strings.Builder
	doc.WriteString("<catalog>")
	for i := 0; i < 80; i += 2 {
		fmt.Fprintf(&doc, "<item><priority>%d</priority><f%d/><f%d/></item>", i%12, i, i+1)
	}
	doc.WriteString("</catalog>")
	return e, doc.String()
}

// TestEngineReplaceKeepsTheMemo counts what a subscription change costs the
// lazy DFA: replacing one leaf subscription makes the next document compute
// at most two transitions again (the whole table, 83, when the indexes were
// recompiled), and leaves the table and the shared states exactly as large
// as those of an engine built afresh.
func TestEngineReplaceKeepsTheMemo(t *testing.T) {
	e, doc := churnEngine(t, 1000)
	run(t, e, doc)
	warm := e.Stats()
	if !e.Remove("s17") {
		t.Fatal("s17 is not subscribed")
	}
	mustAdd(t, e, "again", "//catalog/item/f17")
	if got := run(t, e, doc); !got["again"] || len(got) != 80 {
		t.Fatalf("after the replacement: %d matches, again=%v", len(got), got["again"])
	}
	st := e.Stats()
	if d := st.DFAMaterialized - warm.DFAMaterialized; d > 2 {
		t.Errorf("one replacement made the next document compute %d transitions, want at most 2", d)
	}
	fresh, _ := churnEngine(t, 1000)
	run(t, fresh, doc)
	fs := fresh.Stats()
	if st.DFATransitions != fs.DFATransitions || st.DFAStates != fs.DFAStates || st.SharedStates != fs.SharedStates {
		t.Errorf("patched dfa=%d/%d shared=%d, fresh dfa=%d/%d shared=%d",
			st.DFAStates, st.DFATransitions, st.SharedStates, fs.DFAStates, fs.DFATransitions, fs.SharedStates)
	}
	if st.Rebuilds != 0 {
		t.Errorf("Rebuilds = %d after one replacement", st.Rebuilds)
	}
}

// TestEngineStateSlotsAreReused: however long the churn, the merged NFA
// holds no more state slots than its peak of live states — an unlinked
// state's slot is the next Add's — and no index is ever recompiled for it.
func TestEngineStateSlotsAreReused(t *testing.T) {
	const n = 1000
	e, doc := churnEngine(t, n)
	peak := e.nfa.Size()
	for i := 0; i < 5000; i++ {
		if !e.Remove(fmt.Sprintf("s%d", i)) {
			t.Fatalf("s%d is not subscribed", i)
		}
		mustAdd(t, e, fmt.Sprintf("s%d", n+i), fmt.Sprintf("//catalog/item/f%d", i%n))
		if slots := e.nfa.Slots(); slots > peak+1 {
			t.Fatalf("after %d replacements: %d state slots, the peak of live states is %d", i+1, slots, peak)
		}
		if i%16 == 0 {
			if got := run(t, e, doc); len(got) != 80 {
				t.Fatalf("after %d replacements: %d matches, want 80", i+1, len(got))
			}
		}
	}
	if st := e.Stats(); st.Rebuilds != 0 || st.SharedStates != n+2 {
		t.Errorf("rebuilds=%d shared=%d, want no rebuilds and %d shared states", st.Rebuilds, st.SharedStates, n+2)
	}
}

// TestEngineSlotChangesRoute: a result slot is the next Add's whichever
// output kind gave it up — an ungated output latched off the accept lists,
// or a gated one latched through the trie — and nothing latched in it for
// the last holder — verdict or fragment — carries over to the new one. An
// extracting //a/b matches a document, gives its slot up to an extracting
// //a[c]/b (and the other way round), and the next documents' ids and
// fragments are a fresh engine's in either capture mode that copies
// fragments out of the engine.
func TestEngineSlotChangesRoute(t *testing.T) {
	docs := []string{"<a><b>2</b></a>", "<a><b>3</b><c/></a>", "<a><c/><b>4</b></a>"}
	for _, mode := range []CaptureMode{CaptureSlice, CaptureSerial} {
		for _, pair := range [][2]string{{"//a/b", "//a[c]/b"}, {"//a[c]/b", "//a/b"}} {
			label := fmt.Sprintf("mode %d, %s then %s", mode, pair[0], pair[1])
			match := func(e *Engine, doc string) string {
				t.Helper()
				out, err := e.MatchBytes(nil, []byte(doc), mode)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, doc, err)
				}
				got := fmt.Sprint(out.IDs)
				for _, f := range out.Frags {
					got += fmt.Sprintf(" %s=%s", f.ID, f.Data)
				}
				return got
			}
			e := New()
			mustAdd(t, e, "other", "//a[c]")
			if err := e.AddExtract("first", query.MustParse(pair[0])); err != nil {
				t.Fatal(err)
			}
			if got := match(e, "<a><b>1</b><c/></a>"); got != "[other first] first=<b>1</b>" {
				t.Fatalf("%s: the first holder's document gave %s", label, got)
			}
			slot := e.byID["first"]
			first := e.subs[slot]
			e.Remove("first")
			if err := e.AddExtract("second", query.MustParse(pair[1])); err != nil {
				t.Fatal(err)
			}
			if got := e.byID["second"]; got != slot || e.subs[got].gated == first.gated || e.subs[got].at != first.at {
				t.Fatalf("%s: the second holder got slot %d at state %d, gated %v; the first held slot %d at state %d, gated %v",
					label, got, e.subs[got].at, e.subs[got].gated, slot, first.at, first.gated)
			}
			fresh := New()
			mustAdd(t, fresh, "other", "//a[c]")
			if err := fresh.AddExtract("second", query.MustParse(pair[1])); err != nil {
				t.Fatal(err)
			}
			for _, doc := range docs {
				if got, want := match(e, doc), match(fresh, doc); got != want {
					t.Fatalf("%s: %s: %s, a fresh engine %s", label, doc, got, want)
				}
			}
		}
	}
}

// TestEngineRebuildKeepsTheIndex: Rebuild replaces one engine's
// per-document state and nothing else. The index it shares with a replica —
// the routes, the subscriptions, a hand-built tree's entries among them —
// is the one it had, and so is the DFA memo: neither the rebuilt engine nor
// the replica computes a transition again.
func TestEngineRebuildKeepsTheIndex(t *testing.T) {
	e := New()
	mustAdd(t, e, "lin", "//a/c")
	bare := query.MustParse("//a[ b > 1 ]/c")
	bare.Source = ""
	if err := e.AddExtract("bare", bare); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, e, "miss", "//a[b > 5]/c")
	other := e.Replica()
	const doc = "<a><b>3</b><c>x</c></a>"
	check := func(when string, e *Engine) {
		t.Helper()
		out, err := e.MatchBytes(nil, []byte(doc), CaptureSlice)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !slices.Equal(out.IDs, []string{"lin", "bare"}) {
			t.Fatalf("%s: matched %v, want [lin bare]", when, out.IDs)
		}
		if len(out.Frags) != 1 || string(out.Frags[0].Data) != "<c>x</c>" {
			t.Fatalf("%s: fragments %v, want bare's <c>x</c>", when, out.Frags)
		}
	}
	check("before Rebuild", e)
	check("replica", other)
	before, warm := e.Stats(), other.Stats()
	ix, nfa, tr, ids, sids, nodes := e.index, e.nfa, e.tr, e.tr.ids.n, e.tr.sids.n, len(e.tr.nodes)
	e.Rebuild()
	if e.index != ix || e.nfa != nfa || e.tr != tr || tr.ids.n != ids || tr.sids.n != sids || len(tr.nodes) != nodes {
		t.Fatal("Rebuild replaced or patched the index")
	}
	check("after Rebuild", e)
	check("replica after Rebuild", other)
	after := e.Stats()
	if after.Rebuilds != 1 || after.SpineSteps != before.SpineSteps || after.SharedStates != before.SharedStates || after.PredGroups != before.PredGroups ||
		after.DFAMaterialized != before.DFAMaterialized {
		t.Errorf("rebuilt %s\n  before %s", after, before)
	}
	if st := other.Stats(); st.Rebuilds != 0 || st.DFAMaterialized != warm.DFAMaterialized {
		t.Errorf("the replica's memo restarted with the other engine's Rebuild: %s\n  before %s", st, warm)
	}
}

// TestEngineLinearQueriesNeedNoProgram backs the shortcut Add takes for the
// merged NFA's fragment: such a query is always streamable, and its
// frontier size is 1 without computing it.
func TestEngineLinearQueriesNeedNoProgram(t *testing.T) {
	d := &dice{data: make([]byte, 4096)}
	rand.New(rand.NewSource(1)).Read(d.data)
	for !d.done() {
		q := query.MustParse(churnQuery(d))
		if automaton.Linear(q) != nil {
			continue
		}
		if c := fragment.Streamable(q); !c.OK {
			t.Errorf("%s: linear, but not streamable: %s", q, c.Reason)
		}
		if fs := fragment.FrontierSize(q); fs != 1 {
			t.Errorf("%s: linear, but FS = %d", q, fs)
		}
	}
}
