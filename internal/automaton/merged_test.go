package automaton

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// owned is a runner with the owner it latches in: a match vector by output
// id and a count of its set entries, which is what the engine keeps, by
// result slot, for the runner's outputs.
type owned struct {
	*SharedRunner
	matched []bool
	count   int
}

func newOwned(m *MergedNFA) *owned {
	o := &owned{}
	o.SharedRunner = NewSharedRunner(m, o.latch)
	return o
}

func (o *owned) latch(outs []int) (first int) {
	for _, out := range outs {
		if out >= len(o.matched) {
			o.matched = append(o.matched, make([]bool, out+1-len(o.matched))...)
		}
		if !o.matched[out] {
			o.matched[out] = true
			first++
		}
	}
	o.count += first
	return first
}

// hit reports output out's verdict.
func (o *owned) hit(out int) bool { return out < len(o.matched) && o.matched[out] }

// Reset clears the owner's verdicts with the runner's state.
func (o *owned) Reset() {
	o.SharedRunner.Reset()
	clear(o.matched)
	o.count = 0
}

// startElement feeds a reference-tokenizer element name to the runner's
// one event surface, interned into its automaton's table as the byte
// tokenizer would have.
func startElement(r *owned, name string) { r.StartElementSym(r.m.tab.Intern(name)) }

// runMerged feeds a SAX stream to a runner and returns its owner's
// verdicts.
func runMerged(r *owned, events []sax.Event) *owned {
	for _, e := range events {
		switch e.Kind {
		case sax.StartDocument:
			r.StartDocument()
		case sax.StartElement:
			startElement(r, e.Name)
		case sax.EndElement:
			r.EndElement()
		}
	}
	return r
}

// TestMergedChildAxisPrecision is the classic merged-trie soundness trap:
// //a/b and //a//c share the state for //a, and the descendant-axis child
// c keeps that state alive across gap elements — which must NOT re-enable
// the child-axis edge to b at deeper levels.
func TestMergedChildAxisPrecision(t *testing.T) {
	m := NewMergedNFA(nil)
	for i, src := range []string{"//a/b", "//a//c"} {
		if _, err := m.Add(query.MustParse(src), i, false); err != nil {
			t.Fatalf("Add(%s): %v", src, err)
		}
	}
	r := newOwned(m)
	got := runMerged(r, sax.MustParse("<a><x><b/></x></a>"))
	if got.hit(0) {
		t.Errorf("//a/b matched <a><x><b/></x></a>: b is not a child of a")
	}
	if got.hit(1) {
		t.Errorf("//a//c matched a document with no c")
	}
	if st := r.Stats(); st != (DFAStats{PeakStack: 4, States: m.Stats().States, Transitions: 3, Materialized: 3, Symbols: 4}) {
		t.Errorf("runner stats %+v, want the memo's %+v with a peak stack of 4 ($ a x b)", st, m.Stats())
	}
	r.Reset()
	got = runMerged(r, sax.MustParse("<a><b/><x><c/></x></a>"))
	if !got.hit(0) || !got.hit(1) {
		t.Errorf("direct matches lost: got %v, want [true true]", got.matched)
	}
}

// TestMergedAttributeStateNeverEntered: an attribute step's state is looked
// up below its element, never entered by an element of its name. With /a/@b
// and /a/@* held, <a><b/></a> enters neither, and the memo holds neither;
// an attribute b of the a finds both, an attribute c the wildcard's alone.
func TestMergedAttributeStateNeverEntered(t *testing.T) {
	m := NewMergedNFA(nil)
	a := m.Hold(0, query.AxisChild, "a")
	named, wild := m.Hold(a, query.AxisAttribute, "b"), m.Hold(a, query.AxisAttribute, "*")
	r := newOwned(m)
	r.StartDocument()
	startElement(r, "a")
	if got := r.Attribute(m.tab.Intern("b"), nil); !slices.Equal(got, []int{named << 1, wild << 1}) {
		t.Errorf("attribute b of <a> enters %v, want the fresh items of %d and %d", got, named, wild)
	}
	if got := r.Attribute(m.tab.Intern("c"), nil); !slices.Equal(got, []int{wild << 1}) {
		t.Errorf("attribute c of <a> enters %v, want the fresh item of %d", got, wild)
	}
	startElement(r, "b")
	for _, it := range r.Entered() {
		if s, _ := Fresh(it); s == named || s == wild {
			t.Errorf("<b> below <a> entered the attribute state %d: item set %v", s, r.Entered())
		}
	}
	r.EndElement()
	r.EndElement()
	checkMemo(t, "after <a><b/></a>", m)
	if m.Size() != 1 || m.Slots() != 4 {
		t.Errorf("size %d slots %d, want 1 (no query is Added) and 4", m.Size(), m.Slots())
	}
}

func TestMergedPrefixSharing(t *testing.T) {
	m := NewMergedNFA(nil)
	for i := 0; i < 100; i++ {
		q := query.MustParse(fmt.Sprintf("//catalog/item/f%d", i))
		if _, err := m.Add(q, i, false); err != nil {
			t.Fatal(err)
		}
	}
	// root + catalog + item + 100 leaves.
	if got, want := m.Size(), 103; got != want {
		t.Errorf("merged trie size = %d, want %d (shared prefix)", got, want)
	}
}

func TestMergedRejectsOutsideFragment(t *testing.T) {
	m := NewMergedNFA(nil)
	for _, src := range []string{"/a[b]", "/a/@id", "/a[b > 5]/c"} {
		if _, err := m.Add(query.MustParse(src), 0, false); err == nil {
			t.Errorf("Add(%q) accepted; want error", src)
		}
	}
	if m.outputs != 0 {
		t.Errorf("rejected queries counted as outputs: %d", m.outputs)
	}
}

// TestMergedEquivalentToIndividual cross-checks the merged runner against
// one LazyDFA per query on random documents.
func TestMergedEquivalentToIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"a", "b", "c", "x"}
	steps := []string{"a", "b", "c", "x", "*"}
	for trial := 0; trial < 300; trial++ {
		nq := 1 + rng.Intn(6)
		var sources []string
		m := NewMergedNFA(nil)
		for i := 0; i < nq; i++ {
			depth := 1 + rng.Intn(4)
			src := ""
			for j := 0; j < depth; j++ {
				if rng.Intn(2) == 0 {
					src += "/"
				} else {
					src += "//"
				}
				src += steps[rng.Intn(len(steps))]
			}
			sources = append(sources, src)
			if _, err := m.Add(query.MustParse(src), i, false); err != nil {
				t.Fatalf("Add(%s): %v", src, err)
			}
		}
		doc := workload.RandomTree(rng, names, nil, 1+rng.Intn(5), 3).Events()
		got := runMerged(newOwned(m), doc)
		for i, src := range sources {
			nfa, err := FromQuery(query.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			d := NewLazyDFA(nfa)
			want, err := d.ProcessAll(doc)
			if err != nil {
				t.Fatal(err)
			}
			if got.hit(i) != want {
				t.Fatalf("trial %d: query %q: merged=%v individual=%v\nqueries: %v",
					trial, src, got.hit(i), want, sources)
			}
		}
	}
}

// feedMerged drives a SAX stream and returns Undecided after each
// element-start, for asserting when the dead-state analysis fires.
func feedMerged(r *owned, events []sax.Event) []int {
	var trace []int
	for _, e := range events {
		switch e.Kind {
		case sax.StartDocument:
			r.StartDocument()
		case sax.StartElement:
			startElement(r, e.Name)
			trace = append(trace, r.Undecided())
		case sax.EndElement:
			r.EndElement()
		}
	}
	return trace
}

// TestMergedUndecidedDeadStateAnalysis pins the per-state reachable-
// output sets: once the document root opens, outputs unreachable from
// its item set are decided negative, while descendant-axis queries (and
// anything reachable through a // gap) stay undecided.
func TestMergedUndecidedDeadStateAnalysis(t *testing.T) {
	build := func(srcs ...string) *owned {
		m := NewMergedNFA(nil)
		for i, src := range srcs {
			if _, err := m.Add(query.MustParse(src), i, false); err != nil {
				t.Fatalf("Add(%s): %v", src, err)
			}
		}
		return newOwned(m)
	}

	// Disjoint root: /a/b and /a/*/c die at <z>; //d survives any root
	// (its gap loop can still reach d at any depth).
	r := build("/a/b", "/a/*/c", "//d")
	trace := feedMerged(r, sax.MustParse("<z><y/></z>"))
	if trace[0] != 1 {
		t.Fatalf("after <z>: undecided=%d, want 1 (only //d alive)", trace[0])
	}
	if r.count != 0 {
		t.Fatalf("nothing should have matched, got %d", r.count)
	}

	// Matching root: everything below /a stays undecided until it
	// matches or the document ends.
	r.Reset()
	trace = feedMerged(r, sax.MustParse("<a><b/><x><c/></x></a>"))
	if trace[0] != 3 {
		t.Fatalf("after <a>: undecided=%d, want 3", trace[0])
	}
	// <b> matches /a/b; /a/*/c and //d remain open.
	if trace[1] != 2 {
		t.Fatalf("after <b>: undecided=%d, want 2", trace[1])
	}
	// <x> opens the wildcard's scope; <c> below it matches /a/*/c.
	if trace[3] != 1 {
		t.Fatalf("after <c>: undecided=%d, want 1 (//d)", trace[3])
	}
	if !r.hit(0) || !r.hit(1) || r.hit(2) {
		t.Fatalf("matched = %v, want [true true false]", r.matched)
	}

	// All-dead: the runner must keep verdicts latched and stop doing
	// per-element work (Undecided 0 from the first tag on).
	r2 := build("/news/item", "/news/sports")
	trace = feedMerged(r2, sax.MustParse("<catalog><item/><sports/></catalog>"))
	for i, u := range trace {
		if u != 0 {
			t.Fatalf("element %d: undecided=%d, want 0", i, u)
		}
	}
	if r2.count != 0 {
		t.Fatalf("dead queries matched: %v", r2.matched)
	}
}

// TestMergedRemoveUnlinksAndReusesOutputs: Remove drops the output id and
// unlinks exactly the states no other query passes through, and the next Add
// takes the freed state slots before the vector grows. The ids are the
// caller's, so one Remove gave up is the next Add's to take again.
func TestMergedRemoveUnlinksAndReusesOutputs(t *testing.T) {
	m := NewMergedNFA(nil)
	var at []int
	for i, src := range []string{"//a/b/c", "//a/b", "//a/x//y"} {
		cur, err := m.Add(query.MustParse(src), i, false)
		if err != nil {
			t.Fatal(err)
		}
		at = append(at, cur)
	}
	if m.Size() != 6 || m.Slots() != 6 { // root a b c x y
		t.Fatalf("size %d slots %d, want 6 and 6", m.Size(), m.Slots())
	}
	m.Remove(at[0], 0, false) // c goes; a and b serve //a/b
	if m.Size() != 5 || m.Slots() != 6 || m.outputs != 2 {
		t.Fatalf("after removing //a/b/c: size %d slots %d outputs %d, want 5, 6, 2", m.Size(), m.Slots(), m.outputs)
	}
	m.Remove(at[2], 2, false) // x and y go
	if m.Size() != 3 || m.Slots() != 6 {
		t.Fatalf("after removing //a/x//y: size %d slots %d, want 3 and 6", m.Size(), m.Slots())
	}
	cur, err := m.Add(query.MustParse("/q/r/s"), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.outputs != 2 || m.Size() != 6 || m.Slots() != 6 {
		t.Fatalf("outputs %d size %d slots %d, want 2, 6 and 6: state slots are reused", m.outputs, m.Size(), m.Slots())
	}
	r := runMerged(newOwned(m), sax.MustParse("<q><r><s/></r></q>"))
	if !r.hit(2) || r.count != 1 || !slices.Equal(m.states[cur].outputs, []int{2}) {
		t.Fatalf("the reused id 2 latched %v (%d matched), accepted at %v", r.hit(2), r.count, m.states[cur].outputs)
	}
	if _, err := m.Add(query.MustParse("/q/r/t"), 0, false); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 7 || m.Slots() != 7 {
		t.Fatalf("size %d slots %d, want 7 and 7: the free list is empty, so the vector grows", m.Size(), m.Slots())
	}
}

// TestMergedChurnStaysBounded: a runner that lives through thousands of
// replacements, a document between each, matches as one built afresh does,
// the automaton holds no more state slots than its peak, and its memo
// references its live item sets and nothing else — unlinked states are
// reused and dropped sets let go (checkMemo).
func TestMergedChurnStaysBounded(t *testing.T) {
	m := NewMergedNFA(nil)
	r := newOwned(m)
	const n = 100
	at := make([]int, n)
	add := func(i int) {
		cur, err := m.Add(query.MustParse(fmt.Sprintf("//a/b%d//c", i)), i, false)
		if err != nil {
			t.Fatal(err)
		}
		at[i] = cur
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	peak := m.Slots()
	for round := 0; round < 3000; round++ {
		i := round % n
		doc := sax.MustParse(fmt.Sprintf("<a><b%d><x><c/></x></b%d><b%d/></a>", i, i, (i+1)%n))
		r.Reset()
		feedMerged(r, doc)
		if !r.hit(i) || r.count != 1 {
			t.Fatalf("round %d: matched %d outputs, b%d's: %v", round, r.count, i, r.hit(i))
		}
		m.Remove(at[i], i, false)
		add(i)
		if m.Slots() > peak+2 {
			t.Fatalf("round %d: %d state slots, %d at the start", round, m.Slots(), peak)
		}
		checkMemo(t, fmt.Sprintf("round %d", round), m)
	}
	fresh := NewMergedNFA(nil)
	fr := newOwned(fresh)
	for i := 0; i < n; i++ {
		if _, err := fresh.Add(query.MustParse(fmt.Sprintf("//a/b%d//c", i)), i, false); err != nil {
			t.Fatal(err)
		}
	}
	doc := sax.MustParse("<a><b1><c/></b1><b2><b3><c/></b3></b2><c/></a>")
	r.Reset()
	feedMerged(r, doc)
	fr.Reset()
	feedMerged(fr, doc)
	if r.count != 2 || fr.count != 2 { // b1's and b2's
		t.Fatalf("patched runner matched %d, fresh %d, want 2", r.count, fr.count)
	}
}

// walkReach is the dead-state analysis done the long way: the outputs in
// the subtrees under the enabled children of an item set — accepted there,
// or gated there, as gated lists them by state.
func walkReach(m *MergedNFA, items []int, gated map[int][]int) map[int]bool {
	out := map[int]bool{}
	var subtree func(s int)
	subtree = func(s int) {
		for _, o := range m.states[s].outputs {
			out[o] = true
		}
		for _, o := range gated[s] {
			out[o] = true
		}
		for _, c := range m.states[s].kids {
			subtree(c)
		}
	}
	for _, it := range items {
		for e, c := range m.states[it>>1].kids {
			if e.axis == query.AxisDescendant || it&loopingBit == 0 {
				subtree(c)
			}
		}
	}
	return out
}

// TestMergedUndecidedMatchesWalk holds the runner's count of open outputs —
// taken from the through counts when the root element opens, decremented
// per latch afterwards — against a walk of the trie, on automata that are
// patched between documents, and the patched runner's verdicts against a
// runner built afresh.
func TestMergedUndecidedMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c"}
	steps := []string{"a", "b", "c", "*"}
	randQuery := func() string {
		src := ""
		for j := 1 + rng.Intn(3); j > 0; j-- {
			src += []string{"/", "//"}[rng.Intn(2)] + steps[rng.Intn(len(steps))]
		}
		return src
	}
	for trial := 0; trial < 60; trial++ {
		m := NewMergedNFA(nil)
		r := newOwned(m)
		live := map[int]patchSub{} // by output
		for round := 0; round < 40; round++ {
			for ops := 1 + rng.Intn(3); ops > 0; ops-- {
				if len(live) > 0 && rng.Intn(5) < 2 {
					for out, s := range live { // whichever the map yields first
						m.Remove(s.at, out, false)
						delete(live, out)
						break
					}
					continue
				}
				src := randQuery()
				out := 0 // the lowest free id, as a free list would hand out
				for _, used := live[out]; used; _, used = live[out] {
					out++
				}
				cur, err := m.Add(query.MustParse(src), out, false)
				if err != nil {
					t.Fatal(err)
				}
				live[out] = patchSub{out: out, at: cur, src: src}
			}
			doc := workload.RandomTree(rng, names, nil, 1+rng.Intn(4), 3).Events()
			r.Reset()
			var reach map[int]bool
			for _, e := range doc {
				switch e.Kind {
				case sax.StartDocument:
					r.StartDocument()
				case sax.EndElement:
					r.EndElement()
				case sax.StartElement:
					startElement(r, e.Name)
					if reach == nil {
						reach = walkReach(m, r.stack[len(r.stack)-1].items, nil)
					}
					open := 0
					for o := range reach {
						if !r.hit(o) {
							open++
						}
					}
					if r.Undecided() != open {
						t.Fatalf("trial %d round %d: after <%s>: Undecided = %d, the walk finds %d open\nqueries %v", trial, round, e.Name, r.Undecided(), open, live)
					}
				}
			}
			fm := NewMergedNFA(nil)
			for out, s := range live {
				fm.Add(query.MustParse(s.src), out, false)
			}
			want := runMerged(newOwned(fm), doc)
			for out, s := range live {
				if r.hit(out) != want.hit(out) {
					t.Fatalf("trial %d round %d: %s: patched %v, fresh %v\nqueries %v", trial, round, s.src, r.hit(out), want.hit(out), live)
				}
			}
			if m.Size() != fm.Size() || m.outputs != fm.outputs {
				t.Fatalf("trial %d round %d: patched automaton has %d states and %d outputs, a fresh one %d and %d", trial, round, m.Size(), m.outputs, fm.Size(), fm.outputs)
			}
		}
	}
}

// draws is where a patch run (runPatch) reads its decisions: a byte string,
// each byte answering one draw, or — while the seed corpus is recorded —
// TestMergedUndecidedMatchesWalk's random source, each draw appended to data
// as the byte that answers it the same way.
type draws struct {
	data []byte
	pos  int
	rng  *rand.Rand
}

func (d *draws) n(k int) int {
	if d.rng != nil {
		v := d.rng.Intn(k)
		d.data = append(d.data, byte(v))
		return v
	}
	if d.pos >= len(d.data) {
		return 0
	}
	v := int(d.data[d.pos]) % k
	d.pos++
	return v
}

func (d *draws) done() bool { return d.rng == nil && d.pos >= len(d.data) }

// patchQuery and patchDoc draw what TestMergedUndecidedMatchesWalk draws:
// one to three steps over a, b, c and *, and a tree over a, b and c at most
// four levels deep. gatedQuery draws a gated output's query: one of those,
// with a predicate on one of its steps, or an attribute step below its
// last, which no element enters.
func patchQuery(d *draws) string {
	src := ""
	for j := 1 + d.n(3); j > 0; j-- {
		src += []string{"/", "//"}[d.n(2)] + []string{"a", "b", "c", "*"}[d.n(4)]
	}
	return src
}

func gatedQuery(d *draws) string {
	src := ""
	for j := 1 + d.n(3); j > 0; j-- {
		src += []string{"/", "//"}[d.n(2)] + []string{"a", "b", "c", "*"}[d.n(4)] + []string{"", "", "[b]"}[d.n(3)]
	}
	if d.n(3) == 0 {
		src += "/@a"
	}
	return src
}

func patchDoc(d *draws) []sax.Event {
	doc := []sax.Event{sax.StartDoc()}
	var elem func(depth int)
	elem = func(depth int) {
		name := []string{"a", "b", "c"}[d.n(3)]
		doc = append(doc, sax.Start(name))
		for k := d.n(4); depth < 3 && k > 0; k-- {
			elem(depth + 1)
		}
		doc = append(doc, sax.End(name))
	}
	elem(0)
	return append(doc, sax.EndDoc())
}

// patchSub is a query standing in a patched automaton: its output id, the
// state Add put it at, and whether it is gated.
type patchSub struct {
	out, at int
	src     string
	gated   bool
}

// gatedAt lists live's gated outputs by the state each sits at.
func gatedAt(live []patchSub) map[int][]int {
	at := map[int][]int{}
	for _, s := range live {
		if s.gated {
			at[s.at] = append(at[s.at], s.out)
		}
	}
	return at
}

// gate latches, as the owner of a gated output does once its predicates
// hold, the gated outputs at the fresh states of the set the current
// element entered — as if every predicate held at once — and counts the
// first latches out of the runner.
func (o *owned) gate(gated map[int][]int) {
	for _, it := range o.Entered() {
		s, fresh := Fresh(it)
		for _, out := range gated[s] {
			if !fresh || o.hit(out) {
				continue
			}
			o.latch([]int{out})
			o.Latched(s, 1)
		}
	}
}

// runPatch plays an Add/Remove sequence against one automaton and the
// runners over its memo, a document each round, and after every op holds
// each runner to checkPatched and the memo to checkMemo. One op in ten is
// a burst — forty one-off queries, a document through them all, and their
// removal — so that the memo drops item sets; after each removal no set it
// can reach may hold an unlinked state. Another makes one more runner over
// the automaton, as a replica or a rebuilt engine does, on the memo as warm
// as the rounds before left it (past four, the oldest is let go). Two more
// hold the steps of a path, as the engine's trie does with a predicate's,
// half of them ending in an attribute step, and release a held path: they
// link and unlink states but output nothing. One Add in three is of a gated
// output, which no accept list holds. It returns how many bursts it ran and
// runners it made.
func runPatch(t testing.TB, d *draws, rounds int) (bursts, runners int) {
	m := NewMergedNFA(nil)
	rs := []*owned{newOwned(m)}
	var live []patchSub
	var held [][]int // each path's held states, root first
	check := func(label string, doc []sax.Event) {
		for i, r := range rs {
			checkPatched(t, fmt.Sprintf("%s, runner %d", label, i), m, r, live, doc)
		}
		checkMemo(t, label, m)
	}
	add := func(src string, gated bool) {
		out := 0 // the lowest free id, as a free list would hand out
		for slices.ContainsFunc(live, func(s patchSub) bool { return s.out == out }) {
			out++
		}
		cur, err := m.Add(query.MustParse(src), out, gated)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, patchSub{out, cur, src, gated})
	}
	remove := func(i int) {
		m.Remove(live[i].at, live[i].out, live[i].gated)
		live = slices.Delete(live, i, i+1)
	}
	for round := 0; round < rounds && !d.done(); round++ {
		doc := patchDoc(d)
		for ops, op := 1+d.n(3), 0; op < ops; op++ {
			switch k := d.n(10); {
			case k == 8:
				var path []int
				for u, cur := query.MustParse(patchQuery(d)).Root.Successor, 0; u != nil; u = u.Successor {
					cur = m.Hold(cur, u.Axis, u.NTest)
					path = append(path, cur)
				}
				if d.n(2) == 0 {
					path = append(path, m.Hold(path[len(path)-1], query.AxisAttribute, []string{"a", "*"}[d.n(2)]))
				}
				held = append(held, path)
			case k == 9 && len(held) > 0:
				i := d.n(len(held))
				for j := len(held[i]) - 1; j >= 0; j-- {
					m.Release(held[i][j])
				}
				held = slices.Delete(held, i, i+1)
			case k == 7: // not 0, which an exhausted input draws forever
				bursts++
				n := len(live)
				burst := []sax.Event{sax.StartDoc(), sax.Start("z")}
				for i := 0; i < 40; i++ {
					add(fmt.Sprintf("/z/t%d/u", i), false)
					name := fmt.Sprintf("t%d", i)
					burst = append(burst, sax.Start(name), sax.Start("u"), sax.End("u"), sax.End(name))
				}
				burst = append(burst, sax.End("z"), sax.EndDoc())
				check(fmt.Sprintf("round %d: burst", round), burst)
				for len(live) > n {
					remove(len(live) - 1)
					label := fmt.Sprintf("round %d: burst, %d left", round, len(live)-n)
					checkAccepts(t, label, m)
					checkMemo(t, label, m)
				}
			case k < 3 && len(live) > 0:
				remove(d.n(len(live)))
			case k == 3:
				runners++
				if rs = append(rs, newOwned(m)); len(rs) > 4 {
					rs = rs[1:]
				}
			case d.n(3) == 0:
				add(gatedQuery(d), true)
			default:
				add(patchQuery(d), false)
			}
			check(fmt.Sprintf("round %d op %d", round, op), doc)
		}
	}
	return bursts, runners
}

// checkAccepts holds every memoized item set's accept list to the outputs
// of its fresh states.
func checkAccepts(t testing.TB, label string, m *MergedNFA) {
	t.Helper()
	for _, d := range m.index {
		var want []int
		for _, it := range d.items {
			if it&loopingBit == 0 {
				want = append(want, m.states[it>>1].outputs...)
			}
		}
		got := slices.Clone(d.accepts)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: item set %v accepts %v, its fresh states %v", label, d.items, got, want)
		}
	}
}

// checkMemo holds the memo to what it references: every set a runner can
// reach from the start set is interned; no interned set holds an unlinked
// state, or the looping item of a state that can no longer loop; setsOf
// lists, for each state, exactly the interned sets holding it, so a dropped
// set is referenced nowhere; and the counters are what the rows hold.
func checkMemo(t testing.TB, label string, m *MergedNFA) {
	t.Helper()
	seen := map[*dstate]bool{m.start: true}
	for queue := []*dstate{m.start}; len(queue) > 0; queue = queue[1:] {
		d := queue[0]
		if m.index[stateSet(d.items).key()] != d {
			t.Fatalf("%s: item set %v is reachable but not interned", label, d.items)
		}
		if r := d.row.Load(); r != nil {
			for sym := range *r {
				if to := (*r)[sym].Load(); to != nil && !seen[to] {
					seen[to] = true
					queue = append(queue, to)
				}
			}
		}
	}
	entries, transitions := 0, 0
	for _, d := range m.index {
		for i, it := range d.items {
			switch s := it >> 1; {
			case s != 0 && m.states[s].parent < 0:
				t.Fatalf("%s: item set %v holds the unlinked state %d", label, d.items, s)
			case it&loopingBit != 0 && m.states[s].descKids == 0:
				t.Fatalf("%s: item set %v loops at %d, which has no descendant child", label, d.items, s)
			case m.states[s].edge.axis == query.AxisAttribute:
				t.Fatalf("%s: item set %v holds the attribute state %d", label, d.items, s)
			}
			if i == 0 || it>>1 != d.items[i-1]>>1 {
				entries++
				if !slices.Contains(m.setsOf[it>>1], d) {
					t.Fatalf("%s: item set %v is missing from the sets holding %d", label, d.items, it>>1)
				}
			}
		}
		if r := d.row.Load(); r != nil {
			for sym := range *r {
				if (*r)[sym].Load() != nil {
					transitions++
				}
			}
		}
	}
	held := 0
	for _, hs := range m.setsOf {
		held += len(hs)
	}
	if st := m.Stats(); held != entries || st.States != len(m.index) || st.Transitions != transitions {
		t.Fatalf("%s: setsOf holds %d entries for %d; %d states and %d transitions counted for %d and %d",
			label, held, entries, st.States, st.Transitions, len(m.index), transitions)
	}
}

// checkPatched runs doc through the patched runner and holds it to what
// TestMergedUndecidedMatchesWalk does — Undecided to a walk of the trie
// after every element start — and, in lockstep, to a runner over an
// automaton built afresh from the Added queries alone, which holds no step:
// Undecided after every element start, the verdicts, and Size. The owners
// latch the gated outputs (gate). Its count of what is left is held to its
// owner's first latches, and the accept lists, before and after, to
// checkAccepts.
func checkPatched(t testing.TB, label string, m *MergedNFA, r *owned, live []patchSub, doc []sax.Event) {
	t.Helper()
	label = fmt.Sprintf("%s, queries %v", label, live)
	checkAccepts(t, label, m)
	fm := NewMergedNFA(nil)
	fresh := slices.Clone(live)
	for i, s := range fresh {
		fresh[i].at, _ = fm.Add(query.MustParse(s.src), s.out, s.gated)
	}
	gated, freshGated := gatedAt(live), gatedAt(fresh)
	want := newOwned(fm)
	r.Reset()
	var reach map[int]bool
	for _, e := range doc {
		switch e.Kind {
		case sax.StartDocument:
			r.StartDocument()
			want.StartDocument()
		case sax.EndElement:
			r.EndElement()
			want.EndElement()
		case sax.StartElement:
			startElement(r, e.Name)
			startElement(want, e.Name)
			r.gate(gated)
			want.gate(freshGated)
			if r.Undecided() != want.Undecided() {
				t.Fatalf("%s: after <%s>: Undecided = %d, a fresh runner's %d", label, e.Name, r.Undecided(), want.Undecided())
			}
			if reach == nil {
				reach = walkReach(m, r.stack[len(r.stack)-1].items, gated)
			}
			open := 0
			for o := range reach {
				if !r.hit(o) {
					open++
				}
			}
			if r.Undecided() != open {
				t.Fatalf("%s: after <%s>: Undecided = %d, the walk finds %d open", label, e.Name, r.Undecided(), open)
			}
		}
	}
	if m.Size() != fm.Size() || m.outputs != fm.outputs {
		t.Fatalf("%s: %d states and %d outputs counted, a fresh automaton's %d and %d", label, m.Size(), m.outputs, fm.Size(), fm.outputs)
	}
	matched := 0
	for _, s := range live {
		if r.hit(s.out) != want.hit(s.out) {
			t.Fatalf("%s: %s: patched %v, fresh %v", label, s.src, r.hit(s.out), want.hit(s.out))
		}
		if r.hit(s.out) {
			matched++
		}
	}
	if matched != r.count {
		t.Fatalf("%s: %d outputs latched first, %d of them live", label, r.count, matched)
	}
	checkAccepts(t, label+", after the document", m)
}

// sharedCase builds an automaton over E18's shape — //a/*^k/b and
// //a/*^k/c for k = 1…4 — whose lazy DFA grows with the paths documents
// take, and returns it with its output count.
func sharedCase(t *testing.T) (*MergedNFA, int) {
	m := NewMergedNFA(nil)
	for i := 0; i < 8; i++ {
		src := "//a" + strings.Repeat("/*", 1+i/2) + "/" + "bc"[i%2:i%2+1]
		if _, err := m.Add(query.MustParse(src), i, false); err != nil {
			t.Fatal(err)
		}
	}
	return m, 8
}

// sameVerdicts holds a runner over a shared memo to a private runner's on
// doc.
func sameVerdicts(t *testing.T, label string, got *owned, n int, doc []sax.Event) {
	t.Helper()
	m, _ := sharedCase(t)
	want := runMerged(newOwned(m), doc)
	for out := 0; out < n; out++ {
		if got.hit(out) != want.hit(out) {
			t.Errorf("%s: output %d: %v over the shared memo, %v over a private one", label, out, got.hit(out), want.hit(out))
		}
	}
}

// TestMergedLatchPanicLeavesMemoUsable: a latch that panics on a cold
// transition — the miss has just memoized it — leaves the memo unlocked and
// whole. Another runner over the automaton then matches a document within a
// second, as a runner over a fresh automaton does.
func TestMergedLatchPanicLeavesMemoUsable(t *testing.T) {
	m, n := sharedCase(t)
	doc := sax.MustParse("<a><x><b/><c/></x><y><z><b/></z></y></a>")
	sick := &owned{SharedRunner: NewSharedRunner(m, func([]int) int { panic("latch fault") })}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the latch never ran")
			}
		}()
		runMerged(sick, doc)
	}()
	done := make(chan *owned, 1)
	go func() { done <- runMerged(newOwned(m), doc) }()
	select {
	case got := <-done:
		sameVerdicts(t, "after the panic", got, n, doc)
	case <-time.After(time.Second):
		t.Fatal("no runner finished within a second of the panic: the memo stayed locked")
	}
	checkMemo(t, "after the panic", m)
}

// TestMergedRunnersRaceOnColdMemo: four runners over one automaton match
// path-distinct documents at once from a cold memo, so their misses race
// on the same rows; each verdict is a private runner's. Run it with -race.
func TestMergedRunnersRaceOnColdMemo(t *testing.T) {
	m, n := sharedCase(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		docs := make([][]sax.Event, 25)
		rng := rand.New(rand.NewSource(int64(g)))
		for i := range docs {
			docs[i] = workload.RandomTree(rng, []string{"a", "b", "c", "d", "x", "y"}, nil, 8, 3).Events()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newOwned(m)
			for i, doc := range docs {
				r.Reset()
				sameVerdicts(t, fmt.Sprintf("runner %d document %d", g, i), runMerged(r, doc), n, doc)
			}
		}()
	}
	wg.Wait()
	checkMemo(t, "after the race", m)
}

// FuzzMergedPatch: whatever Add/Remove sequence patches the automaton, and
// whenever its runners were made, every item set of the one memo accepts
// what its fresh states do, the memo references what it holds and no
// unlinked state, and every runner's dead-state count is the walk's and its
// verdicts a fresh runner's.
func FuzzMergedPatch(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	bursts, runners := 0, 0
	for seed := 0; seed < 4; seed++ {
		d := &draws{rng: rng}
		b, r := runPatch(f, d, 12)
		bursts, runners = bursts+b, runners+r
		f.Add(d.data)
	}
	if bursts == 0 || runners == 0 {
		f.Fatalf("the seeds ran %d bursts and made %d runners: the memo went unchecked across drops or across runners", bursts, runners)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runPatch(t, &draws{data: data[:min(len(data), 512)]}, 32)
	})
}
