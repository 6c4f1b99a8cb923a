package automaton

import (
	"fmt"
	"math/rand"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// startElement feeds a reference-tokenizer element name to the runner's
// one event surface, interned into its automaton's table as the byte
// tokenizer would have.
func startElement(r *SharedRunner, name string) { r.StartElementSym(r.m.tab.Intern(name)) }

// runMerged feeds a SAX stream to a SharedRunner and returns the match
// vector.
func runMerged(r *SharedRunner, events []sax.Event) []bool {
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
	return r.Matched
}

// TestMergedChildAxisPrecision is the classic merged-trie soundness trap:
// //a/b and //a//c share the state for //a, and the descendant-axis child
// c keeps that state alive across gap elements — which must NOT re-enable
// the child-axis edge to b at deeper levels.
func TestMergedChildAxisPrecision(t *testing.T) {
	m := NewMergedNFA(nil)
	for i, src := range []string{"//a/b", "//a//c"} {
		if out, err := m.Add(query.MustParse(src)); err != nil || out != i {
			t.Fatalf("Add(%s) = %d, %v; want output %d", src, out, err, i)
		}
	}
	r := NewSharedRunner(m)
	got := runMerged(r, sax.MustParse("<a><x><b/></x></a>"))
	if got[0] {
		t.Errorf("//a/b matched <a><x><b/></x></a>: b is not a child of a")
	}
	if got[1] {
		t.Errorf("//a//c matched a document with no c")
	}
	r.Reset()
	got = runMerged(r, sax.MustParse("<a><b/><x><c/></x></a>"))
	if !got[0] || !got[1] {
		t.Errorf("direct matches lost: got %v, want [true true]", got)
	}
}

func TestMergedPrefixSharing(t *testing.T) {
	m := NewMergedNFA(nil)
	for i := 0; i < 100; i++ {
		q := query.MustParse(fmt.Sprintf("//catalog/item/f%d", i))
		if _, err := m.Add(q); err != nil {
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
		if _, err := m.Add(query.MustParse(src)); err == nil {
			t.Errorf("Add(%q) accepted; want error", src)
		}
	}
	if m.Outputs() != 0 {
		t.Errorf("rejected queries counted as outputs: %d", m.Outputs())
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
			if out, err := m.Add(query.MustParse(src)); err != nil || out != i {
				t.Fatalf("Add(%s) = %d, %v; want output %d", src, out, err, i)
			}
		}
		doc := workload.RandomTree(rng, names, nil, 1+rng.Intn(5), 3).Events()
		r := NewSharedRunner(m)
		got := runMerged(r, doc)
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
			if got[i] != want {
				t.Fatalf("trial %d: query %q: merged=%v individual=%v\nqueries: %v",
					trial, src, got[i], want, sources)
			}
		}
	}
}

// feedMerged drives a SAX stream and returns Undecided after each
// element-start, for asserting when the dead-state analysis fires.
func feedMerged(r *SharedRunner, events []sax.Event) []int {
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
	build := func(srcs ...string) *SharedRunner {
		m := NewMergedNFA(nil)
		for i, src := range srcs {
			if out, err := m.Add(query.MustParse(src)); err != nil || out != i {
				t.Fatalf("Add(%s) = %d, %v; want output %d", src, out, err, i)
			}
		}
		return NewSharedRunner(m)
	}

	// Disjoint root: /a/b and /a/*/c die at <z>; //d survives any root
	// (its gap loop can still reach d at any depth).
	r := build("/a/b", "/a/*/c", "//d")
	trace := feedMerged(r, sax.MustParse("<z><y/></z>"))
	if trace[0] != 1 {
		t.Fatalf("after <z>: undecided=%d, want 1 (only //d alive)", trace[0])
	}
	if r.MatchedCount() != 0 {
		t.Fatalf("nothing should have matched, got %d", r.MatchedCount())
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
	if !r.Matched[0] || !r.Matched[1] || r.Matched[2] {
		t.Fatalf("matched = %v, want [true true false]", r.Matched)
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
	if r2.MatchedCount() != 0 {
		t.Fatalf("dead queries matched: %v", r2.Matched)
	}
}

// TestMergedRemoveUnlinksAndReusesOutputs: Remove frees the output id and
// unlinks exactly the states no other query passes through, and the next Add
// takes the freed id and the freed state slots before either vector grows.
func TestMergedRemoveUnlinksAndReusesOutputs(t *testing.T) {
	m := NewMergedNFA(nil)
	var outs []int
	for _, src := range []string{"//a/b/c", "//a/b", "//a/x//y"} {
		out, err := m.Add(query.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if m.Size() != 6 || m.Slots() != 6 { // root a b c x y
		t.Fatalf("size %d slots %d, want 6 and 6", m.Size(), m.Slots())
	}
	m.Remove(outs[0]) // c goes; a and b serve //a/b
	if m.Size() != 5 || m.Slots() != 6 || m.Outputs() != 2 {
		t.Fatalf("after removing //a/b/c: size %d slots %d outputs %d, want 5, 6, 2", m.Size(), m.Slots(), m.Outputs())
	}
	m.Remove(outs[2]) // x and y go
	if m.Size() != 3 || m.Slots() != 6 {
		t.Fatalf("after removing //a/x//y: size %d slots %d, want 3 and 6", m.Size(), m.Slots())
	}
	out, err := m.Add(query.MustParse("/q/r/s"))
	if err != nil {
		t.Fatal(err)
	}
	if out != outs[0] && out != outs[2] {
		t.Fatalf("Add after two removals returned output %d, want a freed one of %v", out, outs)
	}
	if m.OutputCap() != 3 || m.Size() != 6 || m.Slots() != 6 {
		t.Fatalf("output cap %d size %d slots %d, want 3, 6 and 6: ids and state slots are reused", m.OutputCap(), m.Size(), m.Slots())
	}
	if _, err := m.Add(query.MustParse("/q/r/t")); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 7 || m.Slots() != 7 {
		t.Fatalf("size %d slots %d, want 7 and 7: the free list is empty, so the vector grows", m.Size(), m.Slots())
	}
}

// TestMergedChurnStaysBounded: a runner that lives through thousands of
// replacements, a document between each, matches as one built afresh does and
// holds no more state slots than the automaton's peak and no more item-set
// slots than a small multiple of the live sets — unlinked states are reused
// and dropped sets squeezed out.
func TestMergedChurnStaysBounded(t *testing.T) {
	m := NewMergedNFA(nil)
	r := NewSharedRunner(m)
	const n = 100
	outs := make([]int, n)
	add := func(i int) {
		out, err := m.Add(query.MustParse(fmt.Sprintf("//a/b%d//c", i)))
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
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
		if !r.Matched[outs[i]] || r.MatchedCount() != 1 {
			t.Fatalf("round %d: matched %d outputs, b%d's: %v", round, r.MatchedCount(), i, r.Matched[outs[i]])
		}
		m.Remove(outs[i])
		add(i)
		if m.Slots() > peak+2 {
			t.Fatalf("round %d: %d state slots, %d at the start", round, m.Slots(), peak)
		}
		if live := r.Stats().States; len(r.sets) > 2*live+65 {
			t.Fatalf("round %d: %d item-set slots for %d live sets", round, len(r.sets), live)
		}
	}
	fresh := NewMergedNFA(nil)
	fr := NewSharedRunner(fresh)
	for i := 0; i < n; i++ {
		if _, err := fresh.Add(query.MustParse(fmt.Sprintf("//a/b%d//c", i))); err != nil {
			t.Fatal(err)
		}
	}
	doc := sax.MustParse("<a><b1><c/></b1><b2><b3><c/></b3></b2><c/></a>")
	r.Reset()
	feedMerged(r, doc)
	fr.Reset()
	feedMerged(fr, doc)
	if r.MatchedCount() != 2 || fr.MatchedCount() != 2 { // b1's and b2's
		t.Fatalf("patched runner matched %d, fresh %d, want 2", r.MatchedCount(), fr.MatchedCount())
	}
}

// walkReach is the dead-state analysis done the long way: the outputs
// accepted in the subtrees under the enabled children of an item set.
func walkReach(m *MergedNFA, items []int) map[int]bool {
	out := map[int]bool{}
	var subtree func(s int)
	subtree = func(s int) {
		for _, o := range m.states[s].outputs {
			out[o] = true
		}
		for _, c := range m.states[s].kids {
			subtree(c)
		}
	}
	for _, it := range items {
		for e, c := range m.states[it>>1].kids {
			if e.descendant || it&loopingBit == 0 {
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
		r := NewSharedRunner(m)
		live := map[int]string{} // output → query
		for round := 0; round < 40; round++ {
			for ops := 1 + rng.Intn(3); ops > 0; ops-- {
				if len(live) > 0 && rng.Intn(5) < 2 {
					for out := range live { // whichever the map yields first
						m.Remove(out)
						delete(live, out)
						break
					}
					continue
				}
				src := randQuery()
				out, err := m.Add(query.MustParse(src))
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := live[out]; dup {
					t.Fatalf("Add returned output %d, which is in use", out)
				}
				live[out] = src
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
						reach = walkReach(m, r.sets[r.stack[len(r.stack)-1]])
					}
					open := 0
					for o := range reach {
						if !r.Matched[o] {
							open++
						}
					}
					if r.Undecided() != open {
						t.Fatalf("trial %d round %d: after <%s>: Undecided = %d, the walk finds %d open\nqueries %v", trial, round, e.Name, r.Undecided(), open, live)
					}
				}
			}
			fm := NewMergedNFA(nil)
			fresh := map[int]int{} // patched output → fresh output
			for out, src := range live {
				fresh[out], _ = fm.Add(query.MustParse(src))
			}
			want := runMerged(NewSharedRunner(fm), doc)
			for out, src := range live {
				if r.Matched[out] != want[fresh[out]] {
					t.Fatalf("trial %d round %d: %s: patched %v, fresh %v\nqueries %v", trial, round, src, r.Matched[out], want[fresh[out]], live)
				}
			}
			if m.Size() != fm.Size() || m.Outputs() != fm.Outputs() {
				t.Fatalf("trial %d round %d: patched automaton has %d states and %d outputs, a fresh one %d and %d", trial, round, m.Size(), m.Outputs(), fm.Size(), fm.Outputs())
			}
		}
	}
}
