package engine

import (
	"fmt"
	"slices"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// groupDocs exercise a group's value handling: no value, one, two in either
// order, padded, negative, decimal, non-numeric and empty text, a value
// after the continuation, and a nested candidate with its own values.
var groupDocs = []string{
	`<r><a><c></c></a></r>`,
	`<r><a><b>2</b><c></c></a></r>`,
	`<r><a><c></c><b>1</b><b>3</b></a></r>`,
	`<r><a><b>3</b><b>1</b><c></c></a></r>`,
	`<r><a><b> 2 </b><c></c></a><a><b>-1</b><c></c></a></r>`,
	`<r><a><b>2.0</b><c></c></a><a><b>x</b><b></b><c></c></a></r>`,
	`<r><a><b>0</b><a><b>3</b><c></c></a><c></c></a></r>`,
	`<r><a><d><b>2</b></d><d><b>x</b></d><c></c></a></r>`,
}

// checkGroupSet runs every document through e and holds each standing
// subscription's verdict against the tree evaluator.
func checkGroupSet(t *testing.T, e *Engine, subs map[string]string, step string) {
	t.Helper()
	for _, doc := range groupDocs {
		got := run(t, e, doc)
		root := tree.MustParse(doc)
		for id, src := range subs {
			if want := semantics.BoolEval(query.MustParse(src), root); got[id] != want {
				t.Fatalf("%s: %s on %s: engine %v, tree evaluator %v", step, src, doc, got[id], want)
			}
		}
	}
}

// TestPredicateGroupPatching walks groups of every class through their
// life: born with one member, grown in and out of constant order, holding
// members with equal constants, shrunk to one member and gone — with the
// verdicts of the standing members right at every step, and the compile-time
// shape (Stats.PredGroups, LargestGroup, PredNodes) that of the set, not of
// its history.
func TestPredicateGroupPatching(t *testing.T) {
	e := New()
	subs := map[string]string{}
	shape := func(step string, groups, largest int) {
		t.Helper()
		checkGroupSet(t, e, subs, step)
		st := e.Stats()
		if st.PredGroups != groups || st.LargestGroup != largest {
			t.Fatalf("%s: %d groups, largest %d; want %d, %d", step, st.PredGroups, st.LargestGroup, groups, largest)
		}
		fresh := New()
		for _, id := range e.IDs() {
			mustAdd(t, fresh, id, subs[id])
		}
		if fs := fresh.Stats(); fs.PredNodes != st.PredNodes || fs.SharedStates != st.SharedStates {
			t.Fatalf("%s: patched predNodes=%d shared=%d, built afresh predNodes=%d shared=%d",
				step, st.PredNodes, st.SharedStates, fs.PredNodes, fs.SharedStates)
		}
	}
	add := func(id, src string) {
		t.Helper()
		mustAdd(t, e, id, src)
		subs[id] = src
	}
	remove := func(id string) {
		t.Helper()
		if !e.Remove(id) {
			t.Fatalf("Remove(%s) = false", id)
		}
		delete(subs, id)
	}

	add("gt2", `//a[b > 2]/c`)
	shape("one member", 1, 1)
	add("gt0", `//a[b > 0]/c`)
	add("ge2", `//a[b >= 2]/c`)
	add("gt1", `//a[b > 1]`)
	add("gt2too", `//a[2 < b]/c`) // gt2's constant and operator in another step
	add("ge3", `//a[b >= 3]//c`)
	shape("threshold group grown out of order", 1, 6)
	add("lt2", `//a[b < 2]/c`)
	add("le2", `//a[b <= 2]`)
	add("eq2", `//a[b = 2]/c`)
	add("ne2", `//a[b != 2]/c`)
	add("eq2too", `//a[2 = b]`)
	add("ne3", `//a[b != 3]`)
	add("sx", `//a[b = "x"]/c`)
	add("sy", `//a[b = "y"]`)
	add("deep", `//a[d/b > 1]/c`)
	add("deeper", `//a[d/b > 0]/c`)
	add("other", `//r/a[b > 2]/c`) // same state, another parent: its own group
	shape("every class", 6, 6)

	// Not groups: a conjunction, a branching path, a string function, a
	// textual !=, an existence test.
	add("conj", `//a[b > 1 and c]/c`)
	add("branch", `//a[d[b]/b > 1]/c`)
	add("fn", `//a[contains(b, "x")]/c`)
	add("sne", `//a[b != "x"]/c`)
	add("exists", `//a[b]/c`)
	shape("with ungrouped neighbours", 6, 6)

	remove("gt2") // the first of two members with one key
	remove("gt0")
	remove("ge3")
	shape("threshold group shrunk", 6, 4)
	remove("ge2")
	remove("gt1")
	shape("threshold group of one", 6, 4)
	remove("gt2too")
	shape("threshold group gone", 5, 4)
	for _, id := range []string{"eq2", "ne3", "sx", "lt2", "deep", "other"} {
		remove(id)
	}
	shape("every group shrunk", 4, 2)
	for _, id := range []string{"eq2too", "ne2", "sy", "le2", "deeper"} {
		remove(id)
	}
	shape("no group left", 0, 0)
	add("back", `//a[b > 2]/c`)
	shape("and back", 1, 1)
}

// TestPredicateGroupProbesOncePerValue: a value is resolved against a group
// once, whatever the group's size, and the group holds one scope, one tuple
// and one pending per open candidate.
func TestPredicateGroupProbesOncePerValue(t *testing.T) {
	doc := `<r><a><b>1</b><b>5</b><c></c></a><a><b>x</b><c></c></a></r>`
	var probes, live []int
	for _, size := range []int{1, 10, 100} {
		e := New()
		for k := 0; k < size; k++ {
			mustAdd(t, e, fmt.Sprintf("s%d", k), fmt.Sprintf(`//a[b > %d]/c`, 100+k)) // none is ever satisfied
		}
		run(t, e, doc)
		probes = append(probes, e.Stats().GroupProbes)
		live = append(live, e.MemStats().PeakLiveTuples)
	}
	if !slices.Equal(probes, []int{3, 3, 3}) {
		t.Errorf("GroupProbes = %v for groups of 1, 10 and 100; want 3 each", probes)
	}
	if live[0] != live[1] || live[1] != live[2] {
		t.Errorf("PeakLiveTuples = %v for groups of 1, 10 and 100; want them equal", live)
	}
}
