// Property-based tests over the whole stack: randomized cross-oracle
// agreement (semantics vs. matchings vs. the streaming filter), state
// snapshot/restore at arbitrary cut points, and serializer round trips.
// These are the repository's strongest invariants: three independent
// implementations of BOOLEVAL must agree on arbitrary inputs.
package streamxpath_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamxpath"
	"streamxpath/internal/core"
	"streamxpath/internal/fragment"
	"streamxpath/internal/match"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
	"streamxpath/internal/workload"
)

// docFor builds a random document biased toward the names appearing in q,
// so matches actually occur.
func docFor(rng *rand.Rand, q *query.Query) *tree.Node {
	names := []string{"zzz"}
	for _, u := range q.Nodes() {
		if !u.IsRoot() && !u.IsWildcard() {
			names = append(names, u.NTest)
		}
	}
	texts := []string{"0", "3", "7", "15", "x", ""}
	return workload.RandomTree(rng, names, texts, 5, 3)
}

// TestPropertyThreeOracleAgreement: for random redundancy-free queries and
// random documents, the selection semantics, the matching search (Lemma
// 5.10), and the streaming filter all agree.
func TestPropertyThreeOracleAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	matchedCount := 0
	for iter := 0; iter < 400; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(6))
		d := docFor(rng, q)

		want := semantics.BoolEval(q, d)
		if want {
			matchedCount++
		}

		got2, err := match.MatchOracle(q, d)
		if err != nil {
			t.Fatalf("iter %d: match oracle: %v", iter, err)
		}
		if got2 != want {
			t.Fatalf("iter %d: Lemma 5.10 violated for %s on %s: matching=%v semantics=%v",
				iter, q, d, got2, want)
		}

		f, err := core.Compile(q)
		if err != nil {
			t.Fatalf("iter %d: compile %s: %v", iter, q, err)
		}
		got3, err := f.ProcessAll(d.Events())
		if err != nil {
			t.Fatal(err)
		}
		if got3 != want {
			t.Fatalf("iter %d: Theorem 8.1 violated for %s on %s: filter=%v semantics=%v",
				iter, q, d, got3, want)
		}
	}
	if matchedCount == 0 {
		t.Error("test corpus never produced a match; generator is too cold")
	}
}

// TestPropertySnapshotAtRandomCuts: cutting a stream at any point,
// serializing the filter state, and restoring into a fresh filter never
// changes the answer (the invariant Lemma 3.7's protocol relies on).
func TestPropertySnapshotAtRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for iter := 0; iter < 120; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(5))
		d := docFor(rng, q)
		events := d.Events()
		f, err := core.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.ProcessAll(events)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Intn(len(events) + 1)
		alice, _ := core.Compile(q)
		for _, e := range events[:cut] {
			if err := alice.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		bob, _ := core.Compile(q)
		if err := bob.Restore(alice.Snapshot()); err != nil {
			t.Fatalf("iter %d cut %d: %v", iter, cut, err)
		}
		for _, e := range events[cut:] {
			if err := bob.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		if bob.Matched() != want {
			t.Fatalf("iter %d: cut at %d/%d changed the answer for %s on %s",
				iter, cut, len(events), q, d)
		}
	}
}

// TestPropertySerializeParseRoundTrip: serializing any generated document
// and re-tokenizing it yields the same tree.
func TestPropertySerializeParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for iter := 0; iter < 150; iter++ {
		d := workload.RandomTree(rng, []string{"a", "b", "c"}, []string{"x", "1 < 2 & 3", "", "  spaced  "}, 4, 3)
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := tree.Parse(xml)
		if err != nil {
			t.Fatalf("iter %d: reparse: %v\n%s", iter, err, xml)
		}
		// Text coalescing may merge adjacent text nodes; compare via
		// string values and element structure rather than node identity.
		if !equalStructure(d, d2) {
			t.Fatalf("iter %d: round trip mismatch:\n%s\nvs\n%s", iter, d.Outline(), d2.Outline())
		}
	}
}

// equalStructure compares element structure and per-element string values.
func equalStructure(a, b *tree.Node) bool {
	if a.Kind != b.Kind || a.Name != b.Name {
		return false
	}
	if a.StrVal() != b.StrVal() {
		return false
	}
	ea, eb := elementChildren(a), elementChildren(b)
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if !equalStructure(ea[i], eb[i]) {
			return false
		}
	}
	return true
}

func elementChildren(n *tree.Node) []*tree.Node {
	var out []*tree.Node
	for _, c := range n.Children {
		if c.Kind != tree.KindText {
			out = append(out, c)
		}
	}
	return out
}

// TestPropertyQueryRenderReparse: rendering any generated query and
// reparsing it yields an equivalent query (same string, same frontier
// size, same BOOLEVAL on sample documents).
func TestPropertyQueryRenderReparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for iter := 0; iter < 120; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(6))
		q2, err := query.Parse(q.String())
		if err != nil {
			t.Fatalf("iter %d: reparse %q: %v", iter, q.String(), err)
		}
		if q2.String() != q.String() {
			t.Fatalf("iter %d: render not stable: %q vs %q", iter, q.String(), q2.String())
		}
		if fragment.FrontierSize(q) != fragment.FrontierSize(q2) {
			t.Fatalf("iter %d: frontier size changed on reparse", iter)
		}
		d := docFor(rng, q)
		if semantics.BoolEval(q, d) != semantics.BoolEval(q2, d) {
			t.Fatalf("iter %d: semantics changed on reparse of %s", iter, q)
		}
	}
}

// TestPropertyFrontierBoundHolds: for generated closure-free
// path-consistency-free queries, the filter's frontier never exceeds
// FS(Q) on any document (Theorem 8.8's second regime).
func TestPropertyFrontierBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1004))
	checked := 0
	for iter := 0; iter < 200; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(6))
		if !fragment.ClosureFree(q) || !fragment.PathConsistencyFree(q) {
			continue
		}
		checked++
		fs := fragment.FrontierSize(q)
		f, err := core.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		d := docFor(rng, q)
		if _, err := f.ProcessAll(d.Events()); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats().PeakFrontier; got > fs {
			t.Fatalf("iter %d: frontier %d exceeds FS(Q) = %d for %s on %s",
				iter, got, fs, q, d)
		}
	}
	if checked < 20 {
		t.Errorf("only %d closure-free pc-free queries generated; corpus too thin", checked)
	}
}

// TestPropertyDocumentReorderInvariance: for queries with no value
// restrictions, BOOLEVAL is indifferent to sibling order — shuffling the
// children of every node never changes the answer (the property Claim 7.2
// relies on; with value predicates it fails, because STRVAL of an internal
// node concatenates text descendants in document order, e.g. "015" vs
// "150").
func TestPropertyDocumentReorderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1005))
	checked := 0
	for iter := 0; iter < 300; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(5))
		if hasValueRestrictedLeaf(t, q) {
			continue
		}
		checked++
		d := docFor(rng, q)
		want := semantics.BoolEval(q, d)
		shuffled := shuffleChildren(rng, d)
		if got := semantics.BoolEval(q, shuffled); got != want {
			t.Fatalf("iter %d: sibling reorder changed BOOLEVAL for %s:\n%s\nvs\n%s",
				iter, q, d.Outline(), shuffled.Outline())
		}
	}
	if checked < 20 {
		t.Errorf("only %d structural queries generated", checked)
	}
}

// hasValueRestrictedLeaf reports whether any query node carries a proper
// truth-set restriction.
func hasValueRestrictedLeaf(t *testing.T, q *query.Query) bool {
	t.Helper()
	for _, u := range q.Nodes() {
		s, err := query.TruthSetOf(u)
		if err != nil {
			t.Fatal(err)
		}
		if !s.IsAll() {
			return true
		}
	}
	return false
}

// shuffleChildren deep-copies d with every node's children permuted.
func shuffleChildren(rng *rand.Rand, d *tree.Node) *tree.Node {
	c := d.Clone()
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		rng.Shuffle(len(n.Children), func(i, j int) {
			n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
		})
		for _, ch := range n.Children {
			rec(ch)
		}
	}
	rec(c)
	return c
}

// TestPropertyEventStreamWellFormedness uses testing/quick to check that
// tree-generated event streams always pass the well-formedness checker.
func TestPropertyEventStreamWellFormedness(t *testing.T) {
	f := func(seed int64, fanout uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := workload.RandomTree(rng, []string{"a", "b"}, []string{"t"}, 3, int(fanout%4))
		return sax.IsWellFormed(d.Events())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFilterMonotoneUnderMatchExtension: adding a subtree that
// makes the query match cannot un-match it (BOOLEVAL is monotone for
// conjunctive positive queries under adding siblings).
func TestPropertyFilterMonotoneUnderMatchExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(1006))
	for iter := 0; iter < 100; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(4))
		d := docFor(rng, q)
		if !semantics.BoolEval(q, d) {
			continue
		}
		// Graft a random extra subtree under the document element.
		extended := d.Clone()
		if len(extended.Children) > 0 {
			extra := workload.RandomTree(rng, []string{"zzz", "www"}, []string{"t"}, 2, 2)
			extended.Children[0].Append(extra.Children[0])
		}
		if !semantics.BoolEval(q, extended) {
			t.Fatalf("iter %d: adding an unrelated subtree un-matched %s", iter, q)
		}
		f, _ := core.Compile(q)
		got, err := f.ProcessAll(extended.Events())
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatalf("iter %d: filter disagrees on extended document for %s", iter, q)
		}
	}
}

// TestPropertyStreamEvalAgainstReference: the streaming full evaluator
// agrees with FULLEVAL on generated queries extended with an output tail
// step, over random documents (values and order).
func TestPropertyStreamEvalAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1007))
	checked := 0
	for iter := 0; iter < 200 && checked < 120; iter++ {
		base := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(4))
		tail := []string{"/out", "//out", "/out/deep"}[rng.Intn(3)]
		q, err := query.Parse(base.String() + tail)
		if err != nil {
			t.Fatalf("constructed query: %v", err)
		}
		se, err := streamxpath.MustCompile(q.String()).NewStreamEvaluator()
		if err != nil {
			continue
		}
		checked++
		d := docForEval(rng, q)
		want := semantics.EvalStrings(q, d)
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.EvaluateString(xml)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %s: streamed %v != reference %v on\n%s",
				iter, q, got, want, d.Outline())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %s: value %d: %q != %q", iter, q, i, got[i], want[i])
			}
		}
	}
	if checked < 80 {
		t.Errorf("only %d queries checked", checked)
	}
}

// docForEval biases documents toward the query's names including the
// output tail names.
func docForEval(rng *rand.Rand, q *query.Query) *tree.Node {
	names := []string{"zzz", "out", "deep"}
	for _, u := range q.Nodes() {
		if !u.IsRoot() && !u.IsWildcard() {
			names = append(names, u.NTest)
		}
	}
	texts := []string{"0", "3", "7", "15", "x"}
	return workload.RandomTree(rng, names, texts, 5, 3)
}
