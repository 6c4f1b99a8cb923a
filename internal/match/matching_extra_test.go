package match

import (
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/tree"
)

// TestFindAllEnumeratesCombinations: FindAll yields one matching per
// combination of per-child choices.
func TestFindAllEnumeratesCombinations(t *testing.T) {
	q := query.MustParse("/a[b and c]")
	d := tree.MustParse("<a><b/><b/><c/><c/><c/></a>")
	sets, err := TruthSets(q)
	if err != nil {
		t.Fatal(err)
	}
	all := FindAll(q.Root, d, Options{Kind: Full, Sets: sets}, 0)
	if len(all) != 6 { // 2 b choices × 3 c choices
		t.Fatalf("found %d matchings, want 6", len(all))
	}
	seen := map[[2]*tree.Node]bool{}
	a := q.Root.Children[0]
	b, c := a.Children[0], a.Children[1]
	for _, phi := range all {
		key := [2]*tree.Node{phi[b], phi[c]}
		if seen[key] {
			t.Error("duplicate matching enumerated")
		}
		seen[key] = true
		if err := Verify(phi, q.Root, d, Options{Kind: Full, Sets: sets}); err != nil {
			t.Errorf("matching fails verification: %v", err)
		}
	}
}

// TestFindAllLimit: the limit stops enumeration early.
func TestFindAllLimit(t *testing.T) {
	q := query.MustParse("//b")
	d := tree.MustParse("<a><b/><b/><b/><b/></a>")
	sets, _ := TruthSets(q)
	all := FindAll(q.Root, d, Options{Kind: Full, Sets: sets}, 2)
	if len(all) != 2 {
		t.Fatalf("limit ignored: %d matchings", len(all))
	}
}

// TestRelativeContextMatching: Definition 5.9 with pinned assignments —
// "y matches v relative to the context u = x".
func TestRelativeContextMatching(t *testing.T) {
	q := query.MustParse("//a[b]/c")
	a := q.Root.Children[0]
	c := a.Successor
	d := tree.MustParse("<a><b/><c>good</c><a><c>orphan</c></a></a>")
	sets, _ := TruthSets(q)
	outer := d.Children[0]
	good := outer.Children[1]
	inner := outer.Children[2]
	orphan := inner.Children[0]
	if !MatchesAt(q, d, c, good, sets) {
		t.Error("good c is selected (outer a has b)")
	}
	if MatchesAt(q, d, c, orphan, sets) {
		t.Error("orphan c is not selected (inner a lacks b)")
	}
	if !MatchesAt(q, d, a, outer, sets) || MatchesAt(q, d, a, inner, sets) {
		t.Error("a context pinning")
	}
}

// TestVerifyDiagnostics: Verify reports each violated property.
func TestVerifyDiagnostics(t *testing.T) {
	q := query.MustParse("/a[b > 5]")
	d := tree.MustParse("<a><b>6</b><c>9</c></a>")
	sets, _ := TruthSets(q)
	o := Options{Kind: Full, Sets: sets}
	a := q.Root.Children[0]
	b := a.Children[0]
	aDoc := d.Children[0]
	bDoc := aDoc.Children[0]
	cDoc := aDoc.Children[1]

	good := Matching{q.Root: d, a: aDoc, b: bDoc}
	if err := Verify(good, q.Root, d, o); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	// Node test violation: b mapped to the c element.
	bad1 := Matching{q.Root: d, a: aDoc, b: cDoc}
	if err := Verify(bad1, q.Root, d, o); err == nil {
		t.Error("node test violation undetected")
	}
	// Axis violation: b mapped to a non-child.
	bad2 := Matching{q.Root: d, a: aDoc, b: d}
	if err := Verify(bad2, q.Root, d, o); err == nil {
		t.Error("axis violation undetected")
	}
	// Missing assignment.
	bad3 := Matching{q.Root: d, a: aDoc}
	if err := Verify(bad3, q.Root, d, o); err == nil {
		t.Error("missing node undetected")
	}
	// Value violation under Full.
	d2 := tree.MustParse("<a><b>4</b></a>")
	bad4 := Matching{q.Root: d2, a: d2.Children[0], b: d2.Children[0].Children[0]}
	if err := Verify(bad4, q.Root, d2, o); err == nil {
		t.Error("value violation undetected")
	}
	// The same mapping passes structurally.
	if err := Verify(bad4, q.Root, d2, Options{Kind: Structural}); err != nil {
		t.Errorf("structural check should pass: %v", err)
	}
}

// TestPathRecursionVsRecursionGap: path recursion depth upper-bounds
// recursion depth (Section 8.6's discussion).
func TestPathRecursionVsRecursionGap(t *testing.T) {
	q := query.MustParse("//a[b]")
	a := q.Root.Children[0]
	docs := []string{
		"<a><a><b/></a></a>",
		"<a><b/><a><b/></a></a>",
		"<a><a></a></a>",
	}
	for _, ds := range docs {
		d := tree.MustParse(ds)
		r, err := RecursionDepth(q, d, a)
		if err != nil {
			t.Fatal(err)
		}
		pr := PathRecursionDepth(q, d)
		if r > pr {
			t.Errorf("%s: recursion depth %d exceeds path recursion depth %d", ds, r, pr)
		}
	}
}
