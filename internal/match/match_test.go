package match

import (
	"math/rand"
	"testing"

	"streamxpath/internal/fragment"
	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

func findFull(t *testing.T, q *query.Query, d *tree.Node) (Matching, bool) {
	t.Helper()
	sets, err := TruthSets(q)
	if err != nil {
		t.Fatalf("TruthSets: %v", err)
	}
	return FindDocQuery(q, d, Options{Kind: Full, Sets: sets})
}

// TestFig7TwoMatchings reproduces Figure 7: the document
// <a><b>3</b><b>6</b><b>8</b></a> has two matchings with /a[b > 5] (the b
// node can map to either b with value in (5,∞)).
func TestFig7TwoMatchings(t *testing.T) {
	q := query.MustParse("/a[b > 5]")
	d := tree.MustParse("<a><b>3</b><b>6</b><b>8</b></a>")
	sets, err := TruthSets(q)
	if err != nil {
		t.Fatal(err)
	}
	all := FindAll(q.Root, d, Options{Kind: Full, Sets: sets}, 0)
	if len(all) != 2 {
		t.Fatalf("found %d matchings, want 2", len(all))
	}
	b := q.Root.Children[0].Children[0]
	vals := map[string]bool{}
	for _, phi := range all {
		vals[phi[b].StrVal()] = true
	}
	if !vals["6"] || !vals["8"] || vals["3"] {
		t.Errorf("b images: %v, want {6, 8}", vals)
	}
	for _, phi := range all {
		if err := Verify(phi, q.Root, d, Options{Kind: Full, Sets: sets}); err != nil {
			t.Errorf("matching fails verification: %v", err)
		}
	}
}

// TestLemma510 cross-checks the matching oracle against the reference
// evaluator on a corpus of query/document pairs: a document matches a
// univariate query iff a matching exists.
func TestLemma510(t *testing.T) {
	queries := []string{
		"/a", "/a/b", "//b", "/a[b]", "/a[b and c]", "/a[b > 5]",
		"/a[c[.//e and f] and b > 5]", "/a[c[.//e and f] and b > 5]/b",
		"//a[b and c]", "/a/*/b", "/a[.//d < 30]",
		"/a[contains(b, \"AB\")]", "/a[string-length(b) = 3]",
		"/a[b = \"hello\"]", "/a[b/c > 5 and d]",
	}
	docs := []string{
		"<a/>", "<b/>", "<a><b/></a>", "<a><b/><c/></a>",
		"<a><b>6</b></a>", "<a><b>5</b></a>", "<a><b>3</b><b>9</b></a>",
		"<a><c><e/><f/></c><b>6</b></a>", "<a><c><x><e/></x><f/></c><b>7</b></a>",
		"<a><a><b/><c/></a></a>", "<a><x><b/></x></a>",
		"<a><b>xABy</b></a>", "<a><b>abc</b></a>", "<a><b>hello</b></a>",
		"<a><b><c>6</c></b><d/></a>", "<a><d>29</d></a>",
		"<a><Z><Z><d>29</d></Z></Z></a>",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		for _, ds := range docs {
			d := tree.MustParse(ds)
			want := semantics.BoolEval(q, d)
			got, err := MatchOracle(q, d)
			if err != nil {
				t.Fatalf("MatchOracle(%s): %v", qs, err)
			}
			if got != want {
				t.Errorf("Lemma 5.10 violated: %s on %s: matching=%v, semantics=%v", qs, ds, got, want)
			}
		}
	}
}

// TestLemma510Random fuzzes Lemma 5.10 with random small documents.
func TestLemma510Random(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	queries := []*query.Query{
		query.MustParse("/a[b and c]"),
		query.MustParse("//a[b > 5]"),
		query.MustParse("/a[c[.//e and f] and b > 5]"),
		query.MustParse("/a/b[c]"),
	}
	names := []string{"a", "b", "c", "e", "f", "x"}
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := tree.NewElement(names[rng.Intn(len(names))])
		if rng.Intn(3) == 0 {
			n.AppendText([]string{"3", "6", "9", "x"}[rng.Intn(4)])
		}
		if depth < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Append(gen(depth + 1))
			}
		}
		return n
	}
	for i := 0; i < 300; i++ {
		root := tree.NewRoot()
		root.Append(gen(0))
		q := queries[rng.Intn(len(queries))]
		want := semantics.BoolEval(q, root)
		got, err := MatchOracle(q, root)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: oracle mismatch on %s vs %s: matching=%v semantics=%v",
				i, q, root, got, want)
		}
	}
}

func TestMatchesAt(t *testing.T) {
	q := query.MustParse("//a[b and c]")
	a := q.Root.Children[0]
	d := tree.MustParse("<a><a><b/><c/></a></a>")
	sets, _ := TruthSets(q)
	outer := d.Children[0]
	inner := outer.Children[0]
	if MatchesAt(q, d, a, outer, sets) {
		t.Error("outer a lacks b and c children")
	}
	if !MatchesAt(q, d, a, inner, sets) {
		t.Error("inner a has b and c children")
	}
}

func TestRecursionDepth(t *testing.T) {
	q := query.MustParse("//a[b and c]")
	a := q.Root.Children[0]
	// Section 4.2's example: recursion depth 2.
	d := tree.MustParse("<a><b/><c/><a><b/><c/></a></a>")
	r, err := RecursionDepth(q, d, a)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Errorf("recursion depth = %d, want 2", r)
	}
	// Only one level matches.
	d2 := tree.MustParse("<a><a><b/><c/></a></a>")
	r2, _ := RecursionDepth(q, d2, a)
	if r2 != 1 {
		t.Errorf("recursion depth = %d, want 1", r2)
	}
	// Section 8.6's example: //a[b] on <a><a></a></a> has recursion
	// depth 0 but path recursion depth 2.
	q3 := query.MustParse("//a[b]")
	a3 := q3.Root.Children[0]
	d3 := tree.MustParse("<a><a></a></a>")
	r3, _ := RecursionDepth(q3, d3, a3)
	if r3 != 0 {
		t.Errorf("recursion depth = %d, want 0", r3)
	}
	if pr := PathRecursionDepth(q3, d3); pr != 2 {
		t.Errorf("path recursion depth = %d, want 2", pr)
	}
}

func TestPathMatches(t *testing.T) {
	q := query.MustParse("/a//b/c")
	c := q.Root.Leaf()
	d := tree.MustParse("<a><x><b><c/></b></x></a>")
	cNode := d.FindAllNamed("c")[0]
	if !PathMatches(c, cNode) {
		t.Error("c should path match through the descendant gap")
	}
	bNode := d.FindAllNamed("b")[0]
	if PathMatches(c, bNode) {
		t.Error("b does not path match c")
	}
	// Child axis is strict: /a/b does not path match a grandchild b.
	q2 := query.MustParse("/a/b")
	b2 := q2.Root.Leaf()
	d2 := tree.MustParse("<a><x><b/></x></a>")
	if PathMatches(b2, d2.FindAllNamed("b")[0]) {
		t.Error("/a/b must not path match a deeper b")
	}
}

func TestTextWidth(t *testing.T) {
	// Definition 8.4's example: /a[b] on
	// <a>dear<b>sir</b>or<b>madam</b></a> has text width 5.
	q := query.MustParse("/a[b]")
	d := tree.MustParse("<a>dear<b>sir</b>or<b>madam</b></a>")
	if w := TextWidth(q, d); w != 5 {
		t.Errorf("text width = %d, want 5", w)
	}
}

func TestPathConsistentSanity(t *testing.T) {
	// Cross-check PathConsistent against brute force on small documents:
	// if some node of a document path matches both, PathConsistent must
	// be true.
	queries := []string{
		"/a[.//b/c and b//c]", "/a[b and c]", "//a[.//b and c/b]",
		"/a[*/c and b/c]", "/a[.//x and y//x]",
	}
	docs := []string{
		"<a><b><c/></b></a>", "<a><b/><c/></a>", "<a><c><b/></c></a>",
		"<a><b><c/><b/></b><y><x/></y></a>", "<a><x/><y><x/></y></a>",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		nodes := q.Nodes()
		for _, ds := range docs {
			d := tree.MustParse(ds)
			for i, u := range nodes {
				if u.IsRoot() {
					continue
				}
				for _, v := range nodes[i+1:] {
					if v.IsRoot() {
						continue
					}
					witnessed := false
					d.Walk(func(y *tree.Node) bool {
						if y.Kind == tree.KindElement && PathMatches(u, y) && PathMatches(v, y) {
							witnessed = true
							return false
						}
						return true
					})
					if witnessed && !fragment.PathConsistent(u, v) {
						t.Errorf("%s: nodes %s,%s witnessed consistent by %s but PathConsistent=false",
							qs, u.NTest, v.NTest, ds)
					}
				}
			}
		}
	}
}

func TestHybridMatching(t *testing.T) {
	// Build a hybrid matching per Definition 6.6 and verify it with
	// Lemma 6.7's conclusion.
	q := query.MustParse("/a[b and c]")
	a := q.Root.Children[0]
	b, c := a.Children[0], a.Children[1]
	d := tree.MustParse("<a><b/><b/><c/></a>")
	sets, _ := TruthSets(q)
	o := Options{Kind: Full, Sets: sets}
	// phi matches b's subtree to the SECOND document b.
	db2 := d.FindAllNamed("b")[1]
	phi, ok := Find(b, db2, o)
	if !ok {
		t.Fatal("phi")
	}
	// eta matches the whole query (so in particular Q minus b's subtree).
	eta, ok := FindDocQuery(q, d, o)
	if !ok {
		t.Fatal("eta")
	}
	mu := Hybrid(phi, eta, b)
	if mu[b] != db2 {
		t.Error("hybrid must take phi's assignment on Q_b")
	}
	if mu[c] != eta[c] || mu[a] != eta[a] {
		t.Error("hybrid must take eta's assignment outside Q_b")
	}
	if err := Verify(mu, q.Root, d, o); err != nil {
		t.Errorf("hybrid matching invalid: %v", err)
	}
}

func TestLeafPreserving(t *testing.T) {
	q := query.MustParse("//b")
	b := q.Root.Children[0]
	d := tree.MustParse("<a><b><x/></b><b>leafy</b></a>")
	sets, _ := TruthSets(q)
	o := Options{Kind: Full, Sets: sets}
	inner := d.FindAllNamed("b")[0]
	leafB := d.FindAllNamed("b")[1]
	phi1, _ := Find(b, inner, o)
	phi1[q.Root] = d
	if IsLeafPreserving(phi1, q.Root) {
		t.Error("mapping leaf b to an internal node is not leaf-preserving")
	}
	phi2, _ := Find(b, leafB, o)
	phi2[q.Root] = d
	if !IsLeafPreserving(phi2, q.Root) {
		t.Error("mapping to a childless b is leaf-preserving")
	}
}
