// Extraction tests for the public MatchResult API: on documents in the
// serializer's canonical form, the fragments returned by the Match*Result
// methods — the document's own bytes — must be byte-identical to an
// independent reference serializer (internal/tree + internal/semantics
// FULLEVAL) on both the whole-buffer slice path and the chunked reader
// path — the latter at EVERY chunk split offset, so a capture suspended
// mid-tag, mid-text, or mid-entity across a chunk boundary is exercised
// for each boundary position (crosspath_test.go holds both paths to each
// other on documents in any form). The remaining tests pin the API contract:
// whole-buffer subtree fragments are zero-copy subslices of the caller's
// document, overlapping matches share one captured fragment, the
// boolean wrappers agree with their Result siblings, and the boolean
// fast path stays allocation-free even with extraction subscriptions
// registered.
package streamxpath_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
	"streamxpath/internal/workload"
)

// refFragment computes the reference expectation for one extraction
// subscription: evaluate q over the document tree with the reference
// semantics (FULLEVAL, document order), take the first result node, and
// serialize it to the canonical form the test documents are written in
// — the element's subtree rendered exactly as sax.Serialize would (no
// empty-element tags, text escaped), or the decoded string value for an
// attribute node. The empty string with ok=false means no match.
func refFragment(q *query.Query, d *tree.Node) (string, bool) {
	nodes := semantics.FullEval(q, d)
	if len(nodes) == 0 {
		return "", false
	}
	n := nodes[0]
	if n.Kind == tree.KindAttribute {
		return n.StrVal(), true
	}
	var b strings.Builder
	refSerialize(&b, n)
	return b.String(), true
}

// refSerialize renders a subtree in sax.Serialize's canonical form:
// attribute children become start-tag attributes in document order,
// every element gets an explicit end tag, and text/attribute values are
// escaped with the serializer's exact entity set.
func refSerialize(b *strings.Builder, n *tree.Node) {
	switch n.Kind {
	case tree.KindText:
		b.Write(sax.AppendTextEscaped(nil, []byte(n.Text)))
	case tree.KindElement:
		b.WriteString("<")
		b.WriteString(n.Name)
		for _, c := range n.Children {
			if c.Kind == tree.KindAttribute {
				b.WriteString(" ")
				b.WriteString(c.Name)
				b.WriteString(`="`)
				b.Write(sax.AppendAttrEscaped(nil, []byte(c.StrVal())))
				b.WriteString(`"`)
			}
		}
		b.WriteString(">")
		for _, c := range n.Children {
			if c.Kind != tree.KindAttribute {
				refSerialize(b, c)
			}
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteString(">")
	}
}

// boundaryReader returns its data in two reads split at a fixed offset,
// forcing the stream tokenizer to see a chunk boundary exactly there
// (Drive issues one Read per chunk, so a short Read IS a chunk).
type boundaryReader struct {
	data  []byte
	split int
	pos   int
}

func (r *boundaryReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	if r.pos < r.split && r.split < end {
		end = r.split
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

// checkEveryOffset matches doc against the single extraction
// subscription "x" in set, first buffered then chunked with the split
// at every offset, and compares each fragment to the reference.
func checkEveryOffset(t *testing.T, set *streamxpath.FilterSet, doc []byte, want string, matched bool, label string) {
	t.Helper()
	res, err := set.MatchBytesResult(doc)
	if err != nil {
		t.Fatalf("%s: MatchBytesResult: %v", label, err)
	}
	if got := res.Fragment("x") != nil; got != matched {
		t.Fatalf("%s: buffered matched=%v, reference=%v", label, got, matched)
	}
	if matched && string(res.Fragment("x")) != want {
		t.Fatalf("%s: buffered fragment:\n  got  %q\n  want %q", label, res.Fragment("x"), want)
	}
	for off := 0; off <= len(doc); off++ {
		res, err := set.MatchReaderResult(&boundaryReader{data: doc, split: off})
		if err != nil {
			t.Fatalf("%s: split %d: MatchReaderResult: %v", label, off, err)
		}
		frag := res.Fragment("x")
		if got := frag != nil; got != matched {
			t.Fatalf("%s: split %d: chunked matched=%v, reference=%v", label, off, got, matched)
		}
		if matched && string(frag) != want {
			t.Fatalf("%s: split %d: chunked fragment:\n  got  %q\n  want %q", label, off, frag, want)
		}
	}
}

// queryForDoc derives a path query from a random element of d — the
// root-to-node names joined with random child/descendant axes, an
// occasional wildcard step, and an occasional predicate on one of the
// target's element children — so the corpus is dense in positive cases
// with nontrivial doc-order-first choices (the same name recurs all
// over a RandomTree).
func queryForDoc(rng *rand.Rand, d *tree.Node) *query.Query {
	var elems []*tree.Node
	d.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.KindElement {
			elems = append(elems, n)
		}
		return true
	})
	if len(elems) == 0 {
		return nil
	}
	target := elems[rng.Intn(len(elems))]
	var b strings.Builder
	for _, step := range target.Path() {
		if step.Kind != tree.KindElement {
			continue
		}
		if rng.Intn(2) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if step != target && rng.Intn(8) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(step.Name)
		}
	}
	if rng.Intn(3) == 0 {
		for _, c := range target.Children {
			if c.Kind == tree.KindElement {
				b.WriteString("[" + c.Name + "]")
				break
			}
		}
	}
	q, err := query.Parse(b.String())
	if err != nil {
		return nil
	}
	return q
}

// TestExtractionReferenceEquivalenceRandomized: for random queries over
// random documents, the extracted fragment equals the reference
// serialization of FULLEVAL's document-order-first result node — on
// the buffered path and on the chunked path at every split offset. The
// documents are serialized canonically, so the zero-copy subslice and
// the reader's copy must be byte-identical to each other and to the
// reference. Half the queries are derived from the document (a
// dense positive corpus); half come from the redundancy-free generator
// (mostly negative, covering the no-capture paths).
func TestExtractionReferenceEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	matched := 0
	for iter := 0; iter < 60; iter++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(5))
		names := []string{"zzz"}
		for _, u := range q.Nodes() {
			if !u.IsRoot() && !u.IsWildcard() {
				names = append(names, u.NTest)
			}
		}
		d := workload.RandomTree(rng, names, []string{"0", "3", "7", "15", "x", "a&b"}, 4, 2)
		if iter%2 == 0 {
			if dq := queryForDoc(rng, d); dq != nil {
				q = dq
			}
		}
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := refFragment(q, d)
		if ok {
			matched++
		}
		set := streamxpath.NewFilterSet()
		if err := set.AddExtract("x", q.String()); err != nil {
			t.Fatalf("iter %d: AddExtract %s: %v", iter, q, err)
		}
		checkEveryOffset(t, set, []byte(xml), want, ok, q.String())
	}
	if matched < 15 {
		t.Errorf("only %d/60 random cases matched; generator too cold for extraction coverage", matched)
	}
}

// TestExtractionFixedCorpusEveryOffset covers the syntactic features
// the randomized generator cannot reach — attributes, entity escapes in
// text and attribute values, nested doc-order-first candidates, and
// attribute-selecting queries — on canonical-form documents, again at
// every chunk split offset.
func TestExtractionFixedCorpusEveryOffset(t *testing.T) {
	cases := []struct {
		name  string
		query string
		doc   string
	}{
		{"attrs", `//item[keyword="go"]`,
			`<feed><item id="7" lang="en"><keyword>go</keyword><body>a &amp; b &lt; c</body></item></feed>`},
		{"attr-value", `//item/@id`,
			`<feed><item id="a&amp;1"><x></x></item><item id="2"><x></x></item></feed>`},
		{"doc-order-first-nested", `//a[b]`,
			`<r><a><a><b></b></a><b></b></a></r>`},
		{"second-of-three", `//item[priority > 5]`,
			`<news><item><priority>2</priority></item><item><priority>9</priority><body>hit</body></item><item><priority>8</priority></item></news>`},
		{"deep-text", `//p`,
			`<doc><section><para><p>one &gt; two</p></para></section></doc>`},
		{"no-match", `//missing`,
			`<feed><item><keyword>go</keyword></item></feed>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := query.MustParse(c.query)
			d := tree.MustParse(c.doc)
			want, ok := refFragment(q, d)
			set := streamxpath.NewFilterSet()
			if err := set.AddExtract("x", c.query); err != nil {
				t.Fatal(err)
			}
			checkEveryOffset(t, set, []byte(c.doc), want, ok, c.name)
		})
	}
}

// TestExtractionNewsFeedCorpusEveryOffset runs the dissemination
// workload corpus (the paper's motivating scenario) through the same
// every-offset harness.
func TestExtractionNewsFeedCorpusEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	for iter := 0; iter < 4; iter++ {
		d := workload.RandomNewsFeed(rng, 3)
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range []string{`//item[priority > 4]`, `//item[keyword = "go"]`, `//body/p`} {
			q := query.MustParse(qs)
			want, ok := refFragment(q, d)
			set := streamxpath.NewFilterSet()
			if err := set.AddExtract("x", qs); err != nil {
				t.Fatal(err)
			}
			checkEveryOffset(t, set, []byte(xml), want, ok, qs)
		}
	}
}

// TestExtractionZeroCopyWholeBuffer: a contiguous element capture from
// MatchBytesResult must be a subslice of the caller's document buffer —
// same backing array, not a copy.
func TestExtractionZeroCopyWholeBuffer(t *testing.T) {
	set := streamxpath.NewFilterSet()
	if err := set.AddExtract("x", `//item[keyword="go"]`); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<feed><item><keyword>rust</keyword></item><item><keyword>go</keyword><body>hi</body></item></feed>`)
	res, err := set.MatchBytesResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	frag := res.Fragment("x")
	want := `<item><keyword>go</keyword><body>hi</body></item>`
	if string(frag) != want {
		t.Fatalf("fragment = %q, want %q", frag, want)
	}
	off := strings.Index(string(doc), want)
	if off < 0 {
		t.Fatal("expected fragment text not present in doc")
	}
	if &frag[0] != &doc[off] {
		t.Error("whole-buffer fragment is not a zero-copy subslice of the document")
	}
	// Mutating the document through the fragment window proves aliasing
	// from the other direction (then restore for hygiene).
	old := doc[off]
	doc[off] = 'X'
	if frag[0] != 'X' {
		t.Error("fragment does not observe writes to the document buffer")
	}
	doc[off] = old
}

// TestExtractionOverlappingMatchesShareFragment: several subscriptions
// selecting the same element get one fragment each, and on the
// whole-buffer path all of them alias the single shared capture — the
// refcounted capture object is allocated once, not per subscription.
func TestExtractionOverlappingMatchesShareFragment(t *testing.T) {
	set := streamxpath.NewFilterSet()
	for _, id := range []string{"a", "b", "c"} {
		if err := set.AddExtract(id, `//item[keyword="go"]`); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.AddExtract("other", `//nothing`); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<feed><item><keyword>go</keyword></item></feed>`)
	res, err := set.MatchBytesResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 3 {
		t.Fatalf("fragments = %v, want 3", res.Fragments)
	}
	first := res.Fragment("a")
	for _, id := range []string{"b", "c"} {
		frag := res.Fragment(id)
		if string(frag) != string(first) {
			t.Fatalf("fragment %q = %q, want %q", id, frag, first)
		}
		if &frag[0] != &first[0] {
			t.Errorf("fragment %q does not alias the shared zero-copy capture", id)
		}
	}
	// The reader path copies the element into one shared capture buffer
	// too; at the public layer each fragment is a private copy of it, so
	// equality (not aliasing) is the contract there.
	res, err = set.MatchReaderResult(&boundaryReader{data: doc, split: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fragments) != 3 {
		t.Fatalf("reader fragments = %v, want 3", res.Fragments)
	}
	for _, id := range []string{"a", "b", "c"} {
		if string(res.Fragment(id)) != `<item><keyword>go</keyword></item>` {
			t.Errorf("reader fragment %q = %q", id, res.Fragment(id))
		}
	}
}

// matcherAPI is the slice of the public surface shared by all four
// engines, for the wrapper-equivalence sweep.
type matcherAPI interface {
	MatchBytes([]byte) ([]string, error)
	MatchBytesResult([]byte) (streamxpath.MatchResult, error)
	MatchString(string) ([]string, error)
	MatchStringResult(string) (streamxpath.MatchResult, error)
	MatchReader(io.Reader) ([]string, error)
	MatchReaderResult(io.Reader) (streamxpath.MatchResult, error)
}

// TestBooleanWrappersMatchResultEquivalence: on every engine, each
// boolean Match method and its Result sibling return the same ids on
// the same document — the boolean methods are thin wrappers, not a
// separate code path that could drift.
func TestBooleanWrappersMatchResultEquivalence(t *testing.T) {
	subs := []struct{ id, q string }{
		{"go", `//item[keyword = "go"]`},
		{"hot", `//item[priority > 6]`},
		{"para", `//body/p`},
		{"none", `//absent`},
	}
	engines := map[string]matcherAPI{
		"FilterSet":  streamxpath.NewFilterSet(),
		"FilterPool": streamxpath.NewFilterPool(2),
	}
	type adder interface{ AddExtract(id, q string) error }
	for name, m := range engines {
		for i, s := range subs {
			var err error
			if i%2 == 0 { // mix extraction and plain subscriptions
				err = m.(adder).AddExtract(s.id, s.q)
			} else {
				err = m.(interface{ Add(id, q string) error }).Add(s.id, s.q)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", name, s.id, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(2012))
	for iter := 0; iter < 10; iter++ {
		d := workload.RandomNewsFeed(rng, 2+rng.Intn(3))
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		doc := []byte(xml)
		for name, m := range engines {
			ids, err := m.MatchBytes(doc)
			if err != nil {
				t.Fatalf("%s: MatchBytes: %v", name, err)
			}
			want := append([]string(nil), ids...)
			res, err := m.MatchBytesResult(doc)
			if err != nil {
				t.Fatalf("%s: MatchBytesResult: %v", name, err)
			}
			assertSameIDs(t, name+"/bytes", res.MatchedIDs, want)

			ids, err = m.MatchString(xml)
			if err != nil {
				t.Fatalf("%s: MatchString: %v", name, err)
			}
			assertSameIDs(t, name+"/string-bool", ids, want)
			res, err = m.MatchStringResult(xml)
			if err != nil {
				t.Fatalf("%s: MatchStringResult: %v", name, err)
			}
			assertSameIDs(t, name+"/string", res.MatchedIDs, want)

			ids, err = m.MatchReader(strings.NewReader(xml))
			if err != nil {
				t.Fatalf("%s: MatchReader: %v", name, err)
			}
			assertSameIDs(t, name+"/reader-bool", ids, want)
			res, err = m.MatchReaderResult(strings.NewReader(xml))
			if err != nil {
				t.Fatalf("%s: MatchReaderResult: %v", name, err)
			}
			assertSameIDs(t, name+"/reader", res.MatchedIDs, want)

			// Boolean siblings must not have left fragments behind, and
			// the Result calls carry them only for matched extract subs.
			for _, f := range res.Fragments {
				if f.ID != "go" && f.ID != "para" {
					t.Errorf("%s: fragment for non-extract subscription %q", name, f.ID)
				}
			}
		}
	}
}

// assertSameIDs compares id sets ignoring order (the parallel engines
// guarantee set equality with the sequential answer, not a shared
// ordering across all four).
func assertSameIDs(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ids = %v, want %v", label, got, want)
	}
	seen := make(map[string]bool, len(want))
	for _, id := range want {
		seen[id] = true
	}
	for _, id := range got {
		if !seen[id] {
			t.Fatalf("%s: ids = %v, want %v", label, got, want)
		}
	}
}

// TestBooleanPathZeroAllocsWithExtractSubs: registering extraction
// subscriptions must not tax the boolean fast path — a warm MatchBytes
// call still performs zero allocations per document.
func TestBooleanPathZeroAllocsWithExtractSubs(t *testing.T) {
	set := streamxpath.NewFilterSet()
	if err := set.AddExtract("x", `//news/item/keyword`); err != nil {
		t.Fatal(err)
	}
	if err := set.Add("y", `//news/item/title`); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<news><item><title>t</title><keyword>go</keyword></item></news>`)
	if _, err := set.MatchBytes(doc); err != nil { // warm DFA rows and scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := set.MatchBytes(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("boolean path allocates %.1f/doc with extract subs registered, want 0", allocs)
	}
}
