package streamxpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
	"streamxpath/internal/workload"
)

// sameValues compares value lists, nil and empty alike.
func sameValues(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// evalBoth streams xml through a StreamEvaluator for qs and evaluates it in
// memory, the reference.
func evalBoth(t *testing.T, qs, xml string) (streamed, reference []string) {
	t.Helper()
	se, err := MustCompile(qs).NewStreamEvaluator()
	if err != nil {
		t.Fatalf("NewStreamEvaluator(%s): %v", qs, err)
	}
	if streamed, err = se.EvaluateString(xml); err != nil {
		t.Fatalf("EvaluateString(%s, %s): %v", qs, xml, err)
	}
	return streamed, semantics.EvalStrings(query.MustParse(qs), tree.MustParse(xml))
}

func TestBasicEvaluation(t *testing.T) {
	cases := []struct {
		q, d string
		want []string
	}{
		{"/a/b", "<a><b>1</b><b>2</b></a>", []string{"1", "2"}},
		{"/a/b", "<a><c><b>skip</b></c><b>2</b></a>", []string{"2"}},
		{"//b", "<a><b>1<b>2</b></b><b>3</b></a>", []string{"12", "2", "3"}},
		{"/a[c]/b", "<a><b>1</b><c/><b>2</b></a>", []string{"1", "2"}},
		{"/a[c]/b", "<a><b>1</b><b>2</b></a>", nil},
		{"/a[b > 5]/b", "<a><b>3</b><b>9</b></a>", []string{"3", "9"}},
		{"/a[b > 9]/b", "<a><b>3</b><b>9</b></a>", nil},
		{"//item[keyword]/title", "<f><item><title>t1</title><keyword/></item><item><title>t2</title></item></f>", []string{"t1"}},
		{"/a/*/b", "<a><x><b>1</b></x><b>no</b></a>", []string{"1"}},
		{"/a//b[c]", "<a><x><b><c/>yes</b></x><b>no</b></a>", []string{"yes"}},
	}
	for _, c := range cases {
		got, ref := evalBoth(t, c.q, c.d)
		if !sameValues(got, c.want) {
			t.Errorf("%s on %s = %v, want %v", c.q, c.d, got, c.want)
		}
		if !sameValues(got, ref) {
			t.Errorf("%s on %s: streamed %v != reference %v", c.q, c.d, got, ref)
		}
	}
}

// TestBufferingScenario: the b values stream past before the confirming c
// arrives, so they must be buffered — the follow-up work's inherent
// buffering — and they leave the moment the c starts: the predicate is
// decided when it is satisfied, not when its scope closes. Read one byte at
// a time, each OnValue call records how much of the document had been read.
func TestBufferingScenario(t *testing.T) {
	const doc = "<a><b>1</b><b>2</b><c/><b>3</b></a>"
	se, err := MustCompile("/a[c]/b").NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: strings.NewReader(doc)}
	var emitted []string
	var at []int64
	se.OnValue(func(v string) {
		emitted = append(emitted, v)
		at = append(at, cr.n)
	})
	se.SetChunkSize(1)
	if _, err := se.EvaluateReader(cr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(emitted, []string{"1", "2", "3"}) {
		t.Fatalf("emitted %v, want [1 2 3]", emitted)
	}
	cStart, cEnd := int64(strings.Index(doc, "<c/>")), int64(strings.Index(doc, "<c/>")+len("<c/>"))
	for i := range 2 {
		if at[i] <= cStart || at[i] > cEnd {
			t.Errorf("%s emitted after %d bytes, want within <c/> at [%d, %d]", emitted[i], at[i], cStart, cEnd)
		}
	}
	// b "3" arrives after the predicate is known: it leaves at its own close.
	if end := int64(strings.LastIndex(doc, "</b>") + len("</b>")); at[2] <= cEnd || at[2] > end {
		t.Errorf("3 emitted after %d bytes, want within its element, by %d", at[2], end)
	}
	if s := se.Stats(); s.PeakPendingValues != 2 || s.Emitted != 3 {
		t.Errorf("stats = %+v, want peak pending 2 (both early b values), 3 emitted", s)
	}
}

// TestDropScenario: candidates whose predicate never confirms are dropped
// at document end.
func TestDropScenario(t *testing.T) {
	se, err := MustCompile("/a[c]/b").NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.EvaluateString("<a><b>1</b><b>2</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
	if s := se.Stats(); s.Dropped != 2 || s.Emitted != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestRecursiveChains: descendant axes with nested prefix matches — a c
// reachable through two different a ancestors is still selected once, and
// selection holds if ANY chain's predicates hold.
func TestRecursiveChains(t *testing.T) {
	cases := []struct {
		q, d string
		want []string
	}{
		// Inner a has no b; outer does: c selected via the outer chain.
		{"//a[b]/c", "<a><b/><a><c>x</c></a></a>", nil}, // c is child of inner a only
		{"//a[b]/c", "<a><b/><a><c>x</c><b/></a></a>", []string{"x"}},
		{"//a/c", "<a><a><c>x</c></a></a>", []string{"x"}}, // selected once, not twice
		{"//a//c", "<a><a><c>x</c></a></a>", []string{"x"}},
		// Chain disambiguation: only the inner a satisfies [b]; its c qualifies.
		{"//a[b]/c", "<a><a><b/><c>y</c></a><c>z</c></a>", []string{"y"}},
	}
	for _, c := range cases {
		got, ref := evalBoth(t, c.q, c.d)
		if !sameValues(got, ref) {
			t.Errorf("%s on %s: streamed %v != reference %v", c.q, c.d, got, ref)
		}
		if !sameValues(got, c.want) {
			t.Errorf("%s on %s: got %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

// TestAgainstReferenceRandomized: differential testing of the streaming
// evaluator against FULLEVAL on random documents.
func TestAgainstReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	srcs := []string{"/a/b", "//b", "/a[c]/b", "//a[b]/c", "/a[b > 5]/c", "//a[b and c]/e", "/a/*/b", "//a//b[c]", "/a[.//e]/b"}
	evals := make([]*StreamEvaluator, len(srcs))
	for i, src := range srcs {
		var err error
		if evals[i], err = MustCompile(src).NewStreamEvaluator(); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	names := []string{"a", "b", "c", "e", "x"}
	texts := []string{"3", "6", "9", "v"}
	for iter := 0; iter < 400; iter++ {
		d := workload.RandomTree(rng, names, texts, 5, 3)
		qi := rng.Intn(len(srcs))
		want := semantics.EvalStrings(query.MustParse(srcs[qi]), d)
		xml, err := d.XML()
		if err != nil {
			t.Fatal(err)
		}
		got, err := evals[qi].EvaluateString(xml)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(got, want) {
			t.Fatalf("iter %d: %s:\nstreamed:  %v\nreference: %v\ndoc:\n%s", iter, srcs[qi], got, want, d.Outline())
		}
	}
}

func TestCompileRejects(t *testing.T) {
	for _, src := range []string{
		"/a[b or c]/d", // outside the streamable fragment
		"/a[b = c]/d",  // multivariate
	} {
		if _, err := MustCompile(src).NewStreamEvaluator(); err == nil {
			t.Errorf("NewStreamEvaluator(%s): want error", src)
		}
	}
}

// TestEmptyStreamErrors: a stream that ends before its document does is an
// error. (Events out of order — a start tag before the document starts —
// cannot reach the engine through a tokenizer; TestEngineMalformedStream
// feeds them to it directly.)
func TestEmptyStreamErrors(t *testing.T) {
	se, err := MustCompile("/a/b").NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"", "<a><b>1</b>"} {
		if _, err := se.EvaluateString(doc); err == nil {
			t.Errorf("%q: want error", doc)
		}
	}
}

func TestResetReuse(t *testing.T) {
	se, err := MustCompile("/a[c]/b").NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		d    string
		want []string
	}{
		{"<a><b>1</b><c/></a>", []string{"1"}},
		{"<a><b>1</b></a>", nil},
		{"<a><c/><b>2</b></a>", []string{"2"}},
	} {
		got, err := se.EvaluateString(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(got, c.want) {
			t.Errorf("run %d: got %v, want %v", i, got, c.want)
		}
	}
}

// TestBufferingGrowsWithDelay: the number of buffered candidates grows
// with how long the confirming evidence is delayed — the measurable form
// of the follow-up work's buffering lower bound.
func TestBufferingGrowsWithDelay(t *testing.T) {
	se, err := MustCompile("/a[c]/b").NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, n := range []int{1, 4, 16, 64} {
		got, err := se.EvaluateString("<a>" + strings.Repeat("<b>v</b>", n) + "<c/></a>")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: emitted %d", n, len(got))
		}
		peak := se.Stats().PeakPendingValues
		if peak < n {
			t.Errorf("n=%d: peak pending = %d, want >= %d", n, peak, n)
		}
		if peak <= prev {
			t.Errorf("n=%d: buffering did not grow (%d <= %d)", n, peak, prev)
		}
		prev = peak
	}
}

func TestAttributeValues(t *testing.T) {
	got, ref := evalBoth(t, "/a/@id", `<a id="7"/>`)
	if !reflect.DeepEqual(got, []string{"7"}) || !reflect.DeepEqual(ref, []string{"7"}) {
		t.Errorf("attribute eval: streamed %v, reference %v", got, ref)
	}
}

// evidenceDoc is <a>, then pre values, the evidence, post values, </a>: the
// documents of the buffering table, where the evidence is what decides the
// predicate every value hangs on.
func evidenceDoc(pre int, evidence string, post int) string {
	var b strings.Builder
	b.WriteString("<a>")
	for i := range pre {
		fmt.Fprintf(&b, "<b>v%d</b>", i)
	}
	b.WriteString(evidence)
	for i := range post {
		fmt.Fprintf(&b, "<b>w%d</b>", i)
	}
	b.WriteString("</a>")
	return b.String()
}

// evidenceQueries are the three predicate shapes of the buffering table —
// a plain step, a threshold group, an equality group — with the evidence
// that satisfies each.
var evidenceQueries = []struct{ q, evidence string }{
	{"/a[c]/b", "<c/>"},
	{"/a[p > 4]/b", "<p>9</p>"},
	{`/a[p = "x"]/b`, "<p>x</p>"},
}

// TestBufferingReadings pins what full evaluation buffers when the evidence
// comes last, first, or after one value: every value before the evidence
// waits for it, and none after it waits for anything but its own close.
func TestBufferingReadings(t *testing.T) {
	for _, qc := range evidenceQueries {
		se, err := MustCompile(qc.q).NewStreamEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name              string
			pre, post         int
			pending, buffered int
		}{
			{"delay", 16, 0, 16, 38},
			{"first", 0, 16, 1, 3},
			{"mixed", 1, 16, 1, 3},
		} {
			vals, err := se.EvaluateString(evidenceDoc(c.pre, qc.evidence, c.post))
			if err != nil {
				t.Fatal(err)
			}
			s := se.Stats()
			if len(vals) != c.pre+c.post || s.Emitted != len(vals) || s.Dropped != 0 ||
				s.PeakPendingValues != c.pending || s.PeakBufferedBytes != c.buffered {
				t.Errorf("%s on %s: %d values, stats %+v; want %d values, peak pending %d, peak buffered %d B",
					qc.q, c.name, len(vals), s, c.pre+c.post, c.pending, c.buffered)
			}
		}
	}
}

// FuzzStreamEvaluator holds full evaluation to the tree oracle: a random
// streamable query over the seed documents' names, against a document,
// streamed whole, one byte at a time and seven at a time, must give
// semantics.EvalStrings's values in its order, and OnValue must see exactly
// the values returned.
func FuzzStreamEvaluator(f *testing.F) {
	// The buffering table's documents, each under a seed whose query hangs
	// the b values on its evidence: /a[c]//b, /a[p = "9"]/b, /a[p = "x"]//b.
	for i, seed := range []int64{216, 5608, 6587} {
		for _, pp := range [][2]int{{16, 0}, {0, 16}, {1, 16}} {
			f.Add(seed, evidenceDoc(pp[0], evidenceQueries[i].evidence, pp[1]))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, doc string) {
		d, err := tree.Parse(doc)
		if err != nil {
			return
		}
		q := workload.RandomStreamableQuery(rand.New(rand.NewSource(seed)), []string{"a", "b", "c", "p"}, []string{"x", "v0", "9"})
		se, err := MustCompile(q.String()).NewStreamEvaluator()
		if err != nil {
			return
		}
		want := semantics.EvalStrings(q, d)
		var seen []string
		se.OnValue(func(v string) { seen = append(seen, v) })
		for _, chunk := range []int{0, 1, 7} {
			seen = seen[:0]
			se.SetChunkSize(chunk)
			got, err := se.EvaluateString(doc)
			if err != nil {
				t.Fatalf("%s, chunk %d: %v", q, chunk, err)
			}
			if !sameValues(got, want) || !sameValues(seen, got) {
				t.Fatalf("%s, chunk %d: streamed %q, OnValue %q, reference %q", q, chunk, got, seen, want)
			}
		}
	})
}
