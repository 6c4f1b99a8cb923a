package core

import (
	"math/rand"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

func filterMatch(t *testing.T, qs, xml string) bool {
	t.Helper()
	got, err := FilterXML(query.MustParse(qs), xml)
	if err != nil {
		t.Fatalf("FilterXML(%s, %s): %v", qs, xml, err)
	}
	return got
}

func TestBasicFiltering(t *testing.T) {
	cases := []struct {
		q, d string
		want bool
	}{
		{"/a", "<a/>", true},
		{"/a", "<b/>", false},
		{"/a/b", "<a><b/></a>", true},
		{"/a/b", "<a><c><b/></c></a>", false},
		{"/a//b", "<a><c><b/></c></a>", true},
		{"//b", "<a><c><b/></c></a>", true},
		{"//b", "<a><c/></a>", false},
		{"/a[b]", "<a><b/></a>", true},
		{"/a[b]", "<a><c/></a>", false},
		{"/a[b and c]", "<a><b/><c/></a>", true},
		{"/a[b and c]", "<a><b/></a>", false},
		{"/a[b > 5]", "<a><b>6</b></a>", true},
		{"/a[b > 5]", "<a><b>5</b></a>", false},
		{"/a[b > 5]", "<a><b>1</b><b>9</b></a>", true},
		{"/a[b = \"hello\"]", "<a><b>hello</b></a>", true},
		{"/a[b = \"hello\"]", "<a><b>world</b></a>", false},
		{"/a[.//e and f]", "<a><x><e/></x><f/></a>", true},
		{"/a[.//e and f]", "<a><f/></a>", false},
		{"/a[c[.//e and f] and b > 5]", "<a><c><e/><f/></c><b>6</b></a>", true},
		{"/a[c[.//e and f] and b > 5]", "<a><c><f/></c><b>6</b></a>", false},
		{"/a[c[.//e and f] and b > 5]/b", "<a><c><e/><f/></c><b>6</b></a>", true},
		{"//a[b and c]", "<a><a><b/><c/></a></a>", true},
		{"//a[b and c]", "<a><b/><a><c/></a></a>", false},
		{"/a/*/b", "<a><x><b/></x></a>", true},
		{"/a/*/b", "<a><b/></a>", false},
		{"/a[contains(b, \"AB\")]", "<a><b>xABy</b></a>", true},
		{"/a[string-length(b) = 3]", "<a><b>abc</b></a>", true},
		{"/a[string-length(b) = 3]", "<a><b>ab</b></a>", false},
	}
	for _, c := range cases {
		if got := filterMatch(t, c.q, c.d); got != c.want {
			t.Errorf("Filter(%s, %s) = %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	bad := []string{
		"/a[b or c]",   // disjunction
		"/a[not(b)]",   // negation
		"/a[b = c]",    // multivariate
		"/a[b[c] > 5]", // internal value restriction
		"/a[5 > 3]",    // constant atomic predicate
	}
	for _, src := range bad {
		if _, err := Compile(query.MustParse(src)); err == nil {
			t.Errorf("Compile(%s): want error", src)
		}
	}
	// Redundant but conjunctive/univariate queries ARE supported (the
	// algorithm handles any leaf-only-value-restricted univariate
	// conjunctive query, not just redundancy-free ones).
	if _, err := Compile(query.MustParse("/a[b > 5 and b > 6]")); err != nil {
		t.Errorf("redundant query should compile: %v", err)
	}
}

// TestRecursiveDocuments exercises nested candidates for descendant-axis
// nodes (the r factor in Theorem 8.8).
func TestRecursiveDocuments(t *testing.T) {
	cases := []struct {
		q, d string
		want bool
	}{
		{"//a[b and c]", "<a><b/><a><b/><a/><c/></a></a>", true},
		{"//a[b and c]", "<a><b/><a><a/><c/></a></a>", false},
		{"//a[b and c]", "<a><a><a><a><b/><c/></a></a></a></a>", true},
		// Nested value-restricted leaf candidates: the outer b's string
		// value is "uvw" and must be evaluated correctly even though an
		// inner b candidate was evaluated (and failed) first.
		{`/a[.//b = "uvw"]`, "<a><b>u<b>v</b>w</b></a>", true},
		{`/a[.//b = "v"]`, "<a><b>u<b>v</b>w</b></a>", true},
		{`/a[.//b = "uw"]`, "<a><b>u<b>v</b>w</b></a>", false},
		{`/a[.//b = "w"]`, "<a><b>u<b>v</b>w</b></a>", false},
	}
	for _, c := range cases {
		if got := filterMatch(t, c.q, c.d); got != c.want {
			t.Errorf("Filter(%s, %s) = %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

// TestSiblingCandidateAccumulation: a failed later candidate must not reset
// a match found by an earlier sibling candidate (the ||= fix to Fig. 21
// line 28).
func TestSiblingCandidateAccumulation(t *testing.T) {
	cases := []struct {
		q, d string
		want bool
	}{
		{"/a/c[e]", "<a><c><e/></c><c><x/></c></a>", true},
		{"/a/c[e]", "<a><c><x/></c><c><e/></c></a>", true},
		{"//c[e]", "<a><c><e/><c><x/></c></c></a>", true},
		{"//c[e]", "<a><c><c><e/></c><x/></c></a>", true},
	}
	for _, c := range cases {
		if got := filterMatch(t, c.q, c.d); got != c.want {
			t.Errorf("Filter(%s, %s) = %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

func TestAttributes(t *testing.T) {
	cases := []struct {
		q, d string
		want bool
	}{
		{"/a/@id", `<a id="7"/>`, true},
		{"/a/@id", `<a/>`, false},
		{"/a[@id = 7]/b", `<a id="7"><b/></a>`, true},
		{"/a[@id = 7]/b", `<a id="8"><b/></a>`, false},
		{"/a/@b", `<a><b/></a>`, false}, // element b is not an attribute
		{"/a/b", `<a b="x"/>`, false},   // attribute b is not an element
	}
	for _, c := range cases {
		if got := filterMatch(t, c.q, c.d); got != c.want {
			t.Errorf("Filter(%s, %s) = %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

// TestTheorem81Randomized is the executable form of Theorem 8.1: the filter
// agrees with the reference evaluator on random documents.
func TestTheorem81Randomized(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	queries := []*query.Query{
		query.MustParse("/a[b and c]"),
		query.MustParse("//a[b > 5]"),
		query.MustParse("/a[c[.//e and f] and b > 5]"),
		query.MustParse("/a/b[c]"),
		query.MustParse("//a[b and c]"),
		query.MustParse("/a[.//b = \"v\"]"),
		query.MustParse("/a[*/e and b < 4]"),
		query.MustParse("//b//c"),
		query.MustParse("/a[contains(b, \"AB\") and c]"),
	}
	names := []string{"a", "b", "c", "e", "f", "x"}
	texts := []string{"3", "6", "9", "v", "xABy", ""}
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := tree.NewElement(names[rng.Intn(len(names))])
		if s := texts[rng.Intn(len(texts))]; s != "" && rng.Intn(2) == 0 {
			n.AppendText(s)
		}
		if depth < 5 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Append(gen(depth + 1))
			}
		}
		return n
	}
	fs := make([]*Filter, len(queries))
	for i, q := range queries {
		var err error
		fs[i], err = Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for iter := 0; iter < 500; iter++ {
		root := tree.NewRoot()
		root.Append(gen(0))
		qi := rng.Intn(len(queries))
		want := semantics.BoolEval(queries[qi], root)
		fs[qi].Reset()
		got, err := fs[qi].ProcessAll(root.Events())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: Filter(%s) = %v, oracle = %v, doc:\n%s",
				iter, queries[qi], got, want, root.Outline())
		}
	}
}

// TestFig22ExampleRun reproduces the example run of Section 8.4: the query
// /a[c[.//e and f] and b] on <a><c><d/><e/><f/></c><c/><b/></a>, tracing
// the frontier after each event.
func TestFig22ExampleRun(t *testing.T) {
	q := query.MustParse("/a[c[.//e and f] and b]")
	f, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	doc := "<a><c><d/><e/><f/></c><c/><b/></a>"
	events := sax.MustParse(doc)
	var traces []string
	f.Trace = func(e sax.Event, f *Filter) {
		traces = append(traces, e.String()+" -> "+f.FrontierString())
	}
	matched, err := f.ProcessAll(events)
	if err != nil {
		t.Fatal(err)
	}
	if !matched {
		t.Fatal("document must match (as in Fig. 22)")
	}
	assertTrace := func(i int, want string) {
		t.Helper()
		if i >= len(traces) {
			t.Fatalf("trace too short: %d entries", len(traces))
		}
		if traces[i] != want {
			t.Errorf("trace[%d] = %q, want %q", i, traces[i], want)
		}
	}
	// Event 0: <$> — the root's scope opens; tuple for a at level 1.
	assertTrace(0, "<$> -> [(1,a,0)]")
	// Event 1: <a> — a is an (unmatched) internal candidate with child
	// axis: it leaves the frontier; tuples for c and b appear at level 2.
	assertTrace(1, "<a> -> [(2,c,0), (2,b,0)]")
	// Event 2: <c> — c leaves; e (descendant) and f (child) at level 3.
	assertTrace(2, "<c> -> [(2,b,0), (3,e,0), (3,f,0)]")
	// Event 3: <d> — no frontier change except level (the "interesting
	// event" of Section 8.4: d matches nothing).
	assertTrace(3, "<d> -> [(2,b,0), (3,e,0), (3,f,0)]")
	assertTrace(4, "</d> -> [(2,b,0), (3,e,0), (3,f,0)]")
	// Events 5-6: <e/> — e is an unrestricted leaf: matched immediately.
	assertTrace(5, "<e> -> [(2,b,0), (3,e,1), (3,f,0)]")
	// Events 7-8: <f/> — f matched.
	assertTrace(7, "<f> -> [(2,b,0), (3,e,1), (3,f,1)]")
	// Event 9: </c> — c's scope closes with all children matched: c
	// returns to the frontier matched.
	assertTrace(9, "</c> -> [(2,b,0), (2,c,1)]")
	// Event 10: <c> — the second c: c already matched, ignored (the
	// other "interesting event" of Section 8.4).
	assertTrace(10, "<c> -> [(2,b,0), (2,c,1)]")
	assertTrace(11, "</c> -> [(2,b,0), (2,c,1)]")
	// Events 12-13: <b/> — b matched.
	assertTrace(12, "<b> -> [(2,b,1), (2,c,1)]")
	// Event 14: </a> — a's scope closes matched; a returns to frontier.
	assertTrace(14, "</a> -> [(1,a,1)]")
}

func TestSnapshotRestoreMidStream(t *testing.T) {
	q := query.MustParse("/a[c[.//e and f] and b > 5]")
	events := sax.MustParse("<a><c><x><e/></x><f/></c><b>6</b></a>")
	// For every cut point: run a filter to the cut, snapshot, restore
	// into a fresh filter, finish, and compare with an uncut run.
	want, err := MustCompile(q).ProcessAll(events)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(events); cut++ {
		alice := MustCompile(q)
		for _, e := range events[:cut] {
			if err := alice.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		snap := alice.Snapshot()
		bob := MustCompile(q)
		if err := bob.Restore(snap); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, e := range events[cut:] {
			if err := bob.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		if bob.Matched() != want {
			t.Errorf("cut %d: restored run = %v, want %v", cut, bob.Matched(), want)
		}
	}
}

func TestSnapshotRestoreErrors(t *testing.T) {
	f := MustCompile(query.MustParse("/a/b"))
	if err := f.Restore(nil); err == nil {
		t.Error("empty snapshot: want error")
	}
	if err := f.Restore([]byte{0xFF, 0xFF}); err == nil {
		t.Error("garbage snapshot: want error")
	}
}

func TestStatsBasic(t *testing.T) {
	q := query.MustParse("/a[c[.//e and f] and b > 5]")
	f := MustCompile(q)
	ok, err := f.ProcessAll(sax.MustParse("<a><c><e/><f/></c><b>6</b></a>"))
	if err != nil || !ok {
		t.Fatalf("run: %v %v", ok, err)
	}
	s := f.Stats()
	if s.Events == 0 || s.PeakTuples == 0 {
		t.Errorf("stats not collected: %s", s)
	}
	if s.MaxLevel != 3 {
		t.Errorf("MaxLevel = %d, want 3", s.MaxLevel)
	}
	// b's value "6" is buffered (value-restricted leaf).
	if s.PeakBufferBytes != 1 {
		t.Errorf("PeakBufferBytes = %d, want 1", s.PeakBufferBytes)
	}
	// The reference's reading of the quickstart query (the engine's is 5
	// live entries at 45 bits too: TestQuickstartMemStats in
	// internal/engine).
	if s.PeakTuples != 5 || s.EstimatedBits(q.Size()) != 45 {
		t.Errorf("PeakTuples = %d at %d bits, want 5 at 45", s.PeakTuples, s.EstimatedBits(q.Size()))
	}
	if !strings.Contains(s.String(), "peakTuples") {
		t.Error("Stats.String broken")
	}
}

// TestStatsFrontierBound verifies the Theorem 8.8 claim for path
// consistency-free closure-free queries: the frontier never exceeds FS(Q).
func TestStatsFrontierBound(t *testing.T) {
	// /a[b[x and y] and c] is closure-free and pc-free; FS = 3.
	q := query.MustParse("/a[b[x and y] and c]")
	f := MustCompile(q)
	docs := []string{
		"<a><b><x/><y/></b><c/></a>",
		"<a><b><x/></b><b><x/><y/></b><c/></a>",
		"<a><c/><b><q/><x/><y/></b></a>",
	}
	for _, d := range docs {
		f.Reset()
		if _, err := f.ProcessAll(sax.MustParse(d)); err != nil {
			t.Fatal(err)
		}
		// The paper's frontier measure: never exceeds FS(Q) = 3.
		if got := f.Stats().PeakFrontier; got > 3 {
			t.Errorf("%s: peak frontier = %d, exceeds FS(Q) = 3", d, got)
		}
		// Total live tuples additionally count parked child-axis scope
		// owners, at most one per query-path level (here root, a, b).
		if got := f.Stats().PeakTuples; got > 3+3 {
			t.Errorf("%s: peak tuples = %d, exceeds FS(Q)+depth = 6", d, got)
		}
	}
}

func TestUnrestrictedLeafNoBuffering(t *testing.T) {
	// /a[b]: b's truth set is S; no text should be buffered.
	f := MustCompile(query.MustParse("/a[b]"))
	ok, err := f.ProcessAll(sax.MustParse("<a><b>some very long text content here</b></a>"))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if f.Stats().PeakBufferBytes != 0 {
		t.Errorf("unrestricted leaf buffered %d bytes", f.Stats().PeakBufferBytes)
	}
}

func TestRunFromReader(t *testing.T) {
	f := MustCompile(query.MustParse("/a/b"))
	got, err := f.Run(sax.NewSliceReader(sax.MustParse("<a><b/></a>")))
	if err != nil || !got {
		t.Errorf("Run = %v, %v", got, err)
	}
}

func TestProcessErrors(t *testing.T) {
	f := MustCompile(query.MustParse("/a"))
	if err := f.Process(sax.Start("a")); err == nil {
		t.Error("startElement before startDocument: want error")
	}
	f.Reset()
	if err := f.Process(sax.StartDoc()); err != nil {
		t.Fatal(err)
	}
	if err := f.Process(sax.End("a")); err == nil {
		t.Error("unmatched endElement: want error")
	}
	f.Reset()
	if _, err := f.ProcessAll([]sax.Event{sax.StartDoc()}); err == nil {
		t.Error("missing endDocument: want error")
	}
}

func TestResetReuse(t *testing.T) {
	f := MustCompile(query.MustParse("/a[b > 5]"))
	for i, c := range []struct {
		d    string
		want bool
	}{
		{"<a><b>6</b></a>", true},
		{"<a><b>4</b></a>", false},
		{"<a><b>9</b></a>", true},
	} {
		f.Reset()
		got, err := f.ProcessAll(sax.MustParse(c.d))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("run %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestDeepDocumentLevelTracking(t *testing.T) {
	// /a/b on a deep Z-padded document (the Theorem 4.6 family): the
	// level check must reject b at the wrong depth.
	q := query.MustParse("/a/b")
	f := MustCompile(q)
	deep := "<a>" + strings.Repeat("<Z>", 50) + "<b/>" + strings.Repeat("</Z>", 50) + "</a>"
	got, err := f.ProcessAll(sax.MustParse(deep))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("b nested under Zs is not a child of a")
	}
	if f.Stats().MaxLevel != 52 {
		t.Errorf("MaxLevel = %d, want 52", f.Stats().MaxLevel)
	}
	f.Reset()
	ok, _ := f.ProcessAll(sax.MustParse("<a>" + strings.Repeat("<Z>", 50) + strings.Repeat("</Z>", 50) + "<b/></a>"))
	if !ok {
		t.Error("b directly under a must match regardless of Z padding")
	}
}

// TestSnapshotDeterminism: the same query and stream prefix always produce
// byte-identical snapshots. The lower-bound state-counting experiments
// (commcc.DistinctStates) rely on this: distinct bytes then imply distinct
// semantic states were forced by distinct inputs.
func TestSnapshotDeterminism(t *testing.T) {
	q := query.MustParse("/a[c[.//e and f] and b > 5]")
	events := sax.MustParse("<a><c><x><e/></x><f/></c><b>6</b></a>")
	for cut := 0; cut <= len(events); cut++ {
		f1, f2 := MustCompile(q), MustCompile(q)
		for _, e := range events[:cut] {
			if err := f1.Process(e); err != nil {
				t.Fatal(err)
			}
			if err := f2.Process(e); err != nil {
				t.Fatal(err)
			}
		}
		if string(f1.Snapshot()) != string(f2.Snapshot()) {
			t.Fatalf("cut %d: snapshots differ between identical runs", cut)
		}
		// Restore is also canonical: snapshot(restore(snapshot)) is
		// identical.
		f3 := MustCompile(q)
		if err := f3.Restore(f1.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if string(f3.Snapshot()) != string(f1.Snapshot()) {
			t.Fatalf("cut %d: snapshot not canonical after restore", cut)
		}
	}
}

// TestWouldMatchIfClosedNowMonotone: once WouldMatchIfClosedNow reports
// true, the final answer is true regardless of the remaining stream (the
// monotonicity every early exit and early predicate decision depends on).
func TestWouldMatchIfClosedNowMonotone(t *testing.T) {
	cases := []struct {
		q, d string
	}{
		{"/a[b]", "<a><b/><x/><y><z/></y></a>"},
		{"//a[b and c]", "<a><a><b/><c/></a><x/></a>"},
		{"/a[b > 5]", "<a><b>7</b><b>1</b></a>"},
		{"/a[c]/b", "<a><c/><b/><x/></a>"},
	}
	for _, c := range cases {
		q := query.MustParse(c.q)
		events := sax.MustParse(c.d)
		f := MustCompile(q)
		fired := false
		for _, e := range events {
			if err := f.Process(e); err != nil {
				t.Fatal(err)
			}
			if f.WouldMatchIfClosedNow() {
				fired = true
			} else if fired && !f.Done() {
				t.Fatalf("%s on %s: WouldMatchIfClosedNow regressed mid-stream", c.q, c.d)
			}
		}
		if !fired || !f.Matched() {
			t.Fatalf("%s on %s: fired=%v matched=%v", c.q, c.d, fired, f.Matched())
		}
	}
}
