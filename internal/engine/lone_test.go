package engine

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// loneEngine returns an engine holding srcs under the ids s0, s1, …
func loneEngine(t *testing.T, srcs []string) *Engine {
	t.Helper()
	e := New()
	for i, src := range srcs {
		mustAdd(t, e, fmt.Sprint("s", i), src)
	}
	return e
}

// stepFold streams doc through e event by event, recounting the matcher's
// live state after each (checkLive: the tuples, scopes and pendings live()
// counts, and the folded obligations lone counts), and holds the verdicts
// to the tree evaluator's. It returns the document's MemStats.
func stepFold(t *testing.T, e *Engine, srcs []string, doc string) MemStats {
	t.Helper()
	e.Reset()
	tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
	for n := 0; ; n++ {
		ev, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatalf("%s: event %d: %v", doc, n, err)
		}
		checkLive(t, fmt.Sprintf("%s: event %d", doc, n), e)
	}
	if m := e.mt; m.tuples != 0 || m.lone != 0 || len(m.scopes) != 0 {
		t.Fatalf("%s: %d live tuples, %d live folded obligations and %d open scopes after the document", doc, m.tuples, m.lone, len(m.scopes))
	}
	if got, want := e.MatchedIDs(), truth(srcs, doc); !slices.Equal(got, want) {
		t.Fatalf("%s: matched %v, the tree evaluator %v", doc, got, want)
	}
	return e.MemStats()
}

// truth returns the ids (s0, s1, …) of the srcs the tree evaluator says
// doc matches, in order.
func truth(srcs []string, doc string) []string {
	root := tree.MustParse(doc)
	var ids []string
	for i, src := range srcs {
		if semantics.BoolEval(query.MustParse(src), root) {
			ids = append(ids, fmt.Sprint("s", i))
		}
	}
	return ids
}

// matchWhole holds e's verdicts on doc, matched whole and read in chunks of
// 1, 7 and the default size, to the tree evaluator's.
func matchWhole(t *testing.T, e *Engine, srcs []string, doc string) {
	t.Helper()
	want := truth(srcs, doc)
	out, err := e.MatchBytes(nil, []byte(doc), CaptureOff)
	if err != nil || !slices.Equal(out.IDs, want) {
		t.Fatalf("%s: MatchBytes %v (%v), the tree evaluator %v", doc, out.IDs, err, want)
	}
	for _, chunk := range []int{1, 7, 0} {
		out, err := e.MatchReader(nil, strings.NewReader(doc), chunk, CaptureOff)
		if err != nil || !slices.Equal(out.IDs, want) {
			t.Fatalf("%s: MatchReader at chunk %d %v (%v), the tree evaluator %v", doc, chunk, out.IDs, err, want)
		}
	}
}

// loneCases are sets whose every candidate scope has one obligation, each
// with documents and the live peak of each: the scopes and pendings alone,
// as a scope's obligation is the scope.
var loneCases = []struct {
	name string
	subs []string
	docs []string
	peak []int
}{
	// a's one b obligation parks behind the b scope, whose own c
	// obligation is live: an unsatisfied b candidate unparks it for the
	// next b, and a b below b is no child of a.
	{"child-axis parking", []string{"/a[b[c]]", "/a[b[c]]/d"},
		[]string{"<a><b><x/></b><b><c/></b><d/></a>", "<a><b><x/></b><d/></a>", "<a><b><b><c/></b></b><d/></a>", "<a><d/><b><c/></b></a>"},
		[]int{2, 2, 2, 2}},
	// A descendant obligation does not park: every b below a is a
	// candidate, each nested one too — at the inner b, two a scopes and
	// two b scopes.
	{"descendant axis", []string{"//a[.//b[c]]", "//a[.//b]"},
		[]string{"<a><b/><x><b><c/></b></x></a>", "<r><a><b><b><x/></b></b></a><a><x/></a></r>", "<a><b><b><c/></b></b></a>"},
		[]int{3, 4, 4}},
	// Three a scopes, two b scopes and the cursor of the attribute compared
	// with "v" at the peak.
	{"attribute", []string{"/a[@k]", "//a[b[@k]]", `//a[b[@k = "v"]]`},
		[]string{`<a k="1"/>`, `<a><b/><b k="w"/><b k="v"/></a>`, `<r><a><b/></a></r>`},
		[]int{3, 6, 4}},
	// An existence leaf's obligation parks and matches at once.
	{"existence leaf", []string{"//a[b]", "//a[b]/c"},
		[]string{"<r><a><c/></a><a><b/><c/></a></r>", "<r><a><c/><c/></a></r>"},
		[]int{1, 1}},
	// Threshold, numeric and textual equality groups, on a one-step path
	// and on a two-step one, whose a step is a scope of one obligation
	// below the group's: at a b, six group scopes, three a scopes and
	// three pendings.
	{"groups", []string{"//item[p > 3]", "//item[p > 5]", "//item[p = 4]", `//item[p = "x"]`,
		"//item[a/b > 3]", "//item[a/b = 4]", `//item[a/b = "x"]`, "//item[a/b > 3]/f"},
		[]string{
			"<r><item><a><b>2</b></a><a><b>4</b><b>x</b></a><f/></item><item><p>4</p><p>x</p></item></r>",
			"<r><item><a><b>2</b></a><f/></item><item><p>3</p></item></r>",
			"<r><item><a/><a><b>9</b></a><p>9</p><f/></item></r>",
		},
		[]int{12, 12, 12}},
	// A textual != streams its text through a cursor; at the first byte no
	// constant continues, the cursor dies and satisfies the obligation.
	{"textual != cursor", []string{`//item[k != "abc"]`, `//item[k != "abc"]/f`, `//item[k != ""]`},
		[]string{
			"<r><item><k>abc</k><f/></item><item><k>ab</k><k>abd</k><f/></item></r>",
			"<r><item><k>abc</k><f/></item><item><k>abc</k></item></r>",
			"<r><item><k/><f/></item></r>",
		},
		[]int{4, 4, 4}},
}

// TestLoneObligations: a scope whose node or group has one conjunctive
// child holds no tuple — its unmet count is the obligation's matched bit,
// and a bit on it parks the obligation — and the engine agrees with the
// tree evaluator, event by event and whole, buffered and read in chunks,
// with no tuple ever live and the peaks the scopes and pendings alone.
func TestLoneObligations(t *testing.T) {
	for _, c := range loneCases {
		e := loneEngine(t, c.subs)
		for i, doc := range c.docs {
			ms := stepFold(t, e, c.subs, doc)
			if ms.PeakLiveTuples != c.peak[i] {
				t.Errorf("%s: %s: peak live %d, want %d", c.name, doc, ms.PeakLiveTuples, c.peak[i])
			}
			if pt := e.Stats().PeakTuples; pt != 0 {
				t.Errorf("%s: %s: %d tuples live at the peak, want none", c.name, doc, pt)
			}
			matchWhole(t, e, c.subs, doc)
		}
	}
}

// TestLoneAndTupleScopesTogether: scopes of one obligation and of two,
// along one path and on one element, count apart — the two-conjunct scope's
// tuples as tuples, the others' not at all — and agree with the tree
// evaluator.
func TestLoneAndTupleScopesTogether(t *testing.T) {
	subs := []string{"//a[b and c]", "//a[b]", "//a[b and c]/d[e]", "//a[b]/d[e and f]", "//a[p > 2 and c]"}
	e := loneEngine(t, subs)
	for _, doc := range []string{
		"<r><a><b/><d><e/><f/></d><c/></a></r>",
		"<r><a><p>3</p><d><e/></d></a><a><c/><p>1</p></a></r>",
		"<a><c/><b/><d><f/><e/></d></a>",
	} {
		stepFold(t, e, subs, doc)
		if e.Stats().PeakTuples == 0 {
			t.Errorf("%s: no tuple live, want the two-conjunct scopes' tuples", doc)
		}
		matchWhole(t, e, subs, doc)
	}
}

// TestLoneObligationsAbandoned: a document abandoned mid-stream, by Reset
// or by a Remove, leaves no live obligation of either form counted, and the
// next document's counts and verdicts are right.
func TestLoneObligationsAbandoned(t *testing.T) {
	subs := []string{"//item[p > 3]", "//item[a[b]]/f", `//item[k != "x"]`, "//item[p > 1 and a]"}
	doc := "<r><item><a><b/></a><k>y</k><p>5</p><f/></item><item><p>1</p></item></r>"
	half := func(e *Engine, upTo string) {
		t.Helper()
		e.Reset()
		tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
		for stop := strings.Index(doc, upTo); tok.Offset() < stop; {
			ev, err := tok.Next()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ProcessBytes(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, upTo := range []string{"<b/>", "<k>"} {
		e := loneEngine(t, subs)
		half(e, upTo)
		if e.mt.lone == 0 {
			t.Fatalf("up to %s: no folded obligation live mid-document", upTo)
		}
		e.Reset()
		if m := e.mt; m.lone != 0 || m.tuples != 0 {
			t.Fatalf("up to %s: Reset left %d folded obligations and %d tuples counted", upTo, m.lone, m.tuples)
		}
		stepFold(t, e, subs, doc)

		half(e, upTo)
		if !e.Remove("s1") {
			t.Fatal("Remove(s1) = false")
		}
		if err := e.ProcessBytes(sax.ByteEvent{Kind: sax.EndDocument}); err == nil {
			t.Fatalf("up to %s: the document went on after a Remove", upTo)
		}
		rest := slices.Clone(subs)
		rest[1] = "/nothing" // s1's verdict is read as false
		stepFold(t, e, rest, doc)
		matchWhole(t, e, rest, doc)
	}
}

// TestLoneScopesHoldNoChildren: a set whose every scope has one obligation
// never gives a scope room for a tuple, so the scopes an engine keeps from
// document to document carry none.
func TestLoneScopesHoldNoChildren(t *testing.T) {
	var subs []string
	for _, c := range loneCases {
		subs = append(subs, c.subs...)
	}
	e := loneEngine(t, subs)
	for _, c := range loneCases {
		for _, doc := range c.docs {
			matchWhole(t, e, subs, doc)
			kept := 0
			for sc := e.mt.freeScopes; sc != nil; sc = sc.prev {
				kept++
				if cap(sc.children) != 0 {
					t.Fatalf("after %s a kept scope has room for %d tuples", doc, cap(sc.children))
				}
			}
			if kept == 0 && e.MemStats().PeakScopes > 0 {
				t.Fatalf("after %s no scope kept", doc)
			}
		}
	}
}

// TestOutOfRangeNumbers: a numeral past float64's range, in a document or
// in a query, is ±Infinity (XPath 1.0 §4.4 rounds to the nearest IEEE 754
// value), so it compares as the largest or least number there is —
// through threshold and equality groups and an ungrouped comparison, matched
// whole and read in chunks as small as one byte. Arithmetic on an infinite
// literal (Infinity times 0 is NaN, Infinity minus Infinity too) is the
// tree evaluator's, not a threshold's.
func TestOutOfRangeNumbers(t *testing.T) {
	big := "1" + strings.Repeat("0", 400)
	subs := []string{
		"/a[b > 5]", "/a[b < 5]", "/a[b >= " + big + "]", "/a[b > " + big + "]",
		"/a[b <= -" + big + "]", "/a[-" + big + " < b]", "/a[b = " + big + "]", "/a[b != 5]",
		"/a[b + 1 > 5]", "/a[b * " + big + " >= 0]", "/a[b + " + big + " >= " + big + "]",
		"/a[b - " + big + " < 0]", "/a[b * " + big + " * " + big + " > 1]", "/a[b * 0 >= -1]",
	}
	e := loneEngine(t, subs)
	for _, doc := range []string{
		"<a><b>" + big + "</b></a>",
		"<a><b>-" + big + "</b></a>",
		"<a><b> " + big + ".25 </b></a>",
		"<a><b>7</b></a>",
		"<a><b>0</b></a>",
		"<a><b>-3</b></a>",
	} {
		stepFold(t, e, subs, doc)
		matchWhole(t, e, subs, doc)
	}
	if got := truth(subs, "<a><b>"+big+"</b></a>"); !slices.Contains(got, "s0") || !slices.Contains(got, "s2") {
		t.Fatalf("the tree evaluator matches %v on +Infinity, want s0 (b > 5) and s2 (b >= its literal) among them", got)
	}
}
