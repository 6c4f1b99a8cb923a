package streamxpath

import (
	"strings"
	"testing"
)

func TestMatch(t *testing.T) {
	cases := []struct {
		q, d string
		want bool
	}{
		{"/a[b > 5]", "<a><b>6</b></a>", true},
		{"/a[b > 5]", "<a><b>4</b></a>", false},
		{"//item[keyword = \"go\"]", "<news><item><keyword>go</keyword></item></news>", true},
		// Non-streamable queries fall back to the in-memory evaluator.
		{"/a[b or c]", "<a><c/></a>", true},
		{"/a[not(b)]", "<a><c/></a>", true},
		{"/a[not(b)]", "<a><b/></a>", false},
	}
	for _, c := range cases {
		got, err := Match(c.q, c.d)
		if err != nil {
			t.Fatalf("Match(%s, %s): %v", c.q, c.d, err)
		}
		if got != c.want {
			t.Errorf("Match(%s, %s) = %v, want %v", c.q, c.d, got, c.want)
		}
	}
}

func TestMatchErrors(t *testing.T) {
	if _, err := Match("not a query", "<a/>"); err == nil {
		t.Error("bad query: want error")
	}
	if _, err := Match("/a", "<a><unclosed>"); err == nil {
		t.Error("bad document: want error")
	}
}

func TestFilterReuse(t *testing.T) {
	q := MustCompile("/feed/item[priority > 5]")
	f, err := q.NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]bool{
		"<feed><item><priority>7</priority></item></feed>": true,
		"<feed><item><priority>2</priority></item></feed>": false,
		"<feed><other/></feed>":                            false,
	}
	for d, want := range docs {
		got, err := f.MatchString(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MatchString(%s) = %v, want %v", d, got, want)
		}
	}
	s := f.Stats()
	if s.Events == 0 || s.EstimatedBits == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
}

func TestMatchReader(t *testing.T) {
	q := MustCompile("//b")
	f, _ := q.NewFilter()
	got, err := f.MatchReader(strings.NewReader("<a><b/></a>"))
	if err != nil || !got {
		t.Errorf("MatchReader = %v, %v", got, err)
	}
	if _, err := f.MatchReader(strings.NewReader("<a>")); err == nil {
		t.Error("truncated document: want error")
	}
}

func TestEvaluate(t *testing.T) {
	q := MustCompile("/a[c]/b")
	vals, err := q.Evaluate("<a><c/><b>1</b><b>2</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != "1" || vals[1] != "2" {
		t.Errorf("Evaluate = %v", vals)
	}
	vals2, err := q.EvaluateReader(strings.NewReader("<a><b>x</b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals2) != 0 {
		t.Errorf("no c child: Evaluate = %v", vals2)
	}
	ok, err := q.MatchDocument("<a><c/><b>1</b></a>")
	if err != nil || !ok {
		t.Error("MatchDocument")
	}
}

func TestAnalyze(t *testing.T) {
	a := MustCompile("/a[c[.//e and f] and b > 5]").Analyze()
	if !a.RedundancyFree || a.FrontierSize != 3 || !a.Streamable {
		t.Errorf("analysis = %+v", a)
	}
	if a.Size != 6 {
		t.Errorf("size = %d, want 6", a.Size)
	}
	if a.ClosureFree {
		t.Error("query uses a descendant axis")
	}
	a2 := MustCompile("/a[b or c]").Analyze()
	if a2.RedundancyFree || a2.Streamable || len(a2.Issues) == 0 || a2.StreamableReason == "" {
		t.Errorf("analysis = %+v", a2)
	}
	a3 := MustCompile("//a[b and c]").Analyze()
	if !a3.Recursive {
		t.Error("//a[b and c] is in Recursive XPath")
	}
	a4 := MustCompile("/a/b").Analyze()
	if !a4.DepthSensitive || !a4.ClosureFree || !a4.PathConsistencyFree {
		t.Errorf("analysis = %+v", a4)
	}
}

func TestNewFilterRejects(t *testing.T) {
	if _, err := MustCompile("/a[b or c]").NewFilter(); err == nil {
		t.Error("disjunction: want filter compile error")
	}
}

func TestStreamEvaluator(t *testing.T) {
	q := MustCompile("/a[c]/b")
	se, err := q.NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	se.OnValue(func(v string) { streamed = append(streamed, v) })
	vals, err := se.EvaluateString("<a><b>1</b><c/><b>2</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != "1" || vals[1] != "2" {
		t.Errorf("vals = %v", vals)
	}
	if len(streamed) != 2 {
		t.Errorf("OnValue received %v", streamed)
	}
	s := se.Stats()
	if s.Emitted != 2 || s.PeakPendingValues < 1 {
		t.Errorf("stats = %+v", s)
	}
	// Streamed vs in-memory evaluation agree.
	ref, err := q.Evaluate("<a><b>1</b><c/><b>2</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(vals) {
		t.Errorf("reference %v != streamed %v", ref, vals)
	}
	// Reuse on a non-matching document.
	se.OnValue(nil)
	vals2, err := se.EvaluateString("<a><b>1</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals2) != 0 {
		t.Errorf("vals2 = %v", vals2)
	}
	if se.Stats().Dropped != 1 {
		t.Errorf("dropped = %d", se.Stats().Dropped)
	}
}

func TestStreamEvaluatorRejects(t *testing.T) {
	if _, err := MustCompile("/a[b or c]/d").NewStreamEvaluator(); err == nil {
		t.Error("disjunction: want error")
	}
}

func TestFilterSet(t *testing.T) {
	s := NewFilterSet()
	subs := map[string]string{
		"go-fans":  `//item[keyword = "go"]`,
		"urgent":   `//item[priority > 8]`,
		"any-item": `//item`,
		"xml-fans": `//item[keyword = "xml"]`,
	}
	for id, q := range subs {
		if err := s.Add(id, q); err != nil {
			t.Fatalf("Add(%s): %v", id, err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	doc := `<news><item><keyword>go</keyword><priority>9</priority></item></news>`
	got, err := s.MatchString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"go-fans": true, "urgent": true, "any-item": true}
	if len(got) != len(want) {
		t.Fatalf("matched %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected match %q", id)
		}
	}
	// Reuse on a second document.
	got2, err := s.MatchString(`<news><item><keyword>xml</keyword><priority>1</priority></item></news>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 { // any-item, xml-fans
		t.Errorf("second doc matched %v", got2)
	}
	// Per-subscription answers agree with one-shot Match.
	for id, q := range subs {
		one, err := Match(q, doc)
		if err != nil {
			t.Fatal(err)
		}
		inSet := false
		for _, g := range got {
			if g == id {
				inSet = true
			}
		}
		if one != inSet {
			t.Errorf("%s: FilterSet=%v Match=%v", id, inSet, one)
		}
	}
}

func TestFilterSetErrors(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("a", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", "/b"); err == nil {
		t.Error("duplicate id: want error")
	}
	if err := s.Add("b", "/a[x or y]"); err == nil {
		t.Error("non-streamable subscription: want error")
	}
	if err := s.Add("c", "not a query"); err == nil {
		t.Error("bad query: want error")
	}
	if _, err := s.MatchString("<unclosed>"); err == nil {
		t.Error("bad document: want error")
	}
}

func TestAnalyzeRedundancies(t *testing.T) {
	a := MustCompile("/a[b > 5 and b > 6]").Analyze()
	if len(a.Redundancies) != 1 {
		t.Fatalf("redundancies = %v", a.Redundancies)
	}
	if a2 := MustCompile("/a[b and c]").Analyze(); len(a2.Redundancies) != 0 {
		t.Errorf("unexpected redundancies: %v", a2.Redundancies)
	}
}
