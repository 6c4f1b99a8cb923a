package streamxpath

import (
	"math/rand"
	"testing"

	"streamxpath/internal/core"
	"streamxpath/internal/query"
	"streamxpath/internal/workload"
)

// TestStreamableDecisionAgrees holds the three callers of
// fragment.Streamable to one answer: Analyze, NewFilter (the engine's Add)
// and the reference filter's core.Compile accept the same queries, and where
// they reject, StreamableReason is the text of NewFilter's error.
func TestStreamableDecisionAgrees(t *testing.T) {
	check := func(q *query.Query) bool {
		t.Helper()
		a := (&Query{q: q}).Analyze()
		_, ferr := (&Query{q: q}).NewFilter()
		_, cerr := core.Compile(q)
		if a.Streamable != (ferr == nil) || a.Streamable != (cerr == nil) {
			t.Fatalf("%s: Analyze says streamable=%v, NewFilter %v, core.Compile %v", q, a.Streamable, ferr, cerr)
		}
		if ferr != nil && (a.StreamableReason != ferr.Error() || cerr.Error() != ferr.Error()) {
			t.Errorf("%s: StreamableReason %q, NewFilter %q, core.Compile %q", q, a.StreamableReason, ferr, cerr)
		}
		return a.Streamable
	}
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"/a[b or c]", false},
		{"/a[not(b)]", false},
		{"/a[5 > 3]", false},
		{"/a[b[c] > 5]", false},
		{"/a[b > c]", false},
		{"/a/@b", true},
		{"//*", true},
		{"/a[c[.//e and f] and b > 5]", true},
		{`//item[keyword = "go"]/title`, true},
		{"/a[*/b > 5 and c/b//d > 12 and .//d < 30]", true},
	} {
		if got := check(query.MustParse(c.src)); got != c.want {
			t.Errorf("%s: streamable=%v, want %v", c.src, got, c.want)
		}
	}
	// A tree built by hand can hold a predicate child that no atomic
	// predicate names: it has no truth set, and all three refuse it.
	q := query.MustParse("/a[b]")
	a := q.Root.Children[0]
	a.Children = append(a.Children, &query.Node{Axis: query.AxisChild, NTest: "c", Parent: a})
	if check(q) {
		t.Error("a predicate child without a truth set was accepted")
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 1500; i++ {
		check(workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(10)))
		check(workload.RandomStreamableQuery(rng, []string{"a", "b", "c", "p"}, []string{"x", "v0", "9"}))
	}
}
