package query_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/workload"
)

// The engine keeps a subscription as text and compiles it again when it
// rebuilds its indexes; for a tree that came without source text, the text
// it keeps is the tree's rendering. That rests on rendering being faithful:
// Parse(q.String()) has q's step keys — same axes, node tests and predicates,
// so the same index entries — and renders as q does, a fixed point.

func checkRoundTrip(t *testing.T, q *query.Query) {
	t.Helper()
	rendered := q.String()
	back, err := query.Parse(rendered)
	if err != nil {
		t.Fatalf("%q renders as %q, which does not parse: %v", q.Source, rendered, err)
	}
	if got, want := back.Key(), q.Key(); got != want {
		t.Fatalf("%q renders as %q, which parses to other steps:\n have %s\n want %s", q.Source, rendered, got, want)
	}
	if why := diffNodes(q.Root, back.Root); why != "" {
		t.Fatalf("%q renders as %q, which parses to another tree: %s", q.Source, rendered, why)
	}
	if again := back.String(); again != rendered {
		t.Fatalf("%q: rendering is not a fixed point: %q, then %q", q.Source, rendered, again)
	}
}

// diffNodes says where the trees under a and b differ, "" if nowhere.
func diffNodes(a, b *query.Node) string {
	if a.Axis != b.Axis || a.NTest != b.NTest || len(a.Children) != len(b.Children) ||
		(a.Successor == nil) != (b.Successor == nil) || (a.Pred == nil) != (b.Pred == nil) {
		return fmt.Sprintf("step %s%s against %s%s", a.Axis, a.NTest, b.Axis, b.NTest)
	}
	for i := range a.Children {
		if (a.Children[i] == a.Successor) != (b.Children[i] == b.Successor) {
			return fmt.Sprintf("below %s%s the successor is another child", a.Axis, a.NTest)
		}
		if why := diffNodes(a.Children[i], b.Children[i]); why != "" {
			return why
		}
	}
	if a.Pred != nil {
		return diffExprs(a, b, a.Pred, b.Pred)
	}
	return ""
}

// diffExprs compares two predicate expressions of the steps oa and ob; their
// path leaves must point at children in the same positions.
func diffExprs(oa, ob *query.Node, a, b *query.Expr) string {
	if a.Kind != b.Kind || a.Op != b.Op || len(a.Args) != len(b.Args) ||
		(a.Kind == query.ExprConst && !a.Const.Equal(b.Const)) ||
		(a.Kind == query.ExprPath && slices.Index(oa.Children, a.Child) != slices.Index(ob.Children, b.Child)) {
		return fmt.Sprintf("expression %s against %s", a, b)
	}
	for i := range a.Args {
		if why := diffExprs(oa, ob, a.Args[i], b.Args[i]); why != "" {
			return why
		}
	}
	return ""
}

// roundTripSeeds are spellings the generators do not draw: attributes,
// string constants with either quote, functions, arithmetic, negation,
// flipped and nested comparisons, odd spacing.
var roundTripSeeds = []string{
	"/a/b",
	"//a//*/b",
	"//catalog/item[priority > 3]/f7",
	"//a[ 3 < b ]/c/@id",
	"/a[c[.//e and f] and b > 5]/b",
	"/a[*/b > 5 and c/b//d > 12 and .//d < 30]",
	`/a[b = "hello"]`,
	`/a[b = 'it "is"']`,
	`/a[contains(b, "AB") and starts-with(c, "x")]`,
	"/a[string-length(b) <= 4]",
	"/a[not(b) or c]",
	"/a[b + 2 = 5]",
	"/a[(b + 2) * 3 = 5 - c]",
	"/a[b - (c - 1) > 0]",
	"/a[b > -1.5]",
	"/a[@id = 3]/b[@k]",
	"/a[b != 2 and c >= 0.25]",
	"@id",
	"/a[b or (c or d) and (e or f)]",
	"/a[(b = 1) = (c = 2)]",
	"/a[-(b + 1) * --c > 1000000000000000000000]",
	"/a[b > 0.00000001]",
	"/a[contains((b = c), 'x')][d]",
	"/a[(not(b)) = c]",
	"/a[b idiv 2 mod 3 = c div (d div 2)]",
	"/a[b > 1" + strings.Repeat("0", 400) + "]",
	"/a[-1" + strings.Repeat("0", 320) + " < b]",
}

func TestQueryRoundTrip(t *testing.T) {
	for _, src := range roundTripSeeds {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		checkRoundTrip(t, q)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		checkRoundTrip(t, workload.RandomRedundancyFreeQuery(rng, 1+rng.Intn(12)))
	}
}

func FuzzQueryRoundTrip(f *testing.F) {
	for _, src := range roundTripSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, q)
	})
}
