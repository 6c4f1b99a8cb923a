// Package workload generates the synthetic documents and queries the
// benchmark harness sweeps over: deep documents (the d parameter of
// Theorem 7.14), recursive documents (the r parameter of Theorem 7.4),
// wide documents (frontier pressure), random trees for differential
// testing, a news-feed corpus for the selective-dissemination scenario of
// the paper's introduction, and random redundancy-free queries.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/tree"
)

// Deep returns a document of depth d+2: an "a" root child, a chain of d
// auxiliary Z elements, and a "b" leaf at the bottom. Matches //b and
// /a//b but not /a/b (for d > 0).
func Deep(d int) *tree.Node {
	root := tree.NewRoot()
	cur := root.AppendElement("a")
	for i := 0; i < d; i++ {
		cur = cur.AppendElement("Z")
	}
	cur.AppendElement("b").AppendText("leaf")
	return root
}

// Recursive returns a document with r nested "a" elements; level i
// (0-based, outermost first) has a "b" child iff withB(i) and a "c" child
// iff withC(i). This is the D_{s,t} shape of Section 4.2.
func Recursive(r int, withB, withC func(int) bool) *tree.Node {
	root := tree.NewRoot()
	cur := root
	var closers []*tree.Node
	for i := 0; i < r; i++ {
		a := cur.AppendElement("a")
		if withB(i) {
			a.AppendElement("b")
		}
		closers = append(closers, a)
		cur = a
	}
	for i := r - 1; i >= 0; i-- {
		if withC(i) {
			closers[i].AppendElement("c")
		}
	}
	return root
}

// FullyRecursive returns Recursive(r, always, always): every level has
// both b and c, so //a[b and c] matches at every level.
func FullyRecursive(r int) *tree.Node {
	always := func(int) bool { return true }
	return Recursive(r, always, always)
}

// Wide returns a document whose root child has n element children named
// c0 … c(n-1), each holding a small text value.
func Wide(n int) *tree.Node {
	root := tree.NewRoot()
	a := root.AppendElement("a")
	for i := 0; i < n; i++ {
		a.AppendElement(fmt.Sprintf("c%d", i)).AppendText(fmt.Sprintf("%d", i))
	}
	return root
}

// RandomTree returns a random document over the given names: each node has
// up to maxFanout children down to maxDepth, and a text child drawn from
// texts with probability 1/2.
func RandomTree(rng *rand.Rand, names, texts []string, maxDepth, maxFanout int) *tree.Node {
	var gen func(depth int) *tree.Node
	gen = func(depth int) *tree.Node {
		n := tree.NewElement(names[rng.Intn(len(names))])
		if len(texts) > 0 && rng.Intn(2) == 0 {
			n.AppendText(texts[rng.Intn(len(texts))])
		}
		if depth < maxDepth {
			for i := 0; i < rng.Intn(maxFanout+1); i++ {
				n.Append(gen(depth + 1))
			}
		}
		return n
	}
	root := tree.NewRoot()
	root.Append(gen(0))
	return root
}

// NewsItem is one article of the news-feed corpus.
type NewsItem struct {
	Title    string
	Keyword  string
	Priority int
	Body     string
}

// NewsFeed returns a feed document with the given items — the selective
// dissemination workload of the paper's introduction ([1] Altinel &
// Franklin): documents streamed past many subscription filters.
func NewsFeed(items []NewsItem) *tree.Node {
	root := tree.NewRoot()
	feed := root.AppendElement("news")
	for _, it := range items {
		item := feed.AppendElement("item")
		item.AppendElement("title").AppendText(it.Title)
		item.AppendElement("keyword").AppendText(it.Keyword)
		item.AppendElement("priority").AppendText(fmt.Sprintf("%d", it.Priority))
		body := item.AppendElement("body")
		body.AppendElement("p").AppendText(it.Body)
	}
	return root
}

// RandomNewsFeed returns a feed of n random items.
func RandomNewsFeed(rng *rand.Rand, n int) *tree.Node {
	keywords := []string{"go", "xml", "streams", "databases", "theory", "systems"}
	items := make([]NewsItem, n)
	for i := range items {
		items[i] = NewsItem{
			Title:    fmt.Sprintf("story %d", i),
			Keyword:  keywords[rng.Intn(len(keywords))],
			Priority: rng.Intn(10),
			Body:     strings.Repeat("lorem ipsum ", 1+rng.Intn(5)),
		}
	}
	return NewsFeed(items)
}

// StarChainQuery returns the query //a/*/*/…/*/b with k wildcards — the
// family whose eager DFA blows up exponentially (Section 1.2).
func StarChainQuery(k int) *query.Query {
	var b strings.Builder
	b.WriteString("//a")
	for i := 0; i < k; i++ {
		b.WriteString("/*")
	}
	b.WriteString("/b")
	return query.MustParse(b.String())
}

// FrontierQuery returns a query with frontier size exactly fs:
// /a[c1 and c2 and … and c_fs].
func FrontierQuery(fs int) *query.Query {
	var b strings.Builder
	b.WriteString("/a[")
	for i := 0; i < fs; i++ {
		if i > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "c%d", i)
	}
	b.WriteString("]")
	return query.MustParse(b.String())
}

// FrontierDoc returns a document matching FrontierQuery(fs).
func FrontierDoc(fs int) *tree.Node {
	root := tree.NewRoot()
	a := root.AppendElement("a")
	for i := 0; i < fs; i++ {
		a.AppendElement(fmt.Sprintf("c%d", i))
	}
	return root
}

// RandomRedundancyFreeQuery generates a conjunctive query whose leaves all
// carry distinct names (so no node structurally dominates another and the
// sunflower properties hold trivially). size controls the approximate node
// count.
func RandomRedundancyFreeQuery(rng *rand.Rand, size int) *query.Query {
	counter := 0
	freshName := func() string {
		counter++
		return fmt.Sprintf("n%d", counter)
	}
	budget := size
	var genPred func(depth int) string
	genPred = func(depth int) string {
		var conjuncts []string
		n := 1 + rng.Intn(2)
		for i := 0; i < n && budget > 0; i++ {
			budget--
			name := freshName()
			axis := ""
			if rng.Intn(3) == 0 {
				axis = ".//"
			}
			switch rng.Intn(4) {
			case 0:
				conjuncts = append(conjuncts, axis+name)
			case 1:
				conjuncts = append(conjuncts, fmt.Sprintf("%s%s > %d", axis, name, rng.Intn(20)))
			case 2:
				if depth < 2 && budget > 1 {
					conjuncts = append(conjuncts, fmt.Sprintf("%s%s[%s]", axis, name, genPred(depth+1)))
				} else {
					conjuncts = append(conjuncts, axis+name)
				}
			default:
				conjuncts = append(conjuncts, fmt.Sprintf("%s%s < %d", axis, name, rng.Intn(20)))
			}
		}
		if len(conjuncts) == 0 {
			conjuncts = append(conjuncts, freshName())
		}
		return strings.Join(conjuncts, " and ")
	}
	src := fmt.Sprintf("/%s[%s]", freshName(), genPred(0))
	return query.MustParse(src)
}

// RandomStreamableQuery returns a random query over names: one to three
// steps along / or //, each a name or (one time in five) a wildcard, and
// each with probability 1/2 a predicate of one or two conjuncts — a child or
// descendant existence test, or a comparison of a child's value against a
// small number or one of texts: the shapes the streaming evaluators take,
// over the vocabulary a RandomTree document is drawn from.
func RandomStreamableQuery(rng *rand.Rand, names, texts []string) *query.Query {
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	var b strings.Builder
	for i := 1 + rng.Intn(3); i > 0; i-- {
		b.WriteString(pick([]string{"/", "//"}))
		if rng.Intn(5) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(pick(names))
		}
		if rng.Intn(2) == 0 {
			continue
		}
		b.WriteByte('[')
		for j := 1 + rng.Intn(2); j > 0; j-- {
			switch rng.Intn(4) {
			case 0:
				b.WriteString(pick(names))
			case 1:
				b.WriteString(".//" + pick(names))
			case 2:
				fmt.Fprintf(&b, "%s > %d", pick(names), rng.Intn(10))
			default:
				fmt.Fprintf(&b, "%s = %q", pick(names), pick(texts))
			}
			if j > 1 {
				b.WriteString(" and ")
			}
		}
		b.WriteByte(']')
	}
	return query.MustParse(b.String())
}

// Events is shorthand for d.Events().
func Events(d *tree.Node) []sax.Event { return d.Events() }
