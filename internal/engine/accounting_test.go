package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// accountingDoc is a catalog of n items, with attributes and text, whose
// deepest nesting comes last: a match that stops dispatching early has not
// seen it.
func accountingDoc(n int) []byte {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%d"><priority>%d</priority><f1/>text</item>`, i, i%12)
	}
	b.WriteString(strings.Repeat("<x>", 9) + strings.Repeat("</x>", 9) + "</catalog>")
	return []byte(b.String())
}

// docShape counts a document's events and its deepest level as the engine
// counts them: attribute pseudo-elements included.
func docShape(t *testing.T, doc []byte) (events, depth int) {
	t.Helper()
	tok := sax.NewTokenizerBytes(doc, nil)
	level := 0
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			return events, depth
		}
		if err != nil {
			t.Fatal(err)
		}
		events++
		switch ev.Kind {
		case sax.StartElement:
			level++
			depth = max(depth, level)
		case sax.EndElement:
			level--
		}
	}
}

// TestQuickstartMemStats pins the engine's reading of the quickstart query
// under the Theorem 8.8 cost model (fragment.EstimatedBits): 5 live entries
// at 45 bits over a 6-bit floor, what the reference filter holds too
// (TestStatsBasic in internal/core). The joint peak is at <c>: a's scope,
// b's tuple, c's scope and its e and f tuples (c's own tuple parks behind
// its scope). No scope stands for the document root.
func TestQuickstartMemStats(t *testing.T) {
	e := New()
	mustAdd(t, e, "q", "/a[c[.//e and f] and b > 5]")
	if _, err := e.MatchBytes(nil, []byte("<a><c><e/><f/></c><b>6</b></a>"), CaptureOff); err != nil {
		t.Fatal(err)
	}
	if ms := e.MemStats(); ms.PeakLiveTuples != 5 || ms.EstimatedBits != 45 || ms.LowerBoundBits != 6 {
		t.Errorf("live %d at %d bits over a %d-bit floor, want 5 at 45 over 6", ms.PeakLiveTuples, ms.EstimatedBits, ms.LowerBoundBits)
	}
}

// TestEmptyRouteAccounting pins where the document-level counters live: a
// route holding no subscription is dispatched no elements, so MemStats'
// Events and MaxDepth are the engine's. An all-linear set (nothing on the
// trie) and an all-predicated one (nothing on the merged NFA) must report
// what a set holding both reports, on one document: dispatched in full
// (verdicts open to the end), skimmed by MatchBytes once decided, or
// abandoned by MatchReader's early exit — on a short document and a long
// one.
func TestEmptyRouteAccounting(t *testing.T) {
	families := []struct {
		name         string
		linear, pred []string
		decided      bool // negatively, at the root element
	}{
		{"open", []string{"//zzz", "/catalog/item/zzz"}, []string{"//zzz[x]", "/catalog/item[zzz]/f1"}, false},
		{"dead", []string{"/news/item", "/feed//entry"}, []string{"/news[item]/x", "/feed[x > 1]//entry"}, true},
	}
	for _, items := range []int{20, 400} {
		doc := accountingDoc(items)
		events, depth := docShape(t, doc)
		for _, fam := range families {
			sets := map[string][]string{"linear": fam.linear, "pred": fam.pred, "mixed": append(fam.linear[:len(fam.linear):len(fam.linear)], fam.pred...)}
			engines := map[string]*Engine{}
			for name, srcs := range sets {
				e := New()
				for i, src := range srcs {
					mustAdd(t, e, fmt.Sprintf("s%d", i), src)
				}
				engines[name] = e
			}
			if st := engines["linear"].Stats(); st.TrieRouted != 0 {
				t.Fatalf("%s: the linear set routes %d subscriptions to the trie", fam.name, st.TrieRouted)
			}
			if st := engines["pred"].Stats(); st.NFARouted != 0 {
				t.Fatalf("%s: the predicated set routes %d subscriptions to the merged NFA", fam.name, st.NFARouted)
			}
			for _, path := range []string{"MatchBytes", "MatchReader"} {
				label := fmt.Sprintf("%s, %d bytes, %s", fam.name, len(doc), path)
				got := map[string]MemStats{}
				for name, e := range engines {
					var out Outcome
					var err error
					if path == "MatchBytes" {
						out, err = e.MatchBytes(nil, doc, CaptureOff)
						if (out.Skimmed > 0) != fam.decided {
							t.Fatalf("%s: %s set skimmed %d bytes", label, name, out.Skimmed)
						}
					} else {
						out, err = e.MatchReader(nil, bytes.NewReader(doc), 512, CaptureOff)
						if out.Read.EarlyExit != fam.decided {
							t.Fatalf("%s: %s set: early exit %v", label, name, out.Read.EarlyExit)
						}
					}
					if err != nil {
						t.Fatalf("%s: %s set: %v", label, name, err)
					}
					got[name] = e.MemStats()
				}
				want := got["mixed"]
				for _, name := range []string{"linear", "pred"} {
					if g := got[name]; g.Events != want.Events || g.MaxDepth != want.MaxDepth {
						t.Errorf("%s: %s set reads events=%d maxDepth=%d, the mixed set %d and %d",
							label, name, g.Events, g.MaxDepth, want.Events, want.MaxDepth)
					}
				}
				if !fam.decided && (want.Events != events || want.MaxDepth != depth) {
					t.Errorf("%s: dispatched in full, yet events=%d maxDepth=%d; the document has %d and %d",
						label, want.Events, want.MaxDepth, events, depth)
				}
				if skimmed := fam.decided && path == "MatchBytes"; skimmed && (want.Events >= events || want.MaxDepth != depth) {
					t.Errorf("%s: skimmed, yet events=%d of %d and maxDepth=%d of %d", label, want.Events, events, want.MaxDepth, depth)
				}
			}
		}
	}
}

// serveFeed is one feed in the shape of the serve workload's corpus: news
// items whose keyword is a filler ("databases", "systems") or one of the
// four flags serve's keyword subscriptions compare against.
func serveFeed() []byte {
	keywords := []string{"databases", "systems", "go", "databases", "xml", "systems", "streams", "theory"}
	var b strings.Builder
	b.WriteString("<news>")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>%s</keyword><priority>%d</priority><body><p>%s</p></body></item>",
			i, keywords[i%len(keywords)], i*7%10, strings.Repeat("lorem ipsum ", 1+i%5))
	}
	b.WriteString("</news>")
	return []byte(b.String())
}

// serveQueries are the serve workload's 32 subscriptions: four cycles of
// xpload's eight templates, the first two cycles extracting.
func serveQueries() (srcs []string, extract func(i int) bool) {
	for cycle, flag := range []string{"go", "xml", "streams", "theory"} {
		srcs = append(srcs,
			"/news/item",
			"/news/item/title",
			"/news//p",
			fmt.Sprintf("/news/item[priority > %d]", 2+2*cycle),
			fmt.Sprintf("/news/item[keyword = %q]", flag),
			"/news/*/keyword",
			"/feed/entry",
			"//item[keyword]/body",
		)
	}
	return srcs, func(i int) bool { return i < 16 }
}

// fanoutCatalog is one catalog in the shape of the fanout-pred workload's
// corpus: 40 items, each a priority 0-11 and two of the names f0-f79.
func fanoutCatalog() []byte {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", i*5%12, 2*i, (2*i+41)%80)
	}
	b.WriteString("</catalog>")
	return []byte(b.String())
}

// scanQueries are the scan workload's 8 predicate-free subscriptions.
var scanQueries = []string{
	"/news/item", "/news/item/title", "/news//p", "/news/*/keyword",
	"/feed/entry", "//item/body/p", "/news/item/priority", "//keyword",
}

// TestWorkloadShapedMemStats pins the memory accounting of the four
// benchmark workloads' standing sets on one document of their corpus each,
// exactly: serve's 32 subscriptions (the keyword equality group streams its
// values through a cursor, so the only text held is a one-digit priority),
// fanout-pred's 1,000 (a threshold group per prefix, whose values are
// parsed as numbers and so are buffered), and scan's 8 and churn's 1,000,
// all predicate-free, which hold nothing: their bits are the depth term
// alone. The predicated rows' peak is the joint one: fanout-pred's is an
// item's group scope and its priority's pending, the group's obligation
// parked behind it — //catalog opens no scope; serve's is the three scopes
// an item opens (the two groups' and //item[keyword]'s) and a pending, each
// scope's one obligation paid for by the scope.
func TestWorkloadShapedMemStats(t *testing.T) {
	serve, extract := serveQueries()
	var fanout, churn []string
	for i := 0; i < 1000; i++ {
		fanout = append(fanout, fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10))
		churn = append(churn, fmt.Sprintf("//catalog/item/f%d", i))
	}
	none := func(int) bool { return false }
	for _, c := range []struct {
		name                           string
		srcs                           []string
		extract                        func(i int) bool
		doc                            []byte
		live, buffered, groupBits, est int
	}{
		{"serve", serve, extract, serveFeed(), 4, 1, 11, 57},
		{"fanout-pred", fanout, none, fanoutCatalog(), 2, 2, 4, 50},
		{"scan", scanQueries, none, serveFeed(), 0, 0, 0, 2},
		{"churn", churn, none, fanoutCatalog(), 0, 0, 0, 2},
	} {
		e := New()
		for i, src := range c.srcs {
			add := e.Add
			if c.extract(i) {
				add = e.AddExtract
			}
			if err := add(fmt.Sprintf("s%d", i), query.MustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.MatchBytes(nil, c.doc, CaptureSlice); err != nil {
			t.Fatal(err)
		}
		ms := e.MemStats()
		t.Logf("%s: %v groupBits=%d", c.name, ms, ms.PeakGroupBits)
		if ms.PeakLiveTuples != c.live || ms.PeakBufferedBytes != c.buffered || ms.PeakGroupBits != c.groupBits || ms.EstimatedBits != c.est {
			t.Errorf("%s: live %d, buffered %d B, group bits %d, %d bits; want %d, %d B, %d, %d",
				c.name, ms.PeakLiveTuples, ms.PeakBufferedBytes, ms.PeakGroupBits, ms.EstimatedBits,
				c.live, c.buffered, c.groupBits, c.est)
		}
	}
}

// TestLiveBudgetLinearSet pins what MaxLiveTuples charges a set with no
// predicate: one runner entry per open element and nothing else — no scope
// stands for the document root — so a document of depth d passes at budget
// d and breaches at d−1, at its first element that deep.
func TestLiveBudgetLinearSet(t *testing.T) {
	doc := accountingDoc(20)
	_, depth := docShape(t, doc)
	e := New()
	for i, src := range []string{"//zzz", "/catalog/item/priority", "/catalog//x"} {
		mustAdd(t, e, fmt.Sprintf("s%d", i), src)
	}
	e.SetLimits(limits.Limits{MaxLiveTuples: depth})
	if _, err := e.MatchBytes(nil, doc, CaptureOff); err != nil {
		t.Fatalf("budget %d, depth %d: %v", depth, depth, err)
	}
	if ms := e.MemStats(); ms.PeakLiveTuples != 0 || ms.MaxDepth != depth {
		t.Fatalf("peak live %d at depth %d, want 0 at %d", ms.PeakLiveTuples, ms.MaxDepth, depth)
	}
	e.SetLimits(limits.Limits{MaxLiveTuples: depth - 1})
	_, err := e.MatchBytes(nil, doc, CaptureOff)
	var le *limits.Error
	if !errors.As(err, &le) || le.Resource != "live-tuples" || le.Observed != int64(depth) {
		t.Fatalf("budget %d, depth %d: %v, want a live-tuples breach observing %d", depth-1, depth, err, depth)
	}
}
