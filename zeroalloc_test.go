package streamxpath_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"streamxpath"
)

// TestSteadyStateZeroAlloc pins that a warm FilterSet matches a document
// with no allocation at all, on the standing-set shapes the dissemination
// engine is built for: the four disseminationSubs topologies at 100, 1,000
// and 10,000 subscriptions through MatchBytes, and a /news set that can
// match nothing of a 1.2 MB catalog, buffered and — with one universally
// live subscription beside it — read to its end through MatchReader. The
// other warm paths have pins of their own: TestFilterSetMatchBytesZeroAlloc
// (a FilterSet read from a reader, and the pool's one slice per call),
// TestFilterSetPredicatedZeroAlloc, TestFilterSetMatchReaderZeroAlloc,
// TestLimitsSteadyStateAllocs (budgets set and never hit),
// TestBooleanPathZeroAllocsWithExtractSubs and TestFilterSetSkimZeroAlloc.
// One row alternates two documents, where one document's pass could undo
// what the other warmed.
func TestSteadyStateZeroAlloc(t *testing.T) {
	type row struct {
		name    string
		subs    []string
		doc     []byte
		reader  bool
		matched int
		alt     []byte // matched every other time in doc's place, if set
	}
	var rows []row
	doc, wide := []byte(disseminationDoc(40)), []byte(disseminationWideDoc(40))
	for _, c := range []struct {
		topology string
		doc      []byte
		matched  [3]int
	}{
		{"shared", doc, [3]int{80, 80, 80}},
		{"disjoint", doc, [3]int{0, 0, 0}},
		{"predshared", doc, [3]int{45, 402, 402}},
		{"preddisjoint", wide, [3]int{50, 360, 360}},
	} {
		for i, n := range []int{100, 1000, 10000} {
			rows = append(rows, row{fmt.Sprintf("FilterSet/%s/subs=%d", c.topology, n),
				disseminationSubs(c.topology, n), c.doc, false, c.matched[i], nil})
		}
	}
	// The catalog's leaf names are f0-f9: with a name per item, the set
	// would spend its setup interning 44,000 of them.
	var big strings.Builder
	big.WriteString("<catalog>")
	for j := 0; j < 22000; j++ {
		fmt.Fprintf(&big, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j%10, (j+5)%10)
	}
	big.WriteString("</catalog>")
	news := make([]string, 40)
	for i := range news {
		switch i % 3 {
		case 0:
			news[i] = fmt.Sprintf("/news/sports/item/f%d", i)
		case 1:
			news[i] = fmt.Sprintf("/news//f%d", i)
		default:
			news[i] = fmt.Sprintf("/news/item[priority > %d]/f%d", i%10, i)
		}
	}
	catalog := []byte(big.String())
	rows = append(rows,
		row{"MatchReaderNoMatch/buffered", news, catalog, false, 0, nil},
		row{"MatchReaderNoMatch/chunked-fullread", append(slices.Clone(news), "//never/matches"), catalog, true, 0, nil},
		// Each b of the first document waits on its a's x, a commit on
		// the a scope; the second's x comes first and gates none. The
		// scope Reset keeps holds on to its room for up to 16 commits
		// across both (a document gating more on one scope, then one
		// gating fewer, gives the room above twice that back).
		row{"AlternatingGatedCommits", []string{"//a[x]/b"},
			[]byte("<a>" + strings.Repeat("<b/>", 12) + "<x/></a>"), false, 1, []byte("<a><x/><b/></a>")})

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := streamxpath.NewFilterSet()
			for i, src := range row.subs {
				if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
					t.Fatal(err)
				}
			}
			r := bytes.NewReader(row.doc)
			n := 0
			match := func() ([]string, error) {
				if row.reader {
					r.Reset(row.doc)
					return s.MatchReader(r)
				}
				if n++; row.alt != nil && n%2 == 0 {
					return s.MatchBytes(row.alt)
				}
				return s.MatchBytes(row.doc)
			}
			// Warm up: the lazy DFA's rows, every scratch buffer and the
			// reader's window, which grows as reads fill it.
			for i := 0; i < 3; i++ {
				ids, err := match()
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != row.matched {
					t.Fatalf("matched %d subscriptions, want %d", len(ids), row.matched)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := match(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady state: %v allocs/run, want 0", allocs)
			}
		})
	}
}

// disseminationWideDoc is the preddisjoint feed: items of 20 children
// (a priority and 19 subscribed leaf names), so most events of a document
// are leaf candidates under many open predicated scopes. Each item's
// priority passes the predicates of its first 9 leaves' subscriptions.
func disseminationWideDoc(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < items; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority>", j*19+9)
		for c := 0; c < 19; c++ {
			fmt.Fprintf(&b, "<f%d/>", j*19+c)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return b.String()
}
