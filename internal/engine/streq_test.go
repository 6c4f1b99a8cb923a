package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// The streamed-equality differential: a textual = or != resolves its
// candidates' values through cursors into the constants, never through
// buffered text, so what it must agree with the tree evaluator on is every
// way a value's text can reach it — split across text events by entity and
// character references, comments, CDATA sections and child elements,
// nested inside another candidate's, cut at every chunk boundary — against
// constants that are empty, prefixes of one another or multi-byte, in
// groups that gain and lose constants between documents.
// TestStreamedEquality runs it on seeded random bytes, FuzzStreamedEquality
// on whatever the fuzzer finds.

// streqConsts are the constants compared against: empty, prefixes of one
// another, spelled by references in the documents, and multi-byte.
var streqConsts = []string{"", "g", "go", "goo", "A", "a&b", "é", "héllo", "日本", "go A"}

// streqQueries are the comparison shapes, %q taking the constant: a
// grouped = by a child, by descendants (whose candidates nest), by an
// attribute and with a continuation; an ungrouped = in a conjunction; and
// != by a child and by descendants, which no group takes.
var streqQueries = []string{
	"//a[b = %q]",
	"//a[.//b = %q]",
	"/r/a[@id = %q]",
	"//a[b = %q]/b",
	"//a[b = %q and b]",
	"//a[b != %q]",
	"//a[.//b != %q]",
}

// streqPieces are what a candidate's content is made of: plain text, the
// references that decode to the constants' characters, a comment, CDATA
// sections and child elements, b ones among them nesting candidates.
var streqPieces = []string{
	"g", "o", "go", "A", "&#x41;", "&#65;", "&amp;", "a", "b", " ", "h", "é", "&#xE9;", "llo", "日", "本",
	"<!--c-->", "<![CDATA[go]]>", "<![CDATA[&]]>", "<i>o</i>", "<i/>",
}

// streqAttrs are the attribute values a documents' a elements carry.
var streqAttrs = []string{"", "go", "A", "&#x41;", "a&amp;b", "h&#xE9;llo", "goo"}

// streqDoc draws a document of a elements under r whose b children hold
// drawn pieces, a b child among them sometimes, nesting up to two deep.
func streqDoc(d *dice) string {
	var b strings.Builder
	var content func(depth int)
	content = func(depth int) {
		for k := d.n(4); k > 0; k-- {
			if depth < 2 && d.n(6) == 0 {
				b.WriteString("<b>")
				content(depth + 1)
				b.WriteString("</b>")
				continue
			}
			b.WriteString(streqPieces[d.n(len(streqPieces))])
		}
	}
	b.WriteString("<r>")
	for k := 1 + d.n(3); k > 0; k-- {
		b.WriteString("<a")
		if d.n(2) == 0 {
			fmt.Fprintf(&b, ` id="%s"`, streqAttrs[d.n(len(streqAttrs))])
		}
		b.WriteString(">")
		for j := d.n(4); j > 0; j-- {
			b.WriteString("<b>")
			content(0)
			b.WriteString("</b>")
		}
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	return b.String()
}

// streqCover counts the verdicts a run checked, by query shape (the index
// in streqQueries) and outcome (matched or not).
type streqCover [][2]int

// runStreamedEquality plays data against one engine: subscriptions come and
// go between documents, and every document, matched whole and read at every
// chunk size from 1 to 7, must give the tree evaluator's verdicts and the
// same fragments (a third of the subscriptions extract, and a != may latch
// inside its candidate's text) while holding no text.
func runStreamedEquality(t testing.TB, data []byte) streqCover {
	d := &dice{data: data}
	e := New()
	var live []churnSub
	shape := map[string]int{}
	cover := make(streqCover, len(streqQueries))
	serial := 0
	for round := 0; !d.done(); round++ {
		for ops := 1 + d.n(3); ops > 0; ops-- {
			if len(live) > 0 && d.n(3) == 0 {
				i := d.n(len(live))
				if !e.Remove(live[i].id) {
					t.Fatalf("Remove(%s) = false", live[i].id)
				}
				live = slices.Delete(live, i, i+1)
				continue
			}
			k := d.n(len(streqQueries))
			s := churnSub{id: fmt.Sprintf("s%d", serial), src: fmt.Sprintf(streqQueries[k], streqConsts[d.n(len(streqConsts))]), extract: d.n(3) == 0}
			shape[s.id] = k
			serial++
			if err := s.addTo(e); err != nil {
				t.Fatalf("Add(%s): %v", s.src, err)
			}
			live = append(live, s)
		}
		checkStrIndexes(t, e)
		doc := streqDoc(d)
		label := fmt.Sprintf("round %d, doc %s, subscriptions %v", round, doc, live)
		root, err := tree.Parse(doc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var want []string
		for _, s := range live {
			truth := semantics.BoolEval(query.MustParse(s.src), root)
			if truth {
				want = append(want, s.id)
				cover[shape[s.id]][1]++
			} else {
				cover[shape[s.id]][0]++
			}
		}
		out, err := e.MatchBytes(nil, []byte(doc), CaptureSerial)
		if err != nil || !slices.Equal(out.IDs, want) {
			t.Fatalf("%s: MatchBytes %v (%v), the tree evaluator %v", label, out.IDs, err, want)
		}
		frags := fragmentStrings(out.Frags)
		for chunk := 1; chunk <= 7; chunk++ {
			out, err := e.MatchReader(nil, bytes.NewReader([]byte(doc)), chunk, CaptureSerial)
			if err != nil || !slices.Equal(out.IDs, want) {
				t.Fatalf("%s: MatchReader at chunk %d %v (%v), the tree evaluator %v", label, chunk, out.IDs, err, want)
			}
			if got := fragmentStrings(out.Frags); !slices.Equal(got, frags) {
				t.Fatalf("%s: MatchReader at chunk %d captured %q, MatchBytes %q", label, chunk, got, frags)
			}
			if b := e.MemStats().PeakBufferedBytes; b != 0 {
				t.Fatalf("%s: chunk %d buffered %d B of text", label, chunk, b)
			}
		}
	}
	return cover
}

// fragmentStrings copies fragments out of the engine's capture memory.
func fragmentStrings(frags []Fragment) []string {
	out := make([]string, len(frags))
	for i, f := range frags {
		out[i] = f.ID + "=" + string(f.Data)
	}
	return out
}

// checkStrIndexes holds every textual equality group's index to its
// members: one bucket per constant in strictly ascending order, each with
// members, as many as the group has, and prefixes the count of the
// constants' distinct non-empty prefixes.
func checkStrIndexes(t testing.TB, e *Engine) {
	t.Helper()
	var groups []*predGroup
	for _, h := range e.tr.holds {
		if h != nil {
			groups = append(groups, h.groups...)
		}
	}
	for _, g := range groups {
		if g.class != classStrEq {
			continue
		}
		prefixes, members := map[string]bool{}, 0
		for i, bk := range g.strs.bks {
			if i > 0 && g.strs.bks[i-1].str >= bk.str {
				t.Fatalf("group %s: constants %q, %q out of order", g.key, g.strs.bks[i-1].str, bk.str)
			}
			if len(bk.eq) == 0 {
				t.Fatalf("group %s: constant %q has no members", g.key, bk.str)
			}
			members += len(bk.eq)
			for k := 1; k <= len(bk.str); k++ {
				prefixes[bk.str[:k]] = true
			}
		}
		if members != g.size || g.strs.prefixes != len(prefixes) {
			t.Fatalf("group %s: %d members in buckets of %d, %d prefixes counted of %d", g.key, members, g.size, g.strs.prefixes, len(prefixes))
		}
	}
}

// TestStreamedEquality runs the differential on seeded random bytes, and
// requires every query shape to have been checked both matching and not.
func TestStreamedEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	total := make(streqCover, len(streqQueries))
	for i := 0; i < 300; i++ {
		data := make([]byte, 40+rng.Intn(200))
		rng.Read(data)
		for k, c := range runStreamedEquality(t, data) {
			total[k][0] += c[0]
			total[k][1] += c[1]
		}
	}
	t.Logf("verdicts by shape, [false true]: %v", total)
	for k, c := range total {
		if c[0] < 10 || c[1] < 10 {
			t.Errorf("%s: %d verdicts false and %d true; want at least 10 of each", streqQueries[k], c[0], c[1])
		}
	}
}

func FuzzStreamedEquality(f *testing.F) {
	for _, seed := range []string{"", "\x00\x01\x02", "streamed equality", "\x05\x03\x07\x02\x01\x09\x04\x06\x08\x00"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runStreamedEquality(t, data) })
}

// TestCursorAdvance walks a cursor over constants sharing prefixes through
// every split of a value into two text events: it must end on the value's
// constant exactly when the value is one, and die exactly when no constant
// continues what it has read.
func TestCursorAdvance(t *testing.T) {
	ix := &strIndex{}
	for _, c := range []string{"go", "", "goo", "gap", "xml", "g", "日本"} {
		ix.insert(&eqBucket{str: c})
	}
	// "", g, ga, gap, go, goo, x, xm, xml and the six bytes of 日本.
	if ix.prefixes != 14 || ix.bits() != 4 {
		t.Fatalf("prefixes %d, bits %d; want 14 and 4", ix.prefixes, ix.bits())
	}
	for _, v := range []string{"", "g", "go", "goo", "gooo", "ga", "gap", "gaps", "x", "xml", "xmm", "日本", "日", "本", "z"} {
		for cut := 0; cut <= len(v); cut++ {
			c := cursor{ix: ix, hi: len(ix.bks)}
			dies := -1
			for i, part := range []string{v[:cut], v[cut:]} {
				if part != "" && !c.advance([]byte(part)) && dies < 0 {
					dies = i
				}
			}
			want := slices.ContainsFunc(ix.bks, func(bk *eqBucket) bool { return bk.str == v })
			if bk := c.exact(); (bk != nil) != want || (bk != nil && bk.str != v) {
				t.Errorf("%q cut at %d: exact %v, want the constant: %v", v, cut, bk, want)
			}
			prefix := slices.ContainsFunc(ix.bks, func(bk *eqBucket) bool { return strings.HasPrefix(bk.str, v) })
			if (dies < 0) != prefix {
				t.Errorf("%q cut at %d: live %v, some constant continues it: %v", v, cut, dies < 0, prefix)
			}
		}
	}
}

// TestStreamedInequalityDecidesMidText: a != is settled by the first byte
// no constant continues, not when its candidate closes, so a reader whose
// every verdict that byte decides stops reading inside the candidate.
func TestStreamedInequalityDecidesMidText(t *testing.T) {
	e := New()
	mustAdd(t, e, "ne", `/r/a[b != "go"]`)
	doc := "<r><a><b>gx" + strings.Repeat("<i/>", 1000) + "</b></a></r>"
	out, err := e.MatchReader(nil, strings.NewReader(doc), 64, CaptureOff)
	if err != nil || !slices.Equal(out.IDs, []string{"ne"}) {
		t.Fatalf("ids %v, err %v; want [ne]", out.IDs, err)
	}
	if !out.Read.EarlyExit || out.Read.BytesConsumed > 128 {
		t.Errorf("early exit %v after %d of %d bytes; want one within the first 128", out.Read.EarlyExit, out.Read.BytesConsumed, len(doc))
	}
}
