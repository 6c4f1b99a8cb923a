package sax

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamxpath/internal/limits"
)

// TestSkimPieceBoundaries: each construct a helper cannot finish, with a
// piece starting at a '<' inside or at it — every piece size from one byte
// up puts the piece starts on a different set of '<'s — from every skim
// entry, with and without budgets: a comment, CDATA section, PI or DOCTYPE
// holding a '<'; the root closing in a later piece, followed by whitespace,
// a comment, text, a second root or a stray end tag; a mismatched or spaced
// end tag; bad references; attributes; a MaxDepth breach only the sum of
// the depth below a piece and the piece's own reaches, and a piece whose
// deepest tag comes before the mismatched or root end tag its adoption
// stops at; a MaxTokenBytes breach; truncation.
func TestSkimPieceBoundaries(t *testing.T) {
	long := strings.Repeat("t", 30)
	docs := []string{
		"<r><b><!-- <a> </b> --></b><c/></r>",
		"<r><b><![CDATA[ <a></b> ]]></b><c/></r>",
		"<r><b><?pi <a></b> ?></b><c/></r>",
		"<r><b><!DOCTYPE d <a></b><c/></r>",
		`<!DOCTYPE r SYSTEM "<a>"><!-- <a> --><r><b/></r>`,
		"<r><a><b/></a></r> \n ", "<r><a><b/></a></r><!-- <c> -->", "<r><a><b/></a></r>text",
		"<r><a><b/></a></r><s><t/></s>", "<r><a><b/></a></r></r>", "<r><a><b/></a></r><?pi?>",
		"<r><a><b></c></a></r>", "<r><a><b/></a></x>", "<r><a><b/></a><c></a></c></r>",
		"<r><a><b></b ></a ></r>", "<r><a><b></b\n></a></r>",
		"<r><a>x&bad;y</a><b>&#0;</b></r>", "<r><a>&amp;&lt;</a><b>&#x26;</b>&nope;</r>",
		`<r><a x="1" y='2'><b z="&amp;"/></a><c x="1" x="2"/></r>`, `<r><a x="<b>"/><c/></r>`,
		"<r><a><b><c><d/></c></b></a><e/></r>", "<r><a><b></b><b><c/></b></a><a><b><c></c></b></a></r>",
		"<r><a><b>xxxxxxxx<c><d/></c></b></x></r>", "<r><a><b>xxxxxxxx<c><d/></c></b></a></r> ",
		"<r><a>" + long + "</a><b>short</b><c>&amp;" + long[:22] + "</c></r>",
		"<r><a><b/></a>", "<r><a><b/></a></r", "<r><a><b", "<r><a>text", "<r><a></a></",
	}
	for _, doc := range docs {
		var sizes []int
		for size := 2; size <= len(doc); size++ {
			sizes = append(sizes, size)
		}
		for _, lim := range []limits.Limits{{}, skimLimits, {MaxDepth: 4}} {
			for k, events := 0, 0; k <= events; k++ {
				events = CheckSkimEquivalence(t, []byte(doc), k, lim, sizes...)
			}
		}
	}
}

// TestSkimAdoptsPieces: with a piece at every '<', a skim of plain markup
// takes every piece from its helper — the last one up to the root's end
// tag — while one whose '<'s lie inside a comment takes only the piece after
// it, and of pieces that start with a comment, which a helper leaves to the
// cursor, none counts. A differential that never adopted would hold
// trivially.
func TestSkimAdoptsPieces(t *testing.T) {
	const n = 20
	for _, c := range []struct {
		doc  string
		want int
	}{
		{"<r>" + strings.Repeat("<a>x</a>", n) + "</r>", 2 * n}, // every '<' after the first <a>
		{"<r><!--" + strings.Repeat("<a>x</a>", n) + "--></r>", 1},
		{"<r>" + strings.Repeat("<!--c--><a/>", n) + "</r>", n + 1},
	} {
		doc := []byte(c.doc)
		want, events := nextEnd(doc, limits.Limits{})
		tok := NewTokenizerBytes(doc, nil)
		tok.pieceSize = 1
		if got := skimAfter(t, tok, doc, events[:2]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: skim ended at %+v, Next at %+v", doc, got, want)
		}
		if got := tok.SkimPieces(); got != c.want {
			t.Errorf("%q: %d pieces adopted, want %d", doc, got, c.want)
		}
	}
}

// skimFeed is a news feed in the scan workload's shape, of at least size
// bytes; entity puts three references in every body.
func skimFeed(size int, entity bool) []byte {
	chunk := "lorem ipsum "
	if entity {
		chunk = "lorem &amp; ips&lt;m &#38; "
	}
	var b bytes.Buffer
	b.WriteString("<news>")
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>go</keyword><priority>%d</priority><body><p>%s</p></body></item>",
			i, i%10, strings.Repeat(chunk, 1+i%5))
	}
	b.WriteString("</news>")
	return b.Bytes()
}

// damage replaces the first old at or after offset from of doc by new.
func damage(doc []byte, from int, old, new string) []byte {
	i := from + bytes.Index(doc[from:], []byte(old))
	return append(append(append([]byte(nil), doc[:i]...), new...), doc[i+len(old):]...)
}

// skimFeeds are large feeds, sound and damaged, each with the budgets to
// skim it under: a mismatched end tag late in the feed and in its first
// piece (where the skim fails while helpers are still on later pieces), a
// bad reference, a truncation, a depth breach deep in the feed,
// and a spaced end tag (sound, but the kernel leaves it to the scanners).
func skimFeeds() []struct {
	doc []byte
	lim limits.Limits
} {
	plain, entity := skimFeed(160<<10, false), skimFeed(160<<10, true)
	late := len(plain) - 2000
	return []struct {
		doc []byte
		lim limits.Limits
	}{
		{plain, limits.Limits{}},
		{entity, limits.Limits{}},
		{plain, limits.Limits{MaxDepth: 4, MaxTokenBytes: 1 << 10}},
		{damage(plain, late, "</p>", "</q>"), limits.Limits{}},
		{damage(plain, skimPieceBytes/2, "</p>", "</q>"), limits.Limits{}},
		{damage(entity, late, "&amp;", "&bad;"), limits.Limits{}},
		{plain[:len(plain)-100], limits.Limits{}},
		{damage(plain, late, "<p>", "<p><x><y/></x>"), limits.Limits{MaxDepth: 5}},
		{damage(entity, late, "</body>", "</body >"), limits.Limits{}},
	}
}

// TestSkimConcurrentCallers: eight goroutines, more than there are cores,
// skim large feeds on tokenizers of their own — sound feeds and damaged
// ones (skimFeeds) — and every skim ends where the Next loop ends. Each skims a
// copy of its own and clears it as soon as Skim returns, so under -race a
// helper still reading it would be reported.
func TestSkimConcurrentCallers(t *testing.T) {
	feeds := skimFeeds()
	type end struct {
		want   skimOutcome
		prefix []Event
	}
	ends := make([]end, len(feeds))
	for i, f := range feeds {
		want, events := nextEnd(f.doc, f.lim)
		ends[i] = end{want, events[:4]}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tok := NewTokenizerBytes(nil, nil)
			var buf []byte
			for round := 0; round < 3; round++ {
				for i := range feeds {
					i := (i + g) % len(feeds)
					buf = append(buf[:0], feeds[i].doc...)
					tok.SetLimits(feeds[i].lim)
					got := skimAfter(t, tok, buf, ends[i].prefix)
					clear(buf)
					if !reflect.DeepEqual(got, ends[i].want) {
						t.Errorf("goroutine %d, feed %d, limits %+v: skim ended at %+v (%v), Next at %+v (%v)",
							g, i, feeds[i].lim, got, got.err, ends[i].want, ends[i].want.err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// goroutineID names the calling goroutine by the number its stack trace
// starts with.
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestSkimHelperPanicFallsBack: a helper that panics is recovered, and the
// cursor validates its piece itself. With every odd piece faulting, feeds
// sound and damaged still skim to where the Next loop ends them, until a
// helper goroutine — not the cursor — has faulted; with every piece
// faulting, nothing is adopted.
func TestSkimHelperPanicFallsBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cursor := goroutineID()
	var helperFaults atomic.Int32
	skimFault = func(piece int) {
		if piece%2 == 1 {
			if goroutineID() != cursor {
				helperFaults.Add(1)
			}
			panic("injected helper fault")
		}
	}
	defer func() { skimFault = nil }()
	tok := NewTokenizerBytes(nil, nil)
	feeds := skimFeeds()
	for attempt := 0; attempt < 50 && (attempt < 2 || helperFaults.Load() == 0); attempt++ {
		for _, f := range feeds {
			want, events := nextEnd(f.doc, f.lim)
			tok.SetLimits(f.lim)
			if got := skimAfter(t, tok, f.doc, events[:4]); !reflect.DeepEqual(got, want) {
				t.Fatalf("limits %+v: skim ended at %+v (%v), Next at %+v (%v)", f.lim, got, got.err, want, want.err)
			}
		}
	}
	if helperFaults.Load() == 0 {
		t.Fatal("no helper goroutine faulted in 50 rounds of skims")
	}

	skimFault = func(int) { panic("injected helper fault") }
	for _, size := range []int{0, 1 << 10} {
		f := feeds[0]
		want, events := nextEnd(f.doc, f.lim)
		tok.pieceSize = size
		got := skimAfter(t, tok, f.doc, events[:4])
		if !reflect.DeepEqual(got, want) || tok.SkimPieces() != 0 {
			t.Fatalf("pieces of %d, every one faulting: skim ended at %+v with %d pieces adopted, Next at %+v",
				size, got, tok.SkimPieces(), want)
		}
	}
}
