package sax

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamxpath/internal/limits"
	"streamxpath/internal/symtab"
)

// The skim differential: Skim is the Next loop with nothing materialized,
// so from any event on it must end where the Next loop ends — the same
// error (type and every field: a SyntaxError's offset and message, a
// limits.Error's resource, limit and observed value), the same deepest
// level, the same end of document.

// skimOutcome is where a run over one document ended. deepest is the
// deepest nesting of StartElement events (Depth), which is what an
// evaluator fed from Next would count as depth: of the events delivered,
// and for a skim also the level it reports for the events it spared its
// caller.
type skimOutcome struct {
	err     error
	deepest int
	offset  int
}

// CheckSkimEquivalence runs doc to its end with Next, and again with k
// calls of Next followed by Skim, under the same budgets, and fails t where
// the two ends differ. The skim runs unsplit, with a piece starting at every
// '<' of the remainder, and at each of pieceSizes: split, the tokenizer
// validates every piece in piece mode first and then adopts what it can, so
// each piece's adoption — and each fallback to the sequential path — is
// exercised however many cores there are. It returns the number of events
// doc yields (those before its first error), so a caller can walk k over
// all of them; a k past that number checks nothing new. Exported for
// FuzzTokenizerBytes, which lives in the external test package.
func CheckSkimEquivalence(t testing.TB, doc []byte, k int, lim limits.Limits, pieceSizes ...int) int {
	t.Helper()
	want, events := nextEnd(doc, lim)
	if k > len(events) {
		return len(events) // doc ends or fails within k events: no skim to compare
	}
	tok := NewTokenizerBytes(doc, nil)
	tok.SetLimits(lim)
	for _, size := range append([]int{0, 1}, pieceSizes...) {
		tok.pieceSize = size
		got := skimAfter(t, tok, doc, events[:k])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q, limits %+v, pieces of %d: %d × Next then Skim ended at %+v (%v), Next alone at %+v (%v)",
				doc, lim, size, k, got, got.err, want, want.err)
		}
		if got.err == nil {
			if _, err := tok.Next(); err != io.EOF {
				t.Fatalf("%q, pieces of %d: Next after a completed Skim = %v, want io.EOF", doc, size, err)
			}
		}
	}
	return len(events)
}

// nextEnd runs doc to its end with Next under lim: where it ends, and the
// events it yields before its error.
func nextEnd(doc []byte, lim limits.Limits) (skimOutcome, []Event) {
	tok := NewTokenizerBytes(doc, nil)
	tok.SetLimits(lim)
	var end skimOutcome
	var events []Event
	for {
		ev, err := tok.Next()
		if err == nil {
			events = append(events, ev.Event(tok.Table()))
			continue
		}
		if err != io.EOF {
			end.err = err
		}
		end.deepest, end.offset = Depth(events), tok.Offset()
		return end, events
	}
}

// skimAfter points tok at doc, takes len(prefix) events — which must be
// prefix — and skims the rest: where that ends, its deepest level counting
// the prefix's.
func skimAfter(t testing.TB, tok *TokenizerBytes, doc []byte, prefix []Event) skimOutcome {
	t.Helper()
	tok.Reset(doc)
	for i := range prefix {
		if _, err := tok.Next(); err != nil {
			t.Fatalf("%.40q…: event %d of the prefix on a second pass: %v", doc, i, err)
		}
	}
	deepest, err := tok.Skim()
	return skimOutcome{err, max(Depth(prefix), deepest), tok.Offset()}
}

// batchEvent is one event as a consumer saw it — every field, Data copied
// out — and the offset at which the tokenizer stood after it.
type batchEvent struct {
	kind      Kind
	attribute bool
	sym       symtab.Sym
	off       int
	data      string
	offset    int
}

func seen(ev ByteEvent, offset int) batchEvent {
	return batchEvent{ev.Kind, ev.Attribute, ev.Sym, ev.Off, string(ev.Data), offset}
}

// CheckBatchEquivalence drains doc with NextBatch at batch sizes 1, 2, 3
// and 64, and fails t where a drain differs from the Next loop: in any
// field of any event — its Data read once its batch is complete, as a
// consumer reads it — in Offset after a batch, or in the error the
// document ends with (type and every field). It also holds each batch to
// NextBatch's length rule: a batch ends short only at an error or after
// character data. Exported for FuzzTokenizerBytes, which lives in the
// external test package.
func CheckBatchEquivalence(t testing.TB, doc []byte, lim limits.Limits) {
	t.Helper()
	tok := NewTokenizerBytes(doc, nil)
	tok.SetLimits(lim)
	var want []batchEvent
	var wantErr error
	for wantErr == nil {
		var ev ByteEvent
		if wantErr = tok.NextInto(&ev); wantErr == nil {
			want = append(want, seen(ev, tok.Offset()))
		}
	}
	wantEnd := tok.Offset()
	evs := make([]ByteEvent, 64)
	for _, size := range []int{1, 2, 3, 64} {
		tok.Reset(doc)
		label := func() string { return fmt.Sprintf("%q, limits %+v, batch %d", doc, lim, size) }
		var got []batchEvent
		for {
			n, err := tok.NextBatch(evs[:size])
			if len(got)+n > len(want) {
				t.Fatalf("%s: %d events, the Next loop has %d", label(), len(got)+n, len(want))
			}
			for _, ev := range evs[:n] {
				w := want[len(got)]
				got = append(got, seen(ev, w.offset))
				if got[len(got)-1] != w {
					t.Fatalf("%s: event %d = %+v, the Next loop's %+v", label(), len(got)-1, got[len(got)-1], w)
				}
			}
			if err != nil {
				if !reflect.DeepEqual(err, wantErr) || tok.Offset() != wantEnd || len(got) != len(want) {
					t.Fatalf("%s: ended after %d events at %d with %v, the Next loop after %d at %d with %v",
						label(), len(got), tok.Offset(), err, len(want), wantEnd, wantErr)
				}
				break
			}
			if n == 0 {
				t.Fatalf("%s: an empty batch and no error", label())
			}
			last := got[len(got)-1]
			if tok.Offset() != last.offset {
				t.Fatalf("%s: offset %d after event %d, the Next loop's %d", label(), tok.Offset(), len(got)-1, last.offset)
			}
			if n < size && (last.kind != Text || last.data == "") {
				t.Fatalf("%s: batch of %d ended short after event %d %+v", label(), n, len(got)-1, last)
			}
		}
	}
}

// checkSkimEveryK is CheckSkimEquivalence at every event index of doc.
func checkSkimEveryK(t testing.TB, doc []byte, lim limits.Limits) {
	t.Helper()
	events := CheckSkimEquivalence(t, doc, 0, lim)
	for k := 1; k <= events; k++ {
		CheckSkimEquivalence(t, doc, k, lim)
	}
}

// skimLimits are tight enough that the corpus below breaches both budgets
// a skim enforces, at element, self-closing and attribute levels.
var skimLimits = limits.Limits{MaxDepth: 3, MaxTokenBytes: 24}

// KernelShapes is every shape the scanners special-case, well-formed and
// not: tags closed on the byte after the name and tags that are not, names
// no name may begin with, a name or a reference cut off by the end of the
// window, references touching markup on either side, each kind of
// reference, good and bad, where a skim checks it without decoding (text,
// attribute values) and where it must decode (outside the root), and names
// too long for anything sized by a word. Then the word boundaries of the
// skim kernel's eight-byte text sweep and of its end-tag compare: runs
// around a word's length with a tag, a good and a bad reference at every
// offset, runs that end the document, delimiter bytes with the high bit set
// and UTF-8 next to markup, names of one and two words, end tags one byte
// short or long of the open name, and what may follow the root once a skim
// has closed it. The skim differential walks them at every event and the
// split differential (stream_tokenizer_test.go) at every byte. Exported for
// that file, which lives in the external test package.
var KernelShapes = func() []string {
	long := strings.Repeat("n", 200)
	docs := []string{
		"<a>", "<a >", "<a\n>", "<a/>", "<a />", "<a/ >", "</a >",
		"<r><a></a></r>", "<r><a ></a ></r>", "<r><a\n></a\n></r>",
		"<r><a/><a /></r>", "<r><a/ ></r>", "<r><a/", "<r><a /",
		`<a !=""></a>`, `<a ?x="1"/>`, `<a -x="1"/>`, `<a .x="1"/>`, `<a 0=""></a>`,
		"<!></!>", "<r><-a/></r>", "<r><.a/></r>", "<r></!r>", "<r><a></-a></r>", "<r><a!?-.0/></r>",
		"<r><a", "<r></r", "<r>&", "<r>&#", "<r>&amp", "<r>&#3", "<r>text",
		`<r x="&`, `<r x="&#`, `<r x="&amp`, `<r x`, `<r x=`,
		"<r>&amp;<a/>&amp;</r>", "<r><a>&amp;</a>&lt;<a/>&gt;</r>", "<r>x&apos;<a/>&quot;y</r>",
		"<r><" + long + "></" + long + "></r>",
		"<r><" + long + "/><a " + long + `="1" ` + long + `x="2"/></r>`,
		"<r><a " + long + `="1" ` + long + `="2"/></r>`,
		"<r><" + long + "></" + long + "x></r>",
		manyAttrTag(40, -1), manyAttrTag(40, 2), manyAttrTag(300, 290),
		// The ninth attribute doubles the name table before it is found
		// to repeat the first: tokenized, and split, after a suspension.
		manyAttrTag(8, 0),
	}
	for _, ref := range []string{"&#38;", "&#x26;", "&#X26;", "&#0000000038;", "&#00000000038;",
		"&#x110000;", "&#1114111;", "&#;", "&#x;", "&#3a;", "&bad;", "&toolongname12;", "&lt", "&;", "&#32;"} {
		docs = append(docs,
			"<r><a>"+ref+"</a></r>", "<r><a>x"+ref+ref+"y</a></r>",
			`<r><a x="`+ref+`"/></r>`, `<r><a x='v`+ref+ref+`' y="`+ref+`"></a></r>`,
			"<r/>"+ref, ref+"<r/>", "<r></r> "+ref+" ")
	}
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		for i := 0; i < n; i++ {
			for _, d := range []string{"<a/>", "&amp;", "&bad;"} {
				docs = append(docs, "<r>"+strings.Repeat("x", i)+d+strings.Repeat("y", n-1-i)+"</r>")
			}
		}
		docs = append(docs, "<r>"+strings.Repeat("x", n), "<r><a>"+strings.Repeat("x", n-1)+"&amp;")
	}
	// Names of 7, 8 and 9 bytes — either side of one word holding name and
	// '>' — whose end tag ends at the end of the window, before a '<' where
	// a piece can start, and after a start tag with attributes, whose name
	// is not followed by '>'.
	for n := 7; n <= 9; n++ {
		name := "abcdefghi"[:n]
		docs = append(docs,
			"<r><"+name+"></"+name+">", "<r><"+name+"></"+name+"><a/></r>",
			"<r><"+name+` k="1"></`+name+"></r>", "<r><"+name+"></"+name[:n-1]+"></r>",
			"<r><"+name+"></"+name[:n-1]+"x></r>", "<r><"+name+"></"+name+"x></r>")
	}
	const w8, w16 = "abcdefgh", "abcdefghijklmnop"
	docs = append(docs,
		"<r>\xbc\xa6<a/>\xa6&amp;\xbc</r>", "<r>"+strings.Repeat("\xbc", 9)+"<a>"+strings.Repeat("\xa6", 16)+"</a></r>",
		"<r>é<a>ü</a>&lt;日本&#x65E5;語</r>", "<r>\xbc&\xa6;</r>", "<r>日本",
		"<r><"+w8+"></"+w8+"><"+w16+"/><"+w16+"></"+w16+"></r>",
		"<r><"+w8+"></"+w8+"i></r>", "<r><"+w8+"i></"+w8+"></r>",
		"<r><"+w16+"></"+w16+"q></r>", "<r><"+w16+"q></"+w16+"></r>",
		"<r><"+w8+"></"+w8, "<r><"+w16+"></"+w16+" >",
		"<r><a/></r>x", "<r><a/></r> \n", "<r><a/></r><!-- c -->", "<r><a/></r><?pi?>",
		"<r><a/></r><s/>", "<r><a></a></r><s>", "<r>t</r>&amp;", "<r>t</r></r>",
	)
	return append(docs, wordShapes()...)
}()

// wordShapes are the shapes of names resolved and end tags closed by their
// word (nameWord): names of 1, 7, 8, 9 and 16 bytes, ASCII and UTF-8, names
// holding the bytes the name screen flags though they are name bytes ('-',
// '.', '?', '#', NUL), names that share their first eight bytes, and end
// tags that differ from their start tag only in the eighth or ninth byte or
// in where '>' falls — each with the window's end at every distance after
// it, which the differential tests see whole, split at every offset and
// skimmed.
func wordShapes() []string {
	var docs []string
	names := []string{"a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop",
		"é", "日本é", "日本語", "日本語日本", "a-b", "a.bcdefgh", "abcdefg?", "a#", "\x00", "a\x00b", "\x00\x00\x00\x00\x00\x00\x00\x00\x00"}
	for _, name := range names {
		for _, tail := range []string{"", "<", "</", "</r", "</r>", "x</r>", "xx</r>", "xxxx</r>", "xxxxxxx</r>", "xxxxxxxxxx</r>"} {
			docs = append(docs,
				"<r><"+name+"></"+name+">"+tail,
				"<r><"+name+"/>"+tail,
				"<r><"+name+">t</"+name+tail)
		}
	}
	for _, pair := range [][2]string{
		{"abcdefgh", "abcdefgX"}, {"abcdefghi", "abcdefgXi"}, {"abcdefghi", "abcdefghX"},
		{"abcdefghij", "abcdefgXij"}, {"abcdefghij", "abcdefghXj"}, {"abcdefghi", "abcdefgh"},
		{"abcdefgh", "abcdefghi"}, {"abcdefghi", "abcdefghij"}, {"abcdefghij", "abcdefghi"},
		{"abcdefg", "abcdefgh"}, {"abcdefgh", "abcdefg"}, {"\x00", "\x00\x00"}, {"a\x00", "a"},
	} {
		docs = append(docs, "<r><"+pair[0]+"></"+pair[1]+"></r>", "<r><"+pair[0]+"></"+pair[0]+" ></r>")
	}
	// Names that share their first eight bytes, of one length and of two,
	// and a long name whose word is 0 beside others of its length.
	docs = append(docs,
		"<r><abcdefgh1/><abcdefgh2/><abcdefgh1></abcdefgh1><abcdefgh22/><abcdefgh2>x</abcdefgh2><abcdefgh1/></r>",
		"<r><abcdefghij></abcdefghij><abcdefghik></abcdefghik><abcdefghij/></r>",
		"<r><\x00\x00\x00\x00\x00\x00\x00\x00\x00/><abcdefghi/><\x00\x00\x00\x00\x00\x00\x00\x00\x00></\x00\x00\x00\x00\x00\x00\x00\x00\x00></r>",
	)
	return docs
}

// manyAttrTag is a tag of n distinct attributes inside a root, from 8 on
// enough of them to take the tokenizer's name table through its growth;
// with dup >= 0 one more attribute repeats the name of attribute dup.
func manyAttrTag(n, dup int) string {
	var b strings.Builder
	b.WriteString("<r><e")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ` k%d="%d"`, i, i)
	}
	if dup >= 0 {
		fmt.Fprintf(&b, ` k%d=""`, dup)
	}
	b.WriteString("/></r>")
	return b.String()
}

// skimCorpus is the hardening lists, the kernel's shapes, depth and
// attribute shapes they lack, and small generated feeds in the benchmark's
// two document shapes.
func skimCorpus() []string {
	docs := append([]string(nil), malformedInputs...)
	for _, c := range robustInputs {
		docs = append(docs, c.input)
	}
	docs = append(docs, KernelShapes...)
	docs = append(docs,
		`<a><b x="1" y="&lt;2"><c/></b><b x="1"/></a>`,
		`<a><b><c><d/></c></b></a>`,
		`<a><b><c x="1"/></b></a>`,
		`<a><b><c x="1"></c></b></a>`,
		`<a><b x="1" x="2"/></a>`,
		`<a><b x="&bad;"/></a>`,
		`<a><b x="a<b"/></a>`,
		`<a><b x='1'y='2'/></a>`,
		"<a><b></b ></a >",
		"<a><b></c ></a>",
		"<a>&#32;</a>&#32;<!-- c --><?pi?>",
		"<a></a>&amp;",
		"<a><![CDATA[]]><![CDATA[a very long character data section]]></a>",
		"<a><!-- a comment that is longer than the token budget --></a>",
		"<a>a text run that is longer than the token budget</a>",
		`<a x="an attribute value longer than the token budget"/>`,
		"<a><!DOCTYPE b [ <!ENTITY c 'd'> ]></a>",
	)
	rng := rand.New(rand.NewSource(7))
	var news, catalog strings.Builder
	news.WriteString("<news>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&news, "<item><title>story %d</title><keyword>go</keyword><priority>%d</priority>"+
			"<body><p>lorem &amp; ips&lt;m &#38; </p></body></item>", i, rng.Intn(10))
	}
	news.WriteString("</news>")
	catalog.WriteString("<catalog>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&catalog, `<item id="%d"><priority>%d</priority><f%d/><f%d a="1" b='2'/></item>`,
			i, rng.Intn(12), 2*i, 2*i+1)
	}
	catalog.WriteString("</catalog>")
	return append(docs, news.String(), catalog.String())
}

func TestSkimMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const alphabet = "<>/&;=\"' !?[]-#xa"
	for _, doc := range skimCorpus() {
		for _, lim := range []limits.Limits{{}, skimLimits} {
			checkSkimEveryK(t, []byte(doc), lim)
		}
		// One byte mutated: every kind of damage, at every distance from
		// the point the skim starts at.
		mutations := min(len(doc), 48)
		for m := 0; m < mutations; m++ {
			mut := []byte(doc)
			mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			for _, lim := range []limits.Limits{{}, skimLimits} {
				checkSkimEveryK(t, mut, lim)
			}
		}
	}
}

// TestBatchMatchesNext is the batch differential over the skim's corpus,
// with and without budgets, and over the same one-byte mutations.
func TestBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const alphabet = "<>/&;=\"' !?[]-#xa"
	for _, doc := range skimCorpus() {
		for _, lim := range []limits.Limits{{}, skimLimits} {
			CheckBatchEquivalence(t, []byte(doc), lim)
		}
		for m := min(len(doc), 16); m > 0; m-- {
			mut := []byte(doc)
			mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			for _, lim := range []limits.Limits{{}, skimLimits} {
				CheckBatchEquivalence(t, mut, lim)
			}
		}
	}
}

// TestBatchDataOutlivesTheBatch: two decoded text runs share the text
// scratch buffer, and the decoded values of two tags' attributes the
// attribute one, and the whole document fits one batch of 64. Each is read
// only when its batch is complete, so a batch that went on past one of them
// would hand its consumer the bytes the next decode wrote over it.
func TestBatchDataOutlivesTheBatch(t *testing.T) {
	doc := []byte(`<r><a x="&lt;1" y="&gt;2">p&amp;1</a><b z="&amp;3"/>q&lt;2<c>plain</c>r&#62;3</r>`)
	CheckBatchEquivalence(t, doc, limits.Limits{})
	CheckBatchEquivalence(t, doc, skimLimits)
}

// TestTextDelim holds the kernel's word-at-a-time sweep to a byte loop:
// every byte value at every position of a window of 1 to 24 bytes, swept
// from every start offset, over fillers that are neither delimiter with and
// without the high bit set. The bytes past the window are delimiters, so a
// sweep that read beyond it would stop there.
func TestTextDelim(t *testing.T) {
	naive := func(data []byte, p int) int {
		for ; p < len(data); p++ {
			if data[p] == '<' || data[p] == '&' {
				return p
			}
		}
		return p
	}
	var buf [32]byte
	for _, fill := range []byte{'x', 0x00, 0xBC, 0xA6, 0xFF, '<' + 1, '&' - 1} {
		for n := 1; n <= 24; n++ {
			for at := 0; at < n; at++ {
				for v := 0; v < 256; v++ {
					for i := range buf {
						buf[i] = '<'
					}
					window := buf[:n]
					for i := range window {
						window[i] = fill
					}
					window[at] = byte(v)
					for p := 0; p <= n; p++ {
						if got, want := textDelim(window, p), naive(window, p); got != want {
							t.Fatalf("textDelim(%q, %d) = %d, want %d", window, p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSkimMaterializesNothing: elements and attributes first met by a skim
// are matched by their bytes — their names never reach the symbol table,
// however many a document brings — and a warm skim allocates nothing,
// whatever it decodes and however deep it goes.
func TestSkimMaterializesNothing(t *testing.T) {
	var hostile strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&hostile, `<e%d x%d="1" y%d='2'/>`, i, i, i)
	}
	doc := []byte(`<a><seen was="1"/><fresh x="&amp;" was="2"><deeper>t &lt; u</deeper><deeper >v</deeper ></fresh>` +
		hostile.String() + `</a>`)
	tab := symtab.New()
	tok := NewTokenizerBytes(doc, tab)
	var names int // the table's size when the skim began
	skimAfter := func(events int) {
		tok.Reset(doc)
		for i := 0; i < events; i++ {
			if _, err := tok.Next(); err != nil {
				t.Fatal(err)
			}
		}
		names = tab.Len()
		if _, err := tok.Skim(); err != nil {
			t.Fatal(err)
		}
	}
	skimAfter(7) // StartDocument, <a>, <seen>, its attribute's three events, </seen>
	for _, name := range []string{"fresh", "deeper", "x", "e0", "x0", "y999"} {
		if tab.Lookup(name) != symtab.None {
			t.Errorf("name %q was interned by the skim", name)
		}
	}
	for _, name := range []string{"seen", "was"} {
		if tab.Lookup(name) == symtab.None {
			t.Errorf("name %q, tokenized before the skim, is missing from the table", name)
		}
	}
	if tab.Len() != names {
		t.Errorf("the skim grew the symbol table from %d names to %d", names, tab.Len())
	}
	if allocs := testing.AllocsPerRun(20, func() { skimAfter(7) }); allocs != 0 {
		t.Errorf("warm skim: %v allocs/run, want 0", allocs)
	}
}

// TestSkimEntryMidTag: a skim may begin between a start tag's StartElement
// and the attribute events staged behind it, or before a self-closing
// tag's queued EndElement. They were validated with the tag; the skim
// drops them and still balances the element they belong to.
func TestSkimEntryMidTag(t *testing.T) {
	for _, doc := range []string{
		`<a><b x="1" y="2"><c/></b></a>`, // <b> is on the stack, attributes staged
		`<a><b x="1" y="2"/><c/></a>`,    // <b/> was never pushed
		`<b x="1"/>`,                     // a self-closing root
	} {
		checkSkimEveryK(t, []byte(doc), limits.Limits{})
		checkSkimEveryK(t, []byte(doc), limits.Limits{MaxDepth: 2})
	}
}
