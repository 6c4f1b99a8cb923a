package sax_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// diffEvents compares two event streams for equality.
func diffEvents(t *testing.T, label string, got, want []sax.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Name != w.Name || g.Data != w.Data || g.Attribute != w.Attribute {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// stringEvents parses with the streaming string tokenizer and expands
// attributes, the reference form the byte tokenizer must reproduce.
func stringEvents(doc string) ([]sax.Event, error) {
	evs, err := sax.Parse(doc)
	if err != nil {
		return nil, err
	}
	return sax.ExpandAttributes(evs), nil
}

// TestTokenizerBytesDifferentialCorpus drives both tokenizers over a
// hand-written corpus covering every syntactic feature and every error
// class, and over the kernel's shapes, requiring identical event streams
// and matching error-ness.
func TestTokenizerBytesDifferentialCorpus(t *testing.T) {
	corpus := []string{
		"<a/>",
		"<a></a>",
		"<a><b>text</b><c/></a>",
		"<?xml version=\"1.0\"?>\n<a>hi</a>\n",
		"<a>x&lt;y&gt;&amp;&apos;&quot;z</a>",
		"<a>&#65;&#x41;&#x1F600;</a>",
		"<a><!-- comment --><b/></a>",
		"<a><!-- tricky ---><b/>--></a>",
		"<a><![CDATA[raw <>&" + "]]" + "]]>tail</a>",
		"<a><![CDATA[]]></a>",
		"<!DOCTYPE a>\n<a/>",
		`<a id="1" name="x&amp;y">body</a>`,
		`<a attr='single "quoted"'/>`,
		"<a  spaced = \"v\" ></a>",
		"<deep><deep><deep><leaf/></deep></deep></deep>",
		"<a><b/><b/><b/></a>",
		"<a>one<b/>two<c/>three</a>",
		"  \n\t<a/>  \n",
		"<a><?pi data?><b/></a>",
		"<mixed>pre<x y=\"1\"/>post</mixed>",
		"<a>&#32;</a>",
		"<ns:elem ns:attr=\"v\"/>",
		// Error cases.
		"",
		"   ",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"</a>",
		"<a>&unknown;</a>",
		"<a>&#xQQ;</a>",
		"<a>&#;</a>",
		"<a>&#1114112;</a>",
		"<a b=c/>",
		"<a b=\"1\" b=\"2\"/>",
		"<a b=\"<\"/>",
		"<a><![CDATA[unterminated</a>",
		"<a><!-- unterminated</a>",
		"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
		"text outside<a/>",
		"<a/>trailing text",
		"<a><b></a></b>",
		"<a", "<a b", "<a b=", "<a b=\"v",
		"<a>&toolongentityname;</a>",
	}
	for _, doc := range append(corpus, sax.KernelShapes...) {
		want, wantErr := stringEvents(doc)
		got, gotErr := sax.ParseBytes([]byte(doc))
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("doc %q: string err = %v, bytes err = %v", doc, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		diffEvents(t, "doc "+doc, got, want)
	}
}

// TestNameStartRejectedAlike: a name may not begin with '!', '?', '-' or
// '.', as an element, an end tag or an attribute, and the two tokenizers
// say so with the same message at the same offset. (A digit may begin one:
// the committed fuzz corpus has the attribute name 0.)
func TestNameStartRejectedAlike(t *testing.T) {
	for _, doc := range []string{
		`<a !=""></a>`, `<a ?x="1"/>`, `<a -x="1"/>`, `<a .x="1"/>`, `<a x="1" !y="2"/>`,
		"<-a/>", "<.a/>", "<r><-a/></r>", "<r><.a></.a></r>", "<r></!r>", "<r></?r>", "<r><a></-a></r>",
		"<a !", "<a -", "</.",
	} {
		_, wantErr := sax.Parse(doc)
		_, gotErr := sax.ParseBytes([]byte(doc))
		want, ok := wantErr.(*sax.SyntaxError)
		if !ok || want.Msg != "expected a name" {
			t.Errorf("%q: string tokenizer err = %v, want \"expected a name\"", doc, wantErr)
			continue
		}
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("%q: string tokenizer err = %v, byte tokenizer err = %v", doc, wantErr, gotErr)
		}
	}
	for _, doc := range []string{`<a 0=""></a>`, "<0/>", "<a!?-.0/>", `<a b!="1" c-.?='2'/>`} {
		want, wantErr := stringEvents(doc)
		got, gotErr := sax.ParseBytes([]byte(doc))
		if wantErr != nil || gotErr != nil {
			t.Errorf("%q: string tokenizer err = %v, byte tokenizer err = %v, want it accepted", doc, wantErr, gotErr)
			continue
		}
		diffEvents(t, doc, got, want)
	}
}

// TestTokenizerBytesDifferentialRandom cross-checks the tokenizers on
// randomized serialized trees, including attribute-bearing and entity-
// laden text content.
func TestTokenizerBytesDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	names := []string{"a", "b", "catalog", "item", "x"}
	texts := []string{"v", "1 < 2 & 3", "", "  spaced  ", "\"quotes\"", "päivää"}
	for trial := 0; trial < 200; trial++ {
		d := workload.RandomTree(rng, names, texts, 5, 3)
		doc, err := sax.SerializeString(d.Events())
		if err != nil {
			t.Fatal(err)
		}
		want, err := stringEvents(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sax.ParseBytes([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: bytes tokenizer rejected %q: %v", trial, doc, err)
		}
		diffEvents(t, doc, got, want)
	}
}

// TestTokenizerBytesReuse checks that Reset reuses the tokenizer across
// documents, sharing one symbol table, and that the steady-state loop
// performs zero allocations per document.
func TestTokenizerBytesReuse(t *testing.T) {
	doc := []byte(`<catalog><item id="7">go &amp; xml</item><item/></catalog>`)
	tok := sax.NewTokenizerBytes(doc, nil)
	drain := func() int {
		n := 0
		for {
			_, err := tok.Next()
			if err != nil {
				break
			}
			n++
		}
		return n
	}
	first := drain()
	if first == 0 {
		t.Fatal("no events")
	}
	tok.Reset(doc)
	if again := drain(); again != first {
		t.Fatalf("after Reset: %d events, want %d", again, first)
	}
	syms := tok.Table().Len()
	allocs := testing.AllocsPerRun(100, func() {
		tok.Reset(doc)
		drain()
	})
	if allocs != 0 {
		t.Errorf("steady-state tokenize: %v allocs/run, want 0", allocs)
	}
	if tok.Table().Len() != syms {
		t.Errorf("symbol table grew on repeat parses: %d -> %d", syms, tok.Table().Len())
	}
}

// TestTokenizerBytesSubsliceText verifies the zero-copy contract: text
// without references aliases the input document.
func TestTokenizerBytesSubsliceText(t *testing.T) {
	doc := []byte("<a>hello world</a>")
	tok := sax.NewTokenizerBytes(doc, nil)
	for {
		ev, err := tok.Next()
		if err != nil {
			break
		}
		if ev.Kind == sax.Text {
			if &ev.Data[0] != &doc[3] {
				t.Fatal("reference-free text should alias the input buffer")
			}
		}
	}
}

// TestByteEventSize pins the field order that packs Kind, Attribute and
// Sym into one word: a batch of events is written and read per document.
func TestByteEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(sax.ByteEvent{}); got != 40 {
		t.Errorf("ByteEvent is %d bytes, want 40", got)
	}
}

// TestTokenizerBytesComments: the overlap fix in both tokenizers — a
// comment terminated by "--->" must end at the first "-->".
func TestTokenizerBytesComments(t *testing.T) {
	doc := "<a><!----->x</a>"
	want, err := stringEvents(doc)
	if err != nil {
		t.Fatalf("string tokenizer: %v", err)
	}
	got, err := sax.ParseBytes([]byte(doc))
	if err != nil {
		t.Fatalf("bytes tokenizer: %v", err)
	}
	diffEvents(t, doc, got, want)
	// StartDoc, Start(a), Text(x), End(a), EndDoc — the "--->" comment
	// ends at its first "-->" and the trailing text survives.
	if len(got) != 5 || got[2].Kind != sax.Text || got[2].Data != "x" {
		t.Fatalf("comment swallowed following text: %v", got)
	}
}

// TestOnlyXMLSpaceOutsideRoot: before and after the root only XML white
// space (#x20 #x9 #xD #xA) may stand, written as itself — XML's Misc allows
// neither another character nor a reference there, even one to a space.
// Both tokenizers refuse alike, and the byte tokenizer refuses whole, by
// Skim and chunked at every split, with the same error.
func TestOnlyXMLSpaceOutsideRoot(t *testing.T) {
	refused := []string{
		"<a/>&#32;", "<a/>&#x20;", "<a/>&#xA0;", "<a/>&#10;", "&#32;<a/>", "<a/> &amp; ",
		"\u00a0<a/>", "<a/>\u00a0", "<a/>\n\u00a0\n", "<a/>\v", "\f<a/>", "<a/>\u0085", "<a/>\u3000",
		"<a></a>&#32;<!-- c -->", "<a><b/></a>\t&#x9;",
	}
	accepted := []string{" \t\r\n<a/> \t\r\n", "<a/>\n<!-- c -->\n<?pi?>\r\n", "\n<a> \u00a0 &#32; </a>\n"}
	tok := sax.NewStreamTokenizer(nil)
	for _, doc := range append(refused, accepted...) {
		want := !slices.Contains(accepted, doc)
		_, strErr := sax.Parse(doc)
		evs, wholeErr := wholeOffEvents(doc)
		if (strErr != nil) != want || (wholeErr != nil) != want {
			t.Fatalf("doc %q: string err = %v, bytes err = %v; want refused %v", doc, strErr, wholeErr, want)
		}
		skim := sax.NewTokenizerBytes([]byte(doc), nil)
		if _, err := skim.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := skim.Skim(); !reflect.DeepEqual(err, wholeErr) {
			t.Fatalf("doc %q: Skim err = %v, want %v", doc, err, wholeErr)
		}
		for off := 0; off <= len(doc); off++ {
			if _, err := streamEvents(tok, doc, []int{off}); !reflect.DeepEqual(err, wholeErr) {
				t.Fatalf("doc %q split at %d: err = %v, want %v", doc, off, err, wholeErr)
			}
			checkDrive(t, tok, doc, []int{off}, evs, wholeErr)
		}
	}
}
