package streamxpath_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// manyAttrs is a start-tag attribute list long enough that, read in small
// chunks, its tag suspends between attributes at many chunk boundaries: a
// mix of quotes, spacing and references.
func manyAttrs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, " a%d='%d'", i, i)
		case 1:
			fmt.Fprintf(&b, "\n\ta%d = \"v&amp;%d\"", i, i)
		default:
			fmt.Fprintf(&b, "  a%d=\t'&#x41;%d'", i, i)
		}
	}
	return b.String()
}

// crossPathCorpus is written the way documents arrive, not the way a
// serializer writes them: empty-element tags, single-quoted attributes,
// white space inside tags, character and entity references, comments and
// CDATA inside captured elements, and many-attribute tags.
var crossPathCorpus = []struct {
	name string
	doc  string
	subs []string // extraction queries, one subscription each
}{
	{"feed",
		`<?xml version="1.0"?>` + "\n<!-- head -->\n" +
			`<feed  lang='en' ><item id='a&amp;1' lang = "en" >` + "\n  " +
			`<keyword>go</keyword><b/><c  />` +
			`<body>x &lt; y &#38; &#x3C;z&gt; <!-- note --> <![CDATA[<raw> & ]]> tail</body>` + "\n" +
			`</item ><item id="2"` + manyAttrs(24) + `><keyword>rust</keyword><empty/></item></feed >`,
		[]string{`//item[keyword="go"]`, `//item[empty]`, `//body`, `//b`, `//c`, `//item/@id`, `//item/@a5`, `/feed`}},
	{"nested", `<r><a k='v'><a><b/></a ><b></b></a><a  ><b/></a></r>`,
		[]string{`//a[b]`, `//a/b`, `//a/@k`}},
	{"wide", `<r><x><y` + manyAttrs(40) + `/><z>&#x41;&amp;<![CDATA[]]]]><![CDATA[>]]></z></x><y a0='1'/></r>`,
		[]string{`//x`, `//y`, `//y/@a17`, `//z`}},
}

// TestFragmentsSameAcrossPaths: a reader's fragments are the document's own
// bytes, as a buffer's are. Read in chunks of every size from 1 byte to the
// whole document, MatchReaderResult returns MatchBytesResult's fragments
// byte for byte; and each of them is the first node the reference
// semantics selects (FULLEVAL), as a tree for an element, as its string
// value for an attribute. Each document runs under all its subscriptions
// at once, where an outer capture keeps the bytes of the inner ones, and
// under each alone.
func TestFragmentsSameAcrossPaths(t *testing.T) {
	for _, c := range crossPathCorpus {
		d := tree.MustParse(c.doc)
		t.Run(c.name, func(t *testing.T) {
			checkAcrossPaths(t, []byte(c.doc), d, c.subs)
			for _, src := range c.subs {
				checkAcrossPaths(t, []byte(c.doc), d, []string{src})
			}
		})
	}
}

// checkAcrossPaths runs doc, whose tree is d, through a set of one
// extraction subscription per query of subs, buffered and read at every
// chunk size.
func checkAcrossPaths(t *testing.T, doc []byte, d *tree.Node, subs []string) {
	t.Helper()
	set := streamxpath.NewFilterSet()
	for i, src := range subs {
		if err := set.AddExtract(fmt.Sprint(i), src); err != nil {
			t.Fatal(err)
		}
	}
	want, err := set.MatchBytesResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Fragments) != len(subs) {
		t.Fatalf("%v: buffered: %d fragments", subs, len(want.Fragments))
	}
	for i, src := range subs {
		checkReference(t, src, d, want.Fragment(fmt.Sprint(i)))
	}
	for chunk := 1; chunk <= len(doc); chunk++ {
		set.SetChunkSize(chunk)
		got, err := set.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%v, chunk %d: %v", subs, chunk, err)
		}
		if !slices.EqualFunc(got.Fragments, want.Fragments, func(a, b streamxpath.Fragment) bool {
			return a.ID == b.ID && bytes.Equal(a.Data, b.Data)
		}) {
			t.Fatalf("%v, chunk %d: reader fragments\n%q\nbuffered\n%q", subs, chunk, got.Fragments, want.Fragments)
		}
	}
}

// checkReference checks one fragment against the first node src selects on
// d.
func checkReference(t *testing.T, src string, d *tree.Node, frag []byte) {
	t.Helper()
	sel := semantics.FullEval(query.MustParse(src), d)
	if len(sel) == 0 {
		t.Fatalf("%s: the reference selects nothing", src)
	}
	if n := sel[0]; n.Kind == tree.KindAttribute {
		if string(frag) != n.StrVal() {
			t.Fatalf("%s: fragment %q, reference value %q", src, frag, n.StrVal())
		}
		return
	}
	got, err := tree.Parse(string(frag))
	if err != nil || len(got.Children) != 1 || !got.Children[0].Equal(sel[0]) {
		t.Fatalf("%s: fragment %q is not the reference's first node (parse error %v)", src, frag, err)
	}
}

// TestReaderCaptureBufferBudget: a reader's open capture is held in the
// tokenizer's window, and MaxBufferedBytes bounds it there: a 1 MiB
// captured element under a 64 KiB budget fails the document under
// LimitFail, and under LimitAbstain keeps the verdicts decided before the
// breach and returns no fragment — either way without reading the element
// to its end.
func TestReaderCaptureBufferBudget(t *testing.T) {
	doc := "<r><hit/><big>" + strings.Repeat("<p>0123456789abcdef</p>", 1<<20/23) + "</big></r>"
	set := streamxpath.NewFilterSet()
	if err := set.Add("hit", "/r/hit"); err != nil {
		t.Fatal(err)
	}
	if err := set.AddExtract("big", "//big"); err != nil {
		t.Fatal(err)
	}
	res, err := set.MatchReaderResult(strings.NewReader(doc))
	if err != nil || len(res.Fragment("big")) != len(doc)-len("<r><hit/></r>") {
		t.Fatalf("unbounded: fragment of %d bytes, err %v", len(res.Fragment("big")), err)
	}
	const budget = 64 << 10
	set.SetLimits(streamxpath.Limits{MaxBufferedBytes: budget})
	res, err = set.MatchReaderResult(strings.NewReader(doc))
	var le *streamxpath.LimitError
	if !errors.As(err, &le) || le.Resource != "buffered-bytes" || le.Limit != budget {
		t.Fatalf("LimitFail: err %v", err)
	}
	if res.ReaderStats.BytesRead >= int64(len(doc))/2 {
		t.Fatalf("LimitFail: read %d of %d bytes", res.ReaderStats.BytesRead, len(doc))
	}
	set.SetLimits(streamxpath.Limits{MaxBufferedBytes: budget, Policy: streamxpath.LimitAbstain})
	res, err = set.MatchReaderResult(strings.NewReader(doc))
	if err != nil || !res.Abstained || !slices.Equal(res.MatchedIDs, []string{"hit", "big"}) || res.Fragments != nil {
		t.Fatalf("LimitAbstain: ids %v, abstained %v, fragments %q, err %v", res.MatchedIDs, res.Abstained, res.Fragments, err)
	}
	if res.ReaderStats.BytesRead >= int64(len(doc))/2 {
		t.Fatalf("LimitAbstain: read %d of %d bytes", res.ReaderStats.BytesRead, len(doc))
	}
}
