package engine

import (
	"io"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// driveBytes feeds doc through a whole-buffer tokenizer in the given
// capture mode and returns the fragments (slice mode subslices doc).
func driveBytes(t *testing.T, e *Engine, doc string, mode CaptureMode) []Fragment {
	t.Helper()
	e.SetCapture(mode)
	e.Reset()
	tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tokenize: %v", err)
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatalf("process: %v", err)
		}
	}
	return e.AppendFragments(nil, []byte(doc))
}

func TestCaptureSliceBasic(t *testing.T) {
	e := New()
	if err := e.AddExtract("x", query.MustParse("//item")); err != nil {
		t.Fatal(err)
	}
	doc := `<feed><item><title>go</title></item><item><title>rust</title></item></feed>`
	frags := driveBytes(t, e, doc, CaptureSlice)
	if len(frags) != 1 {
		t.Fatalf("fragments = %v, want 1", frags)
	}
	want := `<item><title>go</title></item>`
	if string(frags[0].Data) != want {
		t.Errorf("fragment = %q, want %q", frags[0].Data, want)
	}
}

func TestCaptureSerialBasic(t *testing.T) {
	e := New()
	if err := e.AddExtract("x", query.MustParse("//item[keyword=\"go\"]")); err != nil {
		t.Fatal(err)
	}
	doc := `<feed><item><keyword>rust</keyword></item><item id="7"><keyword>go</keyword><body>a &amp; b</body></item></feed>`
	frags := driveBytes(t, e, doc, CaptureSerial)
	if len(frags) != 1 {
		t.Fatalf("fragments = %v, want 1", frags)
	}
	want := `<item id="7"><keyword>go</keyword><body>a &amp; b</body></item>`
	if string(frags[0].Data) != want {
		t.Errorf("fragment = %q, want %q", frags[0].Data, want)
	}
	// The same document as reference-tokenizer events: the one event
	// surface captures their text too.
	events, err := sax.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if err := feed(e, events...); err != nil {
		t.Fatal(err)
	}
	if frags = e.AppendFragments(nil, nil); len(frags) != 1 || string(frags[0].Data) != want {
		t.Errorf("fragments from reference events = %v, want %q", frags, want)
	}
}

func TestCaptureDocOrderFirstNested(t *testing.T) {
	// Nested candidates: the outer <a> matches //a[b] and precedes the
	// inner one in document order, but its predicate scope resolves last.
	e := New()
	if err := e.AddExtract("x", query.MustParse("//a[b]")); err != nil {
		t.Fatal(err)
	}
	doc := `<r><a><a><b/></a><b/></a></r>`
	for _, mode := range []CaptureMode{CaptureSlice, CaptureSerial} {
		frags := driveBytes(t, e, doc, mode)
		if len(frags) != 1 {
			t.Fatalf("mode %d: fragments = %v, want 1", mode, frags)
		}
		want := `<a><a><b/></a><b/></a>`
		if mode == CaptureSerial {
			want = `<a><a><b></b></a><b></b></a>`
		}
		if string(frags[0].Data) != want {
			t.Errorf("mode %d: fragment = %q, want %q", mode, frags[0].Data, want)
		}
	}
}

func TestCaptureAttributeValue(t *testing.T) {
	e := New()
	if err := e.AddExtract("x", query.MustParse("//item/@id")); err != nil {
		t.Fatal(err)
	}
	doc := `<feed><item id="a&amp;1"><x/></item></feed>`
	for _, mode := range []CaptureMode{CaptureSlice, CaptureSerial} {
		frags := driveBytes(t, e, doc, mode)
		if len(frags) != 1 {
			t.Fatalf("mode %d: fragments = %v, want 1", mode, frags)
		}
		if string(frags[0].Data) != "a&1" {
			t.Errorf("mode %d: fragment = %q, want %q", mode, frags[0].Data, "a&1")
		}
	}
}

func TestCaptureSharedRefcount(t *testing.T) {
	// Overlapping matches: several subscriptions selecting the same
	// element share one capture object.
	e := New()
	for _, id := range []string{"a", "b", "c"} {
		if err := e.AddExtract(id, query.MustParse("//item[keyword=\"go\"]")); err != nil {
			t.Fatal(err)
		}
	}
	doc := `<feed><item><keyword>go</keyword></item></feed>`
	frags := driveBytes(t, e, doc, CaptureSerial)
	if len(frags) != 3 {
		t.Fatalf("fragments = %v, want 3", frags)
	}
	if len(e.cm.all) != 1 {
		t.Errorf("allocated %d captures, want 1 shared", len(e.cm.all))
	}
	c := e.cm.all[0]
	if c.refs != 3 {
		t.Errorf("capture refs = %d, want 3 (one per subscription)", c.refs)
	}
	for i := 1; i < 3; i++ {
		if &frags[i].Data[0] != &frags[0].Data[0] {
			t.Errorf("fragment %d does not alias the shared capture", i)
		}
	}
}

func TestCaptureZeroCopySlice(t *testing.T) {
	e := New()
	if err := e.AddExtract("x", query.MustParse("/feed/item")); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<feed><item>hi</item></feed>`)
	e.SetCapture(CaptureSlice)
	e.Reset()
	tok := sax.NewTokenizerBytes(doc, e.Symbols())
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatal(err)
		}
	}
	frags := e.AppendFragments(nil, doc)
	if len(frags) != 1 {
		t.Fatalf("fragments = %v, want 1", frags)
	}
	off := 6 // "<feed>" is 6 bytes; the item starts right after
	if &frags[0].Data[0] != &doc[off] {
		t.Errorf("slice-mode fragment is not a zero-copy subslice of the document")
	}
	if string(frags[0].Data) != "<item>hi</item>" {
		t.Errorf("fragment = %q", frags[0].Data)
	}
}

func TestBooleanPathUnaffectedByCaptureOff(t *testing.T) {
	// Without SetCapture, extraction-enabled subscriptions still produce
	// boolean verdicts and no fragments.
	e := New()
	if err := e.AddExtract("x", query.MustParse("//item")); err != nil {
		t.Fatal(err)
	}
	doc := `<feed><item/></feed>`
	e.Reset()
	tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Matched("x") {
		t.Error("subscription did not match")
	}
	if frags := e.AppendFragments(nil, []byte(doc)); len(frags) != 0 {
		t.Errorf("fragments = %v, want none with capture off", frags)
	}
}
