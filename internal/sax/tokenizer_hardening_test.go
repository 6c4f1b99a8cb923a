package sax

import (
	"io"
	"strings"
	"testing"
)

// drain tokenizes the whole input, returning the events and first error.
func drain(input string) ([]Event, error) {
	t := NewTokenizer(strings.NewReader(input))
	var events []Event
	for {
		e, err := t.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// malformedInputs must each produce an error, never a panic or a silently
// truncated event stream; robustInputs are unusual but legal. The skim
// differential (skim_test.go) runs over both lists too.
var malformedInputs = []string{
	"<a>",                  // unclosed element
	"<a></b>",              // mismatched end tag
	"</a>",                 // end without start
	"<a><b></a></b>",       // interleaved
	"<a",                   // truncated start tag
	"<a href>",             // attribute without value
	`<a x=y>`,              // unquoted attribute value
	`<a x="1>`,             // unterminated attribute value
	"<>",                   // empty name
	"< a>",                 // space before name
	"<a/><b/>",             // two document elements
	"text outside",         // top-level text
	"<a>&unknown;</a>",     // unknown entity
	"<a>&#xZZ;</a>",        // bad character reference
	"<a>&#;</a>",           // empty character reference
	"<a><![CDATA[x</a>",    // unterminated CDATA
	"<a><!-- unterminated", // unterminated comment
	"<a><? unterminated",   // unterminated PI
	"",                     // empty input
	"   ",                  // whitespace only
	"<a></a><a></a>",       // second root
	"<a></a>trailing",      // trailing text
}

var robustInputs = []struct {
	input string
	check func([]Event) bool
}{
	{"<a/>", func(ev []Event) bool { return len(ev) == 4 }},
	{"<?xml version=\"1.0\"?><a/>", func(ev []Event) bool { return len(ev) == 4 }},
	{"<!DOCTYPE a><a/>", func(ev []Event) bool { return len(ev) == 4 }},
	{"<a><!-- c --><b/></a>", func(ev []Event) bool {
		for _, e := range ev {
			if e.Kind == StartElement && e.Name == "b" {
				return true
			}
		}
		return false
	}},
	{"<a>&amp;&lt;&gt;&quot;&apos;</a>", func(ev []Event) bool {
		return textOf(ev) == `&<>"'`
	}},
	{"<a>&#65;&#x42;</a>", func(ev []Event) bool { return textOf(ev) == "AB" }},
	{"<a><![CDATA[<not><markup>]]></a>", func(ev []Event) bool {
		return textOf(ev) == "<not><markup>"
	}},
	{"  <a/>  ", func(ev []Event) bool { return len(ev) == 4 }},
	{"<a\tx=\"1\"\ny=\"2\"/>", func(ev []Event) bool {
		return len(ev) == 4 && len(ev[1].Attrs) == 2
	}},
	{"<a.b-c_d/>", func(ev []Event) bool { return ev[1].Name == "a.b-c_d" }},
	{"<ns:a/>", func(ev []Event) bool { return ev[1].Name == "ns:a" }},
	{"<a>é世界</a>", func(ev []Event) bool { return textOf(ev) == "é世界" }},
}

// TestTokenizerMalformedInputs: every malformed document must produce an
// error, never a panic or a silently truncated event stream.
func TestTokenizerMalformedInputs(t *testing.T) {
	for _, input := range malformedInputs {
		if _, err := drain(input); err == nil {
			t.Errorf("%q: want error, got none", input)
		}
	}
}

// TestTokenizerRobustInputs: inputs with unusual but legal constructs.
func TestTokenizerRobustInputs(t *testing.T) {
	for _, c := range robustInputs {
		ev, err := drain(c.input)
		if err != nil {
			t.Errorf("%q: unexpected error %v", c.input, err)
			continue
		}
		if !c.check(ev) {
			t.Errorf("%q: check failed on %v", c.input, ev)
		}
	}
}

func textOf(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		if e.Kind == Text {
			b.WriteString(e.Data)
		}
	}
	return b.String()
}

// TestTokenizerDeepNesting: depth is bounded only by memory, not by a
// parser recursion limit (the tokenizer is iterative).
func TestTokenizerDeepNesting(t *testing.T) {
	const depth = 20000
	input := strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth)
	ev, err := drain(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2*depth+3 {
		t.Errorf("events = %d, want %d", len(ev), 2*depth+3)
	}
}

// TestTokenizerChunkedReads: byte-at-a-time readers must produce identical
// streams (no internal buffering assumptions).
func TestTokenizerChunkedReads(t *testing.T) {
	input := `<a x="1">hello<b/>&amp;<c>world</c></a>`
	want, err := drain(input)
	if err != nil {
		t.Fatal(err)
	}
	tok := NewTokenizer(iotest{r: strings.NewReader(input)})
	var got []Event
	for {
		e, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != len(want) {
		t.Fatalf("chunked read produced %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("event %d: %v != %v", i, got[i], want[i])
		}
	}
}

// iotest delivers one byte per Read call.
type iotest struct{ r io.Reader }

func (t iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return t.r.Read(p)
}
