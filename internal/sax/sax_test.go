package sax

import (
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func collect(t *testing.T, r Reader) []Event {
	t.Helper()
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, e)
	}
}

func TestTokenizeSimple(t *testing.T) {
	got := MustParse("<a><b>6</b></a>")
	want := []Event{
		StartDoc(), Start("a"), Start("b"), TextEvent("6"), End("b"), End("a"), EndDoc(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	got := MustParse("<a><e/><f/></a>")
	want := []Event{
		StartDoc(), Start("a"), Start("e"), End("e"), Start("f"), End("f"), End("a"), EndDoc(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizePaperDocument(t *testing.T) {
	// The document D from the proof of Theorem 4.2 (Fig 4(a)).
	got := MustParse("<a><c><e/><f/></c><b>6</b></a>")
	want := Wrap(Element("a",
		Concat(Element("c", Concat(EmptyElement("e"), EmptyElement("f"))...),
			TextElement("b", "6"))...))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeAttributes(t *testing.T) {
	got := MustParse(`<a id="1" name='x &amp; y'><b/></a>`)
	if got[1].Kind != StartElement || got[1].Name != "a" {
		t.Fatalf("unexpected first element %v", got[1])
	}
	wantAttrs := []Attr{{"id", "1"}, {"name", "x & y"}}
	if !reflect.DeepEqual(got[1].Attrs, wantAttrs) {
		t.Errorf("attrs = %v, want %v", got[1].Attrs, wantAttrs)
	}
}

func TestTokenizeEntities(t *testing.T) {
	got := MustParse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos; &#65;&#x42;</a>")
	want := "<tag> & \"q\" 's' AB"
	if got[2].Kind != Text || got[2].Data != want {
		t.Errorf("text = %q, want %q", got[2].Data, want)
	}
}

func TestTokenizeCommentsAndPI(t *testing.T) {
	got := MustParse(`<?xml version="1.0"?><!-- hi --><a><!-- in --><b/><?pi data?></a>`)
	want := []Event{StartDoc(), Start("a"), Start("b"), End("b"), End("a"), EndDoc()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeCDATA(t *testing.T) {
	got := MustParse("<a><![CDATA[<raw> & ]] stuff]]></a>")
	if got[2].Kind != Text || got[2].Data != "<raw> & ]] stuff" {
		t.Errorf("cdata text = %q", got[2].Data)
	}
}

func TestTokenizeDoctype(t *testing.T) {
	got := MustParse(`<!DOCTYPE a SYSTEM "a.dtd"><a/>`)
	want := []Event{StartDoc(), Start("a"), End("a"), EndDoc()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeWhitespaceOutsideRoot(t *testing.T) {
	got := MustParse("  <a/>  \n")
	want := []Event{StartDoc(), Start("a"), End("a"), EndDoc()}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []struct {
		name, xml string
	}{
		{"mismatched tags", "<a><b></a></b>"},
		{"unclosed element", "<a><b>"},
		{"stray end tag", "<a></a></b>"},
		{"second root", "<a/><b/>"},
		{"text outside root", "<a/>junk"},
		{"unknown entity", "<a>&bogus;</a>"},
		{"unterminated entity", "<a>&lt"},
		{"bad char ref", "<a>&#xZZ;</a>"},
		{"lt in attribute", `<a b="<"/>`},
		{"duplicate attribute", `<a b="1" b="2"/>`},
		{"malformed self close", "<a/ >"},
		{"doctype subset", "<!DOCTYPE a [<!ELEMENT a ANY>]><a/>"},
		{"empty input", ""},
		{"attr missing equals", `<a b "1"/>`},
		{"attr unquoted", `<a b=1/>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.xml); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", c.xml)
			}
		})
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("<a><b></c></a>")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Offset <= 0 || !strings.Contains(se.Error(), "does not match") {
		t.Errorf("unhelpful error: %v", se)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	inputs := []string{
		"<a><b>6</b></a>",
		"<a><c><e></e><f></f></c><b>6</b></a>",
		"<doc><p>hello world</p><p>bye</p></doc>",
	}
	for _, in := range inputs {
		evs := MustParse(in)
		out, err := SerializeString(evs)
		if err != nil {
			t.Fatalf("serialize %q: %v", in, err)
		}
		evs2 := MustParse(out)
		if !reflect.DeepEqual(evs, evs2) {
			t.Errorf("round trip changed events for %q:\n%v\n%v", in, evs, evs2)
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	evs := Wrap(TextElement("a", `x < y & "z"`))
	out, err := SerializeString(evs)
	if err != nil {
		t.Fatal(err)
	}
	got := MustParse(out)
	if !reflect.DeepEqual(CoalesceText(got), evs) {
		t.Errorf("escaped round trip mismatch: %q -> %v", out, got)
	}
}

func TestSerializeRejectsMalformed(t *testing.T) {
	cases := [][]Event{
		{Start("a"), End("a")},                                 // no document events
		{StartDoc(), Start("a"), EndDoc()},                     // unclosed element
		{StartDoc(), Start("a"), End("b"), EndDoc()},           // mismatch
		{StartDoc(), End("a"), EndDoc()},                       // stray end
		{StartDoc(), TextEvent("x"), EndDoc()},                 // text at top level
		{StartDoc(), StartDoc(), EndDoc()},                     // double start
		{StartDoc(), Start("a"), End("a"), EndDoc(), EndDoc()}, // double end
		{StartDoc(), Start("a"), End("a")},                     // missing endDocument
		// Names that would not be read back as the names they are.
		{StartDoc(), Start("!"), End("!"), EndDoc()},
		{StartDoc(), Start("?pi"), End("?pi"), EndDoc()},
		{StartDoc(), Start(""), End(""), EndDoc()},
		{StartDoc(), Start("a b"), End("a b"), EndDoc()},
		{StartDoc(), Start("a", Attr{Name: "!", Value: ""}), End("a"), EndDoc()},
		{StartDoc(), Start("a", Attr{Name: "x=y", Value: "1"}), End("a"), EndDoc()},
	}
	for i, evs := range cases {
		if _, err := SerializeString(evs); err == nil {
			t.Errorf("case %d: Serialize succeeded on malformed stream %v", i, evs)
		}
	}
}

func TestCheckWellFormed(t *testing.T) {
	good := Wrap(Element("a", TextElement("b", "1")...))
	if err := CheckWellFormed(good); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
	bad := []Event{StartDoc(), Start("a"), Start("b"), End("a"), End("b"), EndDoc()}
	if CheckWellFormed(bad) == nil {
		t.Error("crossed tags accepted")
	}
	noRoot := []Event{StartDoc(), EndDoc()}
	if CheckWellFormed(noRoot) == nil {
		t.Error("rootless document accepted")
	}
	after := []Event{StartDoc(), Start("a"), End("a"), EndDoc(), TextEvent("x")}
	if CheckWellFormed(after) == nil {
		t.Error("event after endDocument accepted")
	}
}

func TestWrapElementHelpers(t *testing.T) {
	evs := Wrap(Element("a", Concat(EmptyElement("b"), TextElement("c", "v"))...))
	want := MustParse("<a><b/><c>v</c></a>")
	if !reflect.DeepEqual(evs, want) {
		t.Errorf("helpers produced %v, want %v", evs, want)
	}
}

func TestSliceReaderRest(t *testing.T) {
	evs := MustParse("<a><b/></a>")
	r := NewSliceReader(evs)
	r.Next()
	r.Next()
	rest := r.Rest()
	if len(rest) != len(evs)-2 {
		t.Errorf("Rest len = %d, want %d", len(rest), len(evs)-2)
	}
}

func TestExpandAttributes(t *testing.T) {
	evs := MustParse(`<a id="7"><b/></a>`)
	exp := ExpandAttributes(evs)
	want := []Event{
		StartDoc(), Start("a"),
		{Kind: StartElement, Name: "id", Attribute: true},
		{Kind: Text, Data: "7"},
		{Kind: EndElement, Name: "id", Attribute: true},
		Start("b"), End("b"), End("a"), EndDoc(),
	}
	if !reflect.DeepEqual(exp, want) {
		t.Errorf("expanded = %v, want %v", exp, want)
	}
	if err := CheckWellFormed(exp); err != nil {
		t.Errorf("expanded stream not well-formed: %v", err)
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		xml  string
		want int
	}{
		{"<a/>", 1},
		{"<a><b/></a>", 2},
		{"<a><b><c/></b><d/></a>", 3},
	}
	for _, c := range cases {
		if got := Depth(MustParse(c.xml)); got != c.want {
			t.Errorf("Depth(%q) = %d, want %d", c.xml, got, c.want)
		}
	}
}

func TestCoalesceText(t *testing.T) {
	in := []Event{StartDoc(), Start("a"), TextEvent("x"), TextEvent("y"), End("a"), EndDoc()}
	out := CoalesceText(in)
	if len(out) != 5 || out[2].Data != "xy" {
		t.Errorf("coalesce = %v", out)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{StartDoc(), "<$>"},
		{EndDoc(), "</$>"},
		{Start("a"), "<a>"},
		{End("a"), "</a>"},
		{TextEvent("6"), "6"},
		{Start("a", Attr{"k", "v"}), `<a k="v">`},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		StartDocument: "startDocument",
		EndDocument:   "endDocument",
		StartElement:  "startElement",
		EndElement:    "endElement",
		Text:          "text",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

// randomDocXML builds a random well-formed document and returns its XML text
// and expected event count, for the round-trip property test.
func randomDocXML(rng *rand.Rand) string {
	var b strings.Builder
	names := []string{"a", "b", "c", "item", "x1"}
	var emit func(depth int)
	emit = func(depth int) {
		name := names[rng.Intn(len(names))]
		b.WriteString("<" + name + ">")
		n := rng.Intn(3)
		for i := 0; i < n && depth < 6; i++ {
			if rng.Intn(2) == 0 {
				b.WriteString(escapeText(randText(rng)))
			} else {
				emit(depth + 1)
			}
		}
		b.WriteString("</" + name + ">")
	}
	emit(0)
	return b.String()
}

func randText(rng *rand.Rand) string {
	const alphabet = "abc123 <&>\"'"
	n := 1 + rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// Property: parse(serialize(parse(x))) == parse(x) for random documents.
func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xml := randomDocXML(rng)
		evs, err := Parse(xml)
		if err != nil {
			t.Logf("parse %q: %v", xml, err)
			return false
		}
		evs = CoalesceText(evs)
		out, err := SerializeString(evs)
		if err != nil {
			t.Logf("serialize: %v", err)
			return false
		}
		evs2, err := Parse(out)
		if err != nil {
			t.Logf("reparse %q: %v", out, err)
			return false
		}
		return reflect.DeepEqual(evs, CoalesceText(evs2))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the tokenizer and CheckWellFormed agree on well-formedness of
// event streams derived from random documents with random corruption.
func TestPropertyWellFormednessAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := MustParse(randomDocXML(rng))
		// Random corruption: swap two events or drop one.
		bad := make([]Event, len(evs))
		copy(bad, evs)
		switch rng.Intn(3) {
		case 0:
			i, j := rng.Intn(len(bad)), rng.Intn(len(bad))
			bad[i], bad[j] = bad[j], bad[i]
		case 1:
			i := rng.Intn(len(bad))
			bad = append(bad[:i], bad[i+1:]...)
		case 2:
			// no corruption
		}
		wf := CheckWellFormed(bad) == nil
		_, serr := SerializeString(bad)
		// Serialize must succeed exactly on well-formed streams.
		return wf == (serr == nil)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
