package sax_test

import (
	"testing"

	"streamxpath/internal/limits"
	"streamxpath/internal/sax"
)

// FuzzTokenizerBytes holds the byte tokenizer to four invariants on
// arbitrary input:
//
//  0. Skim ≡ Next: some number of events in (taken from the input), Skim
//     ends the document exactly where the Next loop ends it — same error,
//     same deepest level, same offset — with and without budgets, unsplit,
//     split into pieces at every '<' and at a piece size taken from the
//     input (sax.CheckSkimEquivalence, the body of TestSkimMatchesNext).
//  1. Differential: it accepts exactly the documents the streaming string
//     tokenizer accepts, producing the identical (attribute-expanded)
//     event stream.
//  2. Round-trip: serializing the parsed events with sax.Serialize and
//     re-tokenizing yields the same stream again (modulo text
//     coalescing, which serialization merges).
//  3. NextBatch ≡ Next: at every batch size the differential tries, the
//     batches carry the Next loop's events, field for field, and end where
//     it ends, with and without budgets
//     (sax.CheckBatchEquivalence, the body of TestBatchMatchesNext).
//
// Run with: go test -fuzz FuzzTokenizerBytes ./internal/sax
func FuzzTokenizerBytes(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a><b>text</b><c/></a>",
		`<a id="1" name="x&amp;y">body &lt;here&gt;</a>`,
		"<a><!-- c --><![CDATA[x]]y]]></a>",
		"<?xml version=\"1.0\"?><!DOCTYPE a><a>&#x41;&#66;</a>",
		"<a></b>",
		"<a>&bad;</a>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, size := 0, 2
		if len(data) > 0 {
			k, size = int(data[len(data)-1])%24, 2+int(data[0])%48
		}
		sax.CheckSkimEquivalence(t, data, k, limits.Limits{}, size)
		sax.CheckSkimEquivalence(t, data, k, limits.Limits{MaxDepth: 3, MaxTokenBytes: 24}, size)
		sax.CheckBatchEquivalence(t, data, limits.Limits{})
		sax.CheckBatchEquivalence(t, data, limits.Limits{MaxDepth: 3, MaxTokenBytes: 24})

		got, gotErr := sax.ParseBytes(data)
		want, wantErr := sax.Parse(string(data))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("acceptance disagreement: bytes err = %v, string err = %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		want = sax.ExpandAttributes(want)
		if len(got) != len(want) {
			t.Fatalf("stream length: bytes %d vs string %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.Name != w.Name || g.Data != w.Data || g.Attribute != w.Attribute {
				t.Fatalf("event %d: bytes %+v vs string %+v", i, g, w)
			}
		}
		// Round-trip through the serializer. Attribute pseudo-elements
		// serialize as real child elements, so the reparse agrees up to
		// the Attribute flag and text coalescing.
		xml, err := sax.SerializeString(stripAttrFlags(got))
		if err != nil {
			t.Fatalf("serialize of accepted stream failed: %v", err)
		}
		again, err := sax.ParseBytes([]byte(xml))
		if err != nil {
			t.Fatalf("re-tokenize of serialized stream failed: %v\nxml: %q", err, xml)
		}
		// Empty Text events (empty attribute values) have no serialized
		// form, so normalize them away on both sides.
		a := dropEmptyText(sax.CoalesceText(stripAttrFlags(got)))
		b := dropEmptyText(sax.CoalesceText(again))
		if len(a) != len(b) {
			t.Fatalf("round-trip length: %d vs %d\nxml: %q", len(a), len(b), xml)
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name || a[i].Data != b[i].Data {
				t.Fatalf("round-trip event %d: %+v vs %+v\nxml: %q", i, a[i], b[i], xml)
			}
		}
	})
}

// dropEmptyText removes zero-length Text events, which serialization
// cannot represent.
func dropEmptyText(events []sax.Event) []sax.Event {
	out := events[:0:0]
	for _, e := range events {
		if e.Kind == sax.Text && e.Data == "" {
			continue
		}
		out = append(out, e)
	}
	return out
}

// stripAttrFlags clears Attribute marks so the serializer treats
// synthesized attribute events as plain elements.
func stripAttrFlags(events []sax.Event) []sax.Event {
	out := make([]sax.Event, len(events))
	for i, e := range events {
		e.Attribute = false
		out[i] = e
	}
	return out
}
