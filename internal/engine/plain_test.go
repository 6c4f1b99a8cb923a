package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// plainReading is what one path through the engine reports for a document.
type plainReading struct {
	ids   []string
	err   string
	stats Stats
	mem   MemStats
}

// readEngine reads the outcome of the document the engine just matched.
func readEngine(e *Engine, err error) plainReading {
	r := plainReading{ids: e.MatchedIDs(), stats: e.Stats(), mem: e.MemStats()}
	if err != nil {
		// The drive loops prefix the engine's own errors for the public
		// surface; a caller feeding ProcessBytes sees them bare.
		r.err = strings.TrimPrefix(err.Error(), "streamxpath: ")
	}
	return r
}

// TestPlainPathAgrees: an engine reports the same verdicts, errors, Stats
// and MemStats for a document fed to ProcessBytes event by event, matched
// by MatchBytes and read by MatchReader in chunks of 1, 7 and the default
// size — on plain documents, which take the plain path (capture off, no
// per-event budget), and on those that leave it: attributes, a second root,
// an unmatched end tag, a truncated document, a MaxDepth, MaxLiveTuples or
// MaxBufferedBytes budget, capture on (where a reader alone holds copies of
// its fragments, MemStats.CapturedBytes). Under budgets too large to breach,
// which only move a document off the plain path, every reading is the
// plain path's. //zzz keeps every verdict open to the end, so no path skims
// or stops early. Each path runs twice and its second reading counts, the
// memo being warm by then for all of them.
func TestPlainPathAgrees(t *testing.T) {
	subs := []string{"//catalog/item/f1", "//item[priority > 5]/f2", "//item[@id = '3']", "/catalog/item/priority", "//zzz"}
	docs := []string{
		"<catalog><item><priority>7</priority><f1/><f2/></item><item><priority>2</priority><f2/>x</item></catalog>",
		`<catalog><item id="3"><priority>9</priority><f2 x="1"/></item><item id="4"><f1/></item></catalog>`,
		"<catalog><item><f1/></item></catalog><catalog/>",
		"<catalog><item><f1/></priority></item></catalog>",
		"<catalog><item><a><b><c><f1/></c></b></a></item></catalog>",
		"<catalog><item><priority>8</priority><f2/>",
		"<catalog><item><priority>  6 </priority><f2>long text in a leaf</f2></item></catalog>",
	}
	huge := limits.Limits{MaxDepth: 1 << 20, MaxLiveTuples: 1 << 20, MaxBufferedBytes: 1 << 30}
	configs := []struct {
		lim  limits.Limits
		mode CaptureMode
	}{
		{}, {lim: huge}, {lim: limits.Limits{MaxDepth: 3}}, {lim: limits.Limits{MaxLiveTuples: 6}},
		{lim: limits.Limits{MaxBufferedBytes: 4}}, {mode: CaptureSlice}, {mode: CaptureValue},
	}
	plain := map[string]plainReading{}
	for _, c := range configs {
		e := New()
		for i, src := range subs {
			if err := (churnSub{id: fmt.Sprint(i), src: src, extract: i%2 == 0}).addTo(e); err != nil {
				t.Fatal(err)
			}
		}
		e.SetLimits(c.lim)
		for _, doc := range docs {
			paths := []struct {
				name string
				run  func() error
			}{
				{"events", func() error { return fullDispatch(e, []byte(doc), c.mode) }},
				{"MatchBytes", func() error { _, err := e.MatchBytes(nil, []byte(doc), c.mode); return err }},
			}
			for _, chunk := range []int{1, 7, 0} {
				paths = append(paths, struct {
					name string
					run  func() error
				}{fmt.Sprintf("MatchReader/%d", chunk), func() error {
					_, err := e.MatchReader(nil, strings.NewReader(doc), chunk, c.mode)
					return err
				}})
			}
			want, ok := plain[doc]
			if c.lim != huge {
				want, ok = plainReading{}, false
			}
			copied := -1 // a reader's CapturedBytes
			for _, p := range paths {
				p.run()
				got := readEngine(e, p.run())
				if c.mode == CaptureSlice && strings.HasPrefix(p.name, "MatchReader") {
					// A reader copies out of its window the fragments a
					// buffer subslices: it alone holds their bytes, as many
					// at every chunk size.
					if copied >= 0 && got.mem.CapturedBytes != copied {
						t.Errorf("limits %+v, doc %s: %s captured %d bytes, another chunk size %d", c.lim, doc, p.name, got.mem.CapturedBytes, copied)
					}
					copied, got.mem.CapturedBytes = got.mem.CapturedBytes, want.mem.CapturedBytes
				}
				if !ok {
					want, ok = got, true
					if c.lim == (limits.Limits{}) && c.mode == CaptureOff {
						plain[doc] = got
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("limits %+v, capture %v, doc %s: %s read\n%+v\nwant\n%+v", c.lim, c.mode, doc, p.name, got, want)
				}
			}
		}
	}
}

// TestPlainPathKeepsEngineChecks: events a tokenizer would never hand over
// — a second root, an end tag with nothing open, text or an element after
// the document's end or after a mutation abandoned it — are refused on the
// plain path as on the full one, with the same error and the same Stats.
func TestPlainPathKeepsEngineChecks(t *testing.T) {
	ev := func(kind sax.Kind, name string) sax.Event {
		return sax.Event{Kind: kind, Name: name}
	}
	start, end := func(n string) sax.Event { return ev(sax.StartElement, n) }, func(n string) sax.Event { return ev(sax.EndElement, n) }
	text := sax.Event{Kind: sax.Text, Data: "t"}
	streams := [][]sax.Event{
		{sax.StartDoc(), start("a"), end("a"), start("b")},
		{sax.StartDoc(), start("a"), end("a"), end("a")},
		{sax.StartDoc(), start("a"), sax.EndDoc(), start("b")},
		{sax.StartDoc(), start("a"), sax.EndDoc(), end("a")},
		{sax.StartDoc(), start("a"), sax.EndDoc(), text},
		{sax.StartDoc(), start("a"), start("b"), end("b"), text, end("a"), sax.EndDoc()},
	}
	for _, events := range streams {
		var readings []plainReading
		for _, lim := range []limits.Limits{{}, {MaxDepth: 100}} {
			e := New()
			mustAdd(t, e, "x", "//a/b")
			e.SetLimits(lim)
			readings = append(readings, readEngine(e, feed(e, events...)))
		}
		if !reflect.DeepEqual(readings[0], readings[1]) {
			t.Errorf("%v: plain path read\n%+v\nfull path\n%+v", events, readings[0], readings[1])
		}
	}
	// A mutation abandons the document in flight, and so the plain path
	// too refuses what follows of it; setting the limits between a
	// document's end and a stray element does not let the element in.
	for _, lim := range []limits.Limits{{}, {MaxDepth: 100}} {
		for name, between := range map[string]func(e *Engine) error{
			"a mutation": func(e *Engine) error { return e.Add("y", query.MustParse("//a")) },
			"the end and new limits": func(e *Engine) error {
				err := feed(e, sax.EndDoc())
				e.SetLimits(limits.Limits{})
				return err
			},
		} {
			e := New()
			mustAdd(t, e, "x", "//a/b")
			e.SetLimits(lim)
			if err := feed(e, sax.StartDoc(), start("a")); err != nil {
				t.Fatal(err)
			}
			if err := between(e); err != nil {
				t.Fatal(err)
			}
			if err := feed(e, start("b")); err == nil || !strings.Contains(err.Error(), "outside document") {
				t.Errorf("limits %+v: an element after %s: %v", lim, name, err)
			}
		}
	}
}
