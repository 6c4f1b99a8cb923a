package sax

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestNameCacheWarmPass pins the name cache's associativity: once a
// document's names have been seen, a second pass over it — by batches, as
// the drive loops read, and by single events — makes no symbol-table
// lookup. The catalog is the fanout-pred shape: its names f0–f99, catalog,
// item and priority put two names in some sets (item and f79, f0 and f17,
// f1 and f18, f2 and f19), which evicted each other on every item while the
// cache was direct-mapped. The news feed is the scan and serve shape. The
// last document's names are longer than a word and share their first eight
// bytes, which the cache's hash must not let collide.
func TestNameCacheWarmPass(t *testing.T) {
	var cat strings.Builder
	cat.WriteString("<catalog>")
	for i := 0; i < 100; i += 2 {
		fmt.Fprintf(&cat, "<item><priority>%d</priority><f%d/><f%d/></item>", i%12, i, i+1)
	}
	cat.WriteString("</catalog>")
	var news strings.Builder
	news.WriteString("<news>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&news, `<item id="%d"><title>story %d</title><keyword>go</keyword><priority>%d</priority><body><p>lorem ipsum</p></body></item>`, i, i, i%10)
	}
	news.WriteString("</news>")
	var long strings.Builder
	long.WriteString("<r>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&long, "<sharedprefix%03d/><sharedprefix%03d>t</sharedprefix%03d>", i, 39-i, 39-i)
	}
	long.WriteString("</r>")
	for _, doc := range []struct{ name, xml string }{{"catalog", cat.String()}, {"news", news.String()}, {"long", long.String()}} {
		for _, batched := range []bool{true, false} {
			tok := NewTokenizerBytes([]byte(doc.xml), nil)
			drainNames(t, tok, batched)
			cold := tok.nameMisses
			tok.Reset([]byte(doc.xml))
			drainNames(t, tok, batched)
			if warm := tok.nameMisses - cold; cold == 0 || warm != 0 {
				t.Errorf("%s (batched %v): %d symbol-table lookups on the first pass, %d on the second; want some, then none",
					doc.name, batched, cold, warm)
			}
		}
	}
}

// drainNames reads tok to the end of its document, by batches or one event
// at a time.
func drainNames(t *testing.T, tok *TokenizerBytes, batched bool) {
	t.Helper()
	batch := make([]ByteEvent, BatchSize)
	for {
		var err error
		if batched {
			_, err = tok.NextBatch(batch)
		} else {
			_, err = tok.Next()
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNameCacheOverflow: a document of four times as many distinct names
// as the name cache has slots — short ones, ones of exactly eight bytes,
// and long ones that share their first eight bytes, of one length and of
// several — read twice, by batches and by single events, gives every event
// the symbol its name interns to and the string tokenizer's name, however
// the names evict each other.
func TestNameCacheOverflow(t *testing.T) {
	slots := len(nameCache{}) * len(nameCache{}[0])
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 4*slots; i++ {
		for _, name := range []string{fmt.Sprintf("n%d", i), fmt.Sprintf("e%07d", i), fmt.Sprintf("sharedpfx%05d", i), fmt.Sprintf("sharedpfx%d", i)} {
			fmt.Fprintf(&b, "<%s>t</%s><%s/>", name, name, name)
		}
	}
	b.WriteString("</r>")
	doc := b.String()
	want, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, batched := range []bool{true, false} {
		tok := NewTokenizerBytes(nil, nil)
		for pass := 0; pass < 2; pass++ {
			tok.Reset([]byte(doc))
			var got []ByteEvent
			batch := make([]ByteEvent, BatchSize)
			for {
				var err error
				if batched {
					var n int
					n, err = tok.NextBatch(batch)
					got = append(got, batch[:n]...)
				} else {
					var ev ByteEvent
					if ev, err = tok.Next(); err == nil {
						got = append(got, ev)
					}
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("batched %v, pass %d: %d events, want %d", batched, pass, len(got), len(want))
			}
			for i, ev := range got {
				if ev.Kind != want[i].Kind {
					t.Fatalf("batched %v, pass %d: event %d is %v, want %v", batched, pass, i, ev.Kind, want[i].Kind)
				}
				if ev.Kind == StartElement || ev.Kind == EndElement {
					if name := want[i].Name; ev.Sym != tok.Table().Lookup(name) || tok.Table().Name(ev.Sym) != name {
						t.Fatalf("batched %v, pass %d: event %d has symbol %d (%q), want %q's", batched, pass, i, ev.Sym, tok.Table().Name(ev.Sym), name)
					}
				}
			}
		}
		if tok.nameMisses <= 16*slots {
			t.Errorf("batched %v: %d misses over %d distinct names read twice; the second pass found them all cached", batched, tok.nameMisses, 16*slots)
		}
	}
}
