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
// cache was direct-mapped. The news feed is the scan and serve shape.
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
	for _, doc := range []struct{ name, xml string }{{"catalog", cat.String()}, {"news", news.String()}} {
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
