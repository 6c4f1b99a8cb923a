package sax_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"streamxpath/internal/sax"
)

// TestTokenizerZeroAlloc pins that a warm tokenizer allocates nothing per
// document on two shapes: a text-heavy news feed (~880 KB) and a document
// of 250-attribute tags (~220 KB, each tag several KiB), drained whole by
// Next, whole by NextBatch (the engine's buffered loop) and in 4 KiB chunks
// through a StreamTokenizer, whose many-attribute tags span chunks and
// suspend mid-tag. TestStreamTokenizerSteadyStateAllocs pins small chunks
// of a small document, and TestSkimMaterializesNothing a warm Skim.
func TestTokenizerZeroAlloc(t *testing.T) {
	var news strings.Builder
	news.WriteString("<news>")
	for i := 0; i < 2500; i++ {
		fmt.Fprintf(&news, `<item id="%d"><title>Story %d of the day</title>`, i, i)
		fmt.Fprintf(&news, "<body>The quick brown fox jumps over the lazy dog %d times; "+
			"markets rallied while engineers shipped &amp; measured throughput. "+
			"A second sentence pads the run out to realistic paragraph length, "+
			"and a third keeps the ratio of text to markup high.</body>", i)
		fmt.Fprintf(&news, "<keyword>go</keyword><priority>%d</priority></item>", i%10)
	}
	news.WriteString("</news>")
	var attrs strings.Builder
	attrs.WriteString("<doc>")
	for e := 0; e < 40; e++ {
		fmt.Fprintf(&attrs, "<rec%d", e)
		for a := 0; a < 250; a++ {
			fmt.Fprintf(&attrs, ` attr%03d="value-%d-%d"`, a, e, a)
		}
		attrs.WriteString("/>")
	}
	attrs.WriteString("</doc>")

	tok := sax.NewTokenizerBytes(nil, nil)
	evs := make([]sax.ByteEvent, sax.BatchSize)
	stream := sax.NewStreamTokenizer(nil)
	drains := []struct {
		name  string
		drain func(doc []byte) (int, error)
	}{
		{"whole", func(doc []byte) (n int, err error) {
			tok.Reset(doc)
			for ; err == nil; n++ {
				_, err = tok.Next()
			}
			return n - 1, err // the last call returned no event
		}},
		{"batch", func(doc []byte) (n int, err error) {
			tok.Reset(doc)
			for err == nil {
				var k int
				k, err = tok.NextBatch(evs)
				n += k
			}
			return n, err
		}},
		{"chunked", func(doc []byte) (n int, err error) {
			const chunk = 4096
			stream.Reset()
			for pos := 0; pos < len(doc); pos += chunk {
				stream.Feed(doc[pos:min(pos+chunk, len(doc))])
				if pos+chunk >= len(doc) {
					stream.Finish()
				}
				for err = nil; err == nil; n++ {
					_, err = stream.Next()
				}
				n-- // the last call returned no event
				if err != sax.ErrNeedMoreData && err != io.EOF {
					return n, err
				}
			}
			return n, err
		}},
	}
	for _, doc := range []struct {
		name string
		doc  []byte
	}{{"news", []byte(news.String())}, {"manyattr", []byte(attrs.String())}} {
		for _, d := range drains {
			t.Run(doc.name+"/"+d.name, func(t *testing.T) {
				want, err := d.drain(doc.doc) // warm: symbols, scratch, tail buffer
				if err != io.EOF || want == 0 {
					t.Fatalf("%d events, ended by %v; want events and io.EOF", want, err)
				}
				if allocs := testing.AllocsPerRun(20, func() {
					if n, err := d.drain(doc.doc); n != want || err != io.EOF {
						t.Fatalf("%d events, ended by %v; want %d and io.EOF", n, err, want)
					}
				}); allocs != 0 {
					t.Errorf("steady state: %v allocs/run, want 0", allocs)
				}
			})
		}
	}
}
