package sax

import (
	"strings"
	"testing"
)

// TestFeedReaderGrowsWindowGeometrically: a construct that spans k reads
// reallocates the window O(log k) times, not once per read — a 4 MiB text
// run read in 64 KiB chunks is 64 reads.
func TestFeedReaderGrowsWindowGeometrically(t *testing.T) {
	s := NewStreamTokenizer(nil)
	doc := "<r>" + strings.Repeat("x", 4<<20) + "</r>"
	var st StreamStats
	grows, last := 0, 0
	_, err := s.Drive(strings.NewReader(doc), DefaultChunkSize, &st, func(ByteEvent) error { return nil }, func() int {
		if c := cap(s.buf); c != last {
			grows, last = grows+1, c
		}
		return -1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 KiB to 64 KiB by the grant, then 64 KiB to 4 MiB by doubling.
	if grows > 12 {
		t.Fatalf("the window was reallocated %d times in %d reads", grows, st.Chunks)
	}
}

// TestKeepRetainsWindow: from the offset the keep hook returns — here the
// start of the outermost open element below the root — the window keeps
// every byte across refills, whatever the chunk size, so that Window
// returns such an element's bytes at its end; a start tag suspended
// between attributes keeps its own head until its StartElement is
// delivered, with nothing kept.
func TestKeepRetainsWindow(t *testing.T) {
	doc := `<r><a x='1'  y = "2"><b/>t&amp;<!--c--><![CDATA[d]]></a ><c p='1' q='2' s='3'/></r>`
	for chunk := 1; chunk <= len(doc); chunk++ {
		s := NewStreamTokenizer(nil)
		var st StreamStats
		var open []int
		_, err := s.Drive(strings.NewReader(doc), chunk, &st, func(ev ByteEvent) error {
			switch {
			case ev.Attribute:
			case ev.Kind == StartElement:
				if got := string(s.Window(ev.Off, ev.Off+2)); got != doc[ev.Off:ev.Off+2] {
					t.Fatalf("chunk %d: start tag head %q at %d", chunk, got, ev.Off)
				}
				open = append(open, ev.Off)
			case ev.Kind == EndElement:
				start := open[len(open)-1]
				if open = open[:len(open)-1]; len(open) == 0 {
					break // the root is not kept
				}
				if got := string(s.Window(start, ev.Off)); got != doc[start:ev.Off] {
					t.Fatalf("chunk %d: element %q, want %q", chunk, got, doc[start:ev.Off])
				}
			}
			return nil
		}, func() int {
			if len(open) < 2 {
				return -1
			}
			return open[1]
		}, nil)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
}
