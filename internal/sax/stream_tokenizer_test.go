package sax_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// streamCorpus is the chunk-boundary corpus: every syntactic feature the
// tokenizer knows, so splitting at every offset lands boundaries mid-tag,
// mid-name, mid-entity, mid-comment, mid-CDATA, mid-attribute-value and
// mid-PI at least once each.
var streamCorpus = []string{
	"<a/>",
	"<a></a>",
	"<a><b>text</b><c/></a>",
	"<?xml version=\"1.0\"?>\n<a>hi</a>\n",
	"<a>x&lt;y&gt;&amp;&apos;&quot;z</a>",
	"<a>&#65;&#x41;&#x1F600;</a>",
	"<a><!-- comment --><b/></a>",
	"<a><!-- tricky ---><b/>--></a>",
	"<a><![CDATA[raw <>&" + "]]" + "]]>tail</a>",
	"<a><![CDATA[]]></a>",
	"<!DOCTYPE a>\n<a/>",
	`<a id="1" name="x&amp;y">body</a>`,
	`<a attr='single "quoted"'/>`,
	"<a  spaced = \"v\" ></a>",
	"<deep><deep><deep><leaf/></deep></deep></deep>",
	"<a>one<b/>two<c/>three</a>",
	"  \n\t<a/>  \n",
	"<a><?pi data?><b/></a>",
	"<mixed>pre<x y=\"1\"/>post</mixed>",
	"<ns:elem ns:attr=\"v\"/>",
	"<a>mixed &amp; entities &#x4E; in one run</a>",
	manyAttrTagDoc(200),
	"<a><![CDATA[" + strings.Repeat("raw <>& bytes ", 100) + "]]>tail</a>",
	"<a><!-- " + strings.Repeat("long comment body ", 80) + "--><b/></a>",
	// Error cases: truncated constructs must fail identically after the
	// final chunk.
	"",
	"   ",
	"<a>",
	"<a></b>",
	"<a/><b/>",
	"</a>",
	"<a>&unknown;</a>",
	"<a b=c/>",
	"<a b=\"<\"/>",
	"<a><![CDATA[unterminated</a>",
	"<a><!-- unterminated</a>",
	"text outside<a/>",
	"<a/>trailing text",
	"<a", "<a b", "<a b=", "<a b=\"v", "<a>&am", "<a><!", "<a><![CD",
	"<a>&toolongentityname;</a>",
}

// manyAttrTagDoc returns a document whose root start tag carries n
// attributes — the pathological tag that used to be rescanned from its
// '<' on every chunk refill before start-tag suspension kept
// already-parsed attributes.
func manyAttrTagDoc(n int) string {
	var b strings.Builder
	b.WriteString("<root")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " attr%04d=%q", i, fmt.Sprintf("value &amp; %04d", i))
	}
	b.WriteString("><leaf/>body text</root>")
	return b.String()
}

// TestStreamTokenizerResumptionBounds feeds pathological documents —
// a start tag with hundreds of attributes, and CDATA/comment bodies
// many times the chunk size — in small fixed chunks, and asserts both
// byte-identical events and an upper bound on the total bytes rescanned
// after suspensions. This pins the per-construct resumability fix: the
// old rewind-to-construct-start suspension rescanned O(chunks × tag)
// bytes on the many-attribute tag (quadratic in tag size), while
// per-attribute resume keeps the whole parse O(doc).
func TestStreamTokenizerResumptionBounds(t *testing.T) {
	const chunk = 256
	cases := []struct {
		name string
		doc  string
		// maxRescan bounds tok.Rescanned() given the chunk count.
		maxRescan func(docLen, chunks int) int
	}{
		// Each suspension may rescan at most the one attribute in
		// progress, so the total stays within one document length.
		{"manyattr", manyAttrTagDoc(250), func(docLen, chunks int) int { return docLen }},
		// Terminator scans are memoized (suspendAt/scanned), so a chunk
		// boundary inside a CDATA or comment body rescans only the few
		// construct lead bytes — a small constant per boundary.
		{"cdata", "<a><![CDATA[" + strings.Repeat("x<y>&z ", 2000) + "]]></a>",
			func(docLen, chunks int) int { return 32 * (chunks + 1) }},
		{"comment", "<a><!-- " + strings.Repeat("lorem ipsum ", 1500) + "--><b/></a>",
			func(docLen, chunks int) int { return 32 * (chunks + 1) }},
	}
	tok := sax.NewStreamTokenizer(nil)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := sax.ParseBytes([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			var splits []int
			for off := chunk; off < len(c.doc); off += chunk {
				splits = append(splits, off)
			}
			got, err := streamEvents(tok, c.doc, splits)
			if err != nil {
				t.Fatal(err)
			}
			diffEvents(t, c.doc, got, want)
			chunks := len(splits) + 1
			if chunks < 5 {
				t.Fatalf("degenerate case: doc of %d bytes made only %d chunks", len(c.doc), chunks)
			}
			bound := c.maxRescan(len(c.doc), chunks)
			if got := tok.Rescanned(); got > bound {
				t.Errorf("rescanned %d bytes across %d-chunk parse of %d-byte doc, bound %d",
					got, chunks, len(c.doc), bound)
			}
		})
	}
}

// streamEvents runs the chunked tokenizer over doc split at the given
// offsets (sorted, in-range), materializing the stream.
func streamEvents(tok *sax.StreamTokenizer, doc string, splits []int) ([]sax.Event, error) {
	tok.Reset()
	var out []sax.Event
	prev := 0
	feed := func(chunk string, last bool) error {
		tok.Feed([]byte(chunk))
		if last {
			tok.Finish()
		}
		for {
			ev, err := tok.Next()
			if err == sax.ErrNeedMoreData {
				if last {
					return io.ErrUnexpectedEOF // must not happen after Finish
				}
				return nil
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			out = append(out, ev.Event(tok.Table()))
		}
	}
	for _, s := range splits {
		if err := feed(doc[prev:s], false); err != nil {
			return out, err
		}
		prev = s
	}
	return out, feed(doc[prev:], true)
}

// wholeEvents runs the whole-buffer tokenizer over doc, materializing the
// events up to its end or its first error.
func wholeEvents(doc string) ([]sax.Event, error) {
	evs, err := wholeOffEvents(doc)
	out := make([]sax.Event, len(evs))
	for i, ev := range evs {
		out[i] = ev.Event
	}
	return out, err
}

// offEvent is a materialized event with the document offset its ByteEvent
// carried.
type offEvent struct {
	sax.Event
	Off int
}

// wholeOffEvents is wholeEvents keeping each event's Off.
func wholeOffEvents(doc string) ([]offEvent, error) {
	return drainOff(sax.NewTokenizerBytes([]byte(doc), nil))
}

// drainOff reads tok to its end, keeping each event's Off.
func drainOff(tok *sax.TokenizerBytes) ([]offEvent, error) {
	var out []offEvent
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, offEvent{ev.Event(tok.Table()), ev.Off})
	}
}

// splitReader hands doc over in the chunks the splits cut it into, one per
// Read, empty ones included.
type splitReader struct {
	doc  string
	cuts []int
	prev int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.cuts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.doc[r.prev:r.cuts[0]])
	r.prev += n
	if r.prev == r.cuts[0] {
		r.cuts = r.cuts[1:]
	}
	return n, nil
}

// checkDrive is the chunked path's leg of the split differential: doc cut at
// the given offsets (sorted, in range) and drained chunk by chunk through
// Drive, the loop every reader entry point runs, must give the whole-buffer
// events, Off included, and then the same error.
func checkDrive(t testing.TB, tok *sax.StreamTokenizer, doc string, splits []int, want []offEvent, wantErr error) {
	t.Helper()
	tok.Reset()
	r := &splitReader{doc: doc, cuts: append(append([]int(nil), splits...), len(doc))}
	var got []offEvent
	var st sax.StreamStats
	_, gotErr := tok.Drive(r, len(doc)+1, &st, func(ev sax.ByteEvent) error {
		got = append(got, offEvent{ev.Event(tok.Table()), ev.Off})
		return nil
	}, nil, nil)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("doc %q splits %v: whole-buffer err = %v, Drive err = %v", doc, splits, wantErr, gotErr)
	}
	if len(got) != len(want) {
		t.Fatalf("doc %q splits %v: Drive gave %d events, want %d", doc, splits, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("doc %q splits %v: Drive event %d = %+v, want %+v", doc, splits, i, got[i], want[i])
		}
	}
}

// TestStreamTokenizerSplitEveryOffset is the chunk-boundary differential
// test: every corpus document and every shape the scanners special-case,
// split into two chunks at every byte offset, must end as the whole-buffer
// TokenizerBytes ends it — the same events (hence the same deepest level)
// and then the same error: type, message and offset — whether the chunks
// are drained by Next or through Drive's batches. The same tokenizer's
// whole-buffer form (Whole) then reads the document as a fresh
// TokenizerBytes does, whatever the split left in it.
func TestStreamTokenizerSplitEveryOffset(t *testing.T) {
	tok := sax.NewStreamTokenizer(nil)
	for _, doc := range append(append([]string(nil), streamCorpus...), sax.KernelShapes...) {
		want, wantErr := wholeOffEvents(doc)
		wantEvents, _ := wholeEvents(doc)
		for off := 0; off <= len(doc); off++ {
			got, gotErr := streamEvents(tok, doc, []int{off})
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("doc %q split at %d: whole-buffer err = %v, chunked err = %v",
					doc, off, wantErr, gotErr)
			}
			diffEvents(t, doc, got, wantEvents)
			checkDrive(t, tok, doc, []int{off}, want, wantErr)
			if got, err := drainOff(tok.Whole([]byte(doc))); !reflect.DeepEqual(err, wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("doc %q after a split at %d: Whole gave %v, %v; want %v, %v", doc, off, got, err, want, wantErr)
			}
		}
	}
}

// TestStreamTokenizerMultiSplitRandom splits corpus documents and random
// serialized trees at many random offsets at once — including runs of
// empty chunks — and requires byte-identical event streams.
func TestStreamTokenizerMultiSplitRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	tok := sax.NewStreamTokenizer(nil)
	names := []string{"a", "b", "catalog", "item", "x"}
	texts := []string{"v", "1 < 2 & 3", "", "  spaced  ", "\"quotes\"", "päivää"}
	docs := append([]string{}, streamCorpus...)
	for i := 0; i < 40; i++ {
		d := workload.RandomTree(rng, names, texts, 5, 3)
		doc, err := sax.SerializeString(d.Events())
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	for trial, doc := range docs {
		want, wantErr := sax.ParseBytes([]byte(doc))
		wantOff, wantOffErr := wholeOffEvents(doc)
		for rep := 0; rep < 8; rep++ {
			n := rng.Intn(6)
			splits := make([]int, 0, n)
			for i := 0; i < n && len(doc) > 0; i++ {
				splits = append(splits, rng.Intn(len(doc)+1))
			}
			sort.Ints(splits)
			checkDrive(t, tok, doc, splits, wantOff, wantOffErr)
			got, gotErr := streamEvents(tok, doc, splits)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("trial %d doc %q splits %v: whole-buffer err = %v, chunked err = %v",
					trial, doc, splits, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			diffEvents(t, doc, got, want)
		}
	}
}

// TestStreamTokenizerSteadyStateAllocs: once warm, re-streaming a
// document in fixed-size chunks allocates nothing — the tail buffer,
// symbol table and scratch all persist across Reset.
func TestStreamTokenizerSteadyStateAllocs(t *testing.T) {
	doc := []byte(`<catalog><item id="7">go &amp; xml</item><item><f1>deep &lt;text&gt;</f1></item></catalog>`)
	tok := sax.NewStreamTokenizer(nil)
	run := func() {
		tok.Reset()
		for pos := 0; pos < len(doc); pos += 16 {
			end := pos + 16
			if end > len(doc) {
				end = len(doc)
			}
			tok.Feed(doc[pos:end])
			if end == len(doc) {
				tok.Finish()
			}
			for {
				_, err := tok.Next()
				if err == sax.ErrNeedMoreData || err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if tok.Consumed() != len(doc) {
			t.Fatalf("consumed %d bytes, want %d", tok.Consumed(), len(doc))
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm symbols, tail buffer, scratch
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("steady-state chunked tokenize: %v allocs/run, want 0", allocs)
	}
}

// TestStreamTokenizerFeedReader drives the direct-fill path over a
// reader, checking events against the whole-buffer tokenizer and the
// Consumed accounting.
func TestStreamTokenizerFeedReader(t *testing.T) {
	doc := "<catalog><item id=\"7\">go &amp; xml</item><note><![CDATA[x<y]]></note></catalog>"
	want, err := sax.ParseBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7, 64 << 10} {
		tok := sax.NewStreamTokenizer(nil)
		r := strings.NewReader(doc)
		var got []sax.Event
		for {
			_, rerr := tok.FeedReader(r, chunk)
			if rerr == io.EOF {
				tok.Finish()
			} else if rerr != nil {
				t.Fatal(rerr)
			}
			drained := false
			for {
				ev, err := tok.Next()
				if err == sax.ErrNeedMoreData {
					break
				}
				if err == io.EOF {
					drained = true
					break
				}
				if err != nil {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
				got = append(got, ev.Event(tok.Table()))
			}
			if drained {
				break
			}
		}
		diffEvents(t, doc, got, want)
		if tok.Consumed() != len(doc) {
			t.Fatalf("chunk %d: consumed %d, want %d", chunk, tok.Consumed(), len(doc))
		}
	}
}

// askReader is a reader over data that records the size of every Read
// request and fills each one, up to short bytes when short is set.
type askReader struct {
	data  []byte
	short int
	asks  []int
}

func (r *askReader) Read(p []byte) (int, error) {
	r.asks = append(r.asks, len(p))
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if r.short > 0 {
		n = min(n, r.short)
	}
	n = copy(p, r.data[:min(n, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// TestStreamTokenizerGrant pins FeedReader's read schedule: the first read
// asks for 4 KiB, and the grant doubles each time a read fills it, up to the
// chunk size and never above it; a read that comes back short leaves it
// where it is; Reset starts it over, so every document's reads start at
// 4 KiB whatever the tokenizer read before; and a chunk size of 4 KiB or
// less is every read's size. Every byte is read once, whatever the schedule.
func TestStreamTokenizerGrant(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for b.Len() < 200<<10 {
		b.WriteString("<item>some text</item>")
	}
	b.WriteString("</r>")
	doc := []byte(b.String())
	drive := func(tok *sax.StreamTokenizer, chunk, short int) []int {
		t.Helper()
		r := &askReader{data: doc, short: short}
		var st sax.StreamStats
		tok.Reset()
		sawEnd, err := tok.Drive(r, chunk, &st, func(sax.ByteEvent) error { return nil }, nil, nil)
		if err != nil || !sawEnd || st.BytesRead != int64(len(doc)) {
			t.Fatalf("chunk %d: read %d of %d bytes, end %v, %v", chunk, st.BytesRead, len(doc), sawEnd, err)
		}
		return r.asks
	}
	head := func(asks []int, n int) []int { return asks[:min(n, len(asks))] }
	const k = 1 << 10
	tok := sax.NewStreamTokenizer(nil)
	if got, want := head(drive(tok, 0, 0), 7), []int{4 * k, 8 * k, 16 * k, 32 * k, 64 * k, 64 * k, 64 * k}; !slices.Equal(got, want) {
		t.Errorf("default chunk: reads ask %v, want %v", got, want)
	}
	if got, want := head(drive(tok, 0, 0), 2), []int{4 * k, 8 * k}; !slices.Equal(got, want) {
		t.Errorf("default chunk after Reset: reads ask %v, want %v", got, want)
	}
	if got, want := head(drive(tok, 10*k, 0), 3), []int{4 * k, 8 * k, 10 * k}; !slices.Equal(got, want) {
		t.Errorf("chunk 10 KiB after the grant reached 64 KiB: reads ask %v, want %v", got, want)
	}
	tok = sax.NewStreamTokenizer(nil)
	if got, want := head(drive(tok, 10*k, 0), 4), []int{4 * k, 8 * k, 10 * k, 10 * k}; !slices.Equal(got, want) {
		t.Errorf("chunk 10 KiB: reads ask %v, want %v", got, want)
	}
	if got, want := head(drive(tok, 0, 0), 3), []int{4 * k, 8 * k, 16 * k}; !slices.Equal(got, want) {
		t.Errorf("default chunk after chunk 10 KiB: reads ask %v, want %v", got, want)
	}
	tok = sax.NewStreamTokenizer(nil)
	if got, want := head(drive(tok, 0, 3*k), 3), []int{4 * k, 4 * k, 4 * k}; !slices.Equal(got, want) {
		t.Errorf("short reads: reads ask %v, want %v", got, want)
	}
	for _, chunk := range []int{1, 512, 4 * k} {
		tok = sax.NewStreamTokenizer(nil)
		for range 2 {
			for i, ask := range drive(tok, chunk, 0) {
				if ask != chunk {
					t.Fatalf("chunk %d: read %d asks %d", chunk, i, ask)
				}
			}
		}
	}
}

// TestStreamTokenizerBoundedTail pins the memory claim: streaming a
// document much larger than the chunk size, the retained tail never
// exceeds one chunk plus the largest single token, regardless of
// document size.
func TestStreamTokenizerBoundedTail(t *testing.T) {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 20000; j++ {
		fmt.Fprintf(&b, "<item id=\"%d\"><name>element %d &amp; text</name></item>", j, j)
	}
	b.WriteString("</catalog>")
	doc := []byte(b.String())
	const chunk = 1 << 10
	tok := sax.NewStreamTokenizer(nil)
	r := bytes.NewReader(doc)
	peak := 0
	for {
		_, rerr := tok.FeedReader(r, chunk)
		if rerr == io.EOF {
			tok.Finish()
		} else if rerr != nil {
			t.Fatal(rerr)
		}
		done := false
		for {
			_, err := tok.Next()
			if err == sax.ErrNeedMoreData {
				break
			}
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if tok.Buffered() > peak {
			peak = tok.Buffered()
		}
		if done {
			break
		}
	}
	// The largest token here is a ~60-byte tag; allow chunk + 256.
	if peak > chunk+256 {
		t.Fatalf("retained tail peaked at %d bytes for a %d-byte document (chunk %d)", peak, len(doc), chunk)
	}
	if tok.Consumed() != len(doc) {
		t.Fatalf("consumed %d, want %d", tok.Consumed(), len(doc))
	}
}

// FuzzStreamTokenizerSplits fuzzes documents together with split
// positions: however the document is cut, the chunked stream must agree
// with the whole-buffer one, drained by Next and through Drive (checkDrive:
// Off and the error exactly too).
func FuzzStreamTokenizerSplits(f *testing.F) {
	f.Add("<a><b>text &amp; more</b><!--c--><![CDATA[d]]></a>", uint16(3), uint16(17))
	f.Add(`<a id="1" x='&lt;'>t</a>`, uint16(7), uint16(9))
	f.Add("<a>&#x41;<b/></a>", uint16(0), uint16(5))
	for i, doc := range sax.KernelShapes {
		f.Add(doc, uint16(i), uint16(len(doc)/2))
	}
	f.Fuzz(func(t *testing.T, doc string, s1, s2 uint16) {
		if len(doc) > 1<<12 {
			return
		}
		want, wantErr := sax.ParseBytes([]byte(doc))
		splits := []int{int(s1) % (len(doc) + 1), int(s2) % (len(doc) + 1)}
		sort.Ints(splits)
		tok := sax.NewStreamTokenizer(nil)
		wantOff, wantOffErr := wholeOffEvents(doc)
		checkDrive(t, tok, doc, splits, wantOff, wantOffErr)
		got, gotErr := streamEvents(tok, doc, splits)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("doc %q splits %v: whole-buffer err = %v, chunked err = %v", doc, splits, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("doc %q splits %v: %d events, want %d", doc, splits, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.Name != w.Name || g.Data != w.Data || g.Attribute != w.Attribute {
				t.Fatalf("doc %q splits %v: event %d = %+v, want %+v", doc, splits, i, g, w)
			}
		}
	})
}
