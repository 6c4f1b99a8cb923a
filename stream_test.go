package streamxpath

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// segmentReader yields a document as predetermined segments, one per
// Read call — the instrument for placing chunk boundaries exactly.
type segmentReader struct {
	segs [][]byte
	i    int
}

func (r *segmentReader) Read(p []byte) (int, error) {
	for r.i < len(r.segs) && len(r.segs[r.i]) == 0 {
		r.i++
	}
	if r.i >= len(r.segs) {
		return 0, io.EOF
	}
	n := copy(p, r.segs[r.i])
	if n == len(r.segs[r.i]) {
		r.i++
	} else {
		r.segs[r.i] = r.segs[r.i][n:]
	}
	return n, nil
}

// countingReader counts the bytes handed out, to observe early exit.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestFilterSetMatchReaderSplitEveryOffset is the reader-level
// chunk-boundary differential: for each corpus document, MatchReader
// over the document split into two reads at every byte offset must
// produce the same verdict set (and the same error-ness) as whole-buffer
// MatchBytes.
func TestFilterSetMatchReaderSplitEveryOffset(t *testing.T) {
	s := NewFilterSet()
	for id, q := range map[string]string{
		"items":  `//catalog/item`,
		"pri":    `/catalog//item[priority > 5]`,
		"note":   `//item[contains(note, "b")]`,
		"attr":   `//item[@id = "3"]`,
		"wild":   `//*[priority]`,
		"nested": `//item[f1 and priority < 9]/f1`,
	} {
		if err := s.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	docs := []string{
		`<catalog><item id="3"><priority>7</priority><f1>v</f1><note>a &amp; b</note></item></catalog>`,
		`<catalog><item><priority>2</priority></item><item id="1"><f1/></item></catalog>`,
		`<catalog><!-- c --><item><![CDATA[x<y]]><priority>9</priority></item></catalog>`,
		`<other><thing/></other>`,
		// Malformed: errors must surface identically at any split.
		`<catalog><item>`,
		`<catalog><item></wrong></catalog>`,
	}
	for _, doc := range docs {
		want, wantErr := s.MatchBytes([]byte(doc))
		wantIDs := strings.Join(want, ",")
		for off := 0; off <= len(doc); off++ {
			r := &segmentReader{segs: [][]byte{[]byte(doc[:off]), []byte(doc[off:])}}
			got, gotErr := s.MatchReader(r)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("doc %q split %d: MatchBytes err=%v MatchReader err=%v", doc, off, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if strings.Join(got, ",") != wantIDs {
				t.Fatalf("doc %q split %d: MatchReader=%v MatchBytes=%v", doc, off, got, want)
			}
		}
	}
}

// TestMatchReaderRandomChunksEquivalence cross-checks MatchReader (at
// random chunk sizes and random multi-way splits) against MatchBytes for
// FilterSet, FilterPool and the standalone Filter on randomized
// dissemination documents.
func TestMatchReaderRandomChunksEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	s := NewFilterSet()
	pool := NewFilterPool(3)
	subs := map[string]string{
		"f2":   "//catalog/item/f2",
		"pri":  "/catalog//item[priority > 4]",
		"note": `//item[contains(note, "b 1")]`,
		"id":   `//item[@id = "2"]`,
	}
	for id, q := range subs {
		if err := s.Add(id, q); err != nil {
			t.Fatal(err)
		}
		if err := pool.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 40; trial++ {
		doc := randomDissemDoc(rng)
		want, err := s.MatchBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := strings.Join(want, ",")

		chunk := 1 + rng.Intn(64)
		s.SetChunkSize(chunk)
		got, err := s.MatchReader(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("trial %d chunk %d: %v", trial, chunk, err)
		}
		if strings.Join(got, ",") != wantIDs {
			t.Fatalf("trial %d chunk %d: MatchReader=%v want %v\ndoc: %s", trial, chunk, got, want, doc)
		}

		// Random multi-way split through a segment reader.
		var segs [][]byte
		prev := 0
		for prev < len(doc) {
			n := 1 + rng.Intn(len(doc)-prev)
			segs = append(segs, []byte(doc[prev:prev+n]))
			prev += n
		}
		pool.SetChunkSize(1 + rng.Intn(64))
		gotPool, err := pool.MatchReader(&segmentReader{segs: segs})
		if err != nil {
			t.Fatalf("trial %d pool: %v", trial, err)
		}
		if strings.Join(gotPool, ",") != wantIDs {
			t.Fatalf("trial %d: FilterPool.MatchReader=%v want %v\ndoc: %s", trial, gotPool, want, doc)
		}

		for id, q := range subs {
			f, err := MustCompile(q).NewFilter()
			if err != nil {
				t.Fatal(err)
			}
			f.SetChunkSize(1 + rng.Intn(32))
			ok, err := f.MatchReader(strings.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			inSet := false
			for _, g := range want {
				if g == id {
					inSet = true
				}
			}
			if ok != inSet {
				t.Fatalf("trial %d: %s: Filter.MatchReader=%v set=%v\ndoc: %s", trial, id, ok, inSet, doc)
			}
		}
	}
	s.SetChunkSize(0)
}

// TestFilterSetMatchReaderZeroAlloc mirrors TestFilterSetMatchBytesZeroAlloc
// for the chunked reader path — the acceptance criterion of this PR:
// steady-state linear matching from a reader performs zero allocations,
// per event and per chunk (the tail buffer, batch scratch and result
// buffer all persist).
func TestFilterSetMatchReaderZeroAlloc(t *testing.T) {
	s := NewFilterSet()
	for i := 0; i < 200; i++ {
		if err := s.Add(fmt.Sprintf("s%d", i), fmt.Sprintf("//catalog/item/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j, j+40)
	}
	b.WriteString("</catalog>")
	doc := []byte(b.String())
	s.SetChunkSize(512) // many chunks per document
	r := bytes.NewReader(doc)

	for i := 0; i < 3; i++ { // warm: shared index, DFA rows, tail buffer
		r.Reset(doc)
		ids, err := s.MatchReader(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 80 {
			t.Fatalf("matched %d subscriptions, want 80", len(ids))
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(doc)
		if _, err := s.MatchReader(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state linear MatchReader: %v allocs/run, want 0", allocs)
	}
}

// TestFilterSetMatchReaderEarlyExit: a prefix-decidable subscription set
// must stop consuming the reader long before EOF, report the early exit,
// and leave the set reusable.
func TestFilterSetMatchReaderEarlyExit(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("cat", "//catalog"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("first", `//item[@id = "0"]`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`<catalog><item id="0"><f/></item>`)
	for j := 1; j < 5000; j++ {
		fmt.Fprintf(&b, `<item id="%d"><f/></item>`, j)
	}
	b.WriteString("</catalog>")
	doc := b.String()
	s.SetChunkSize(1024)

	cr := &countingReader{r: strings.NewReader(doc)}
	res, err := s.MatchReaderResult(cr)
	if err != nil {
		t.Fatal(err)
	}
	if ids := res.MatchedIDs; len(ids) != 2 || ids[0] != "cat" || ids[1] != "first" {
		t.Fatalf("MatchReader = %v, want [cat first]", ids)
	}
	rs := res.ReaderStats
	if !rs.EarlyExit {
		t.Fatal("expected EarlyExit")
	}
	if cr.n >= int64(len(doc)) {
		t.Fatalf("read %d of %d bytes; expected early stop", cr.n, len(doc))
	}
	if rs.BytesRead != cr.n {
		t.Fatalf("ReaderStats.BytesRead = %d, reader counted %d", rs.BytesRead, cr.n)
	}
	if rs.BytesConsumed <= 0 || rs.BytesConsumed > rs.BytesRead {
		t.Fatalf("BytesConsumed = %d out of range (read %d)", rs.BytesConsumed, rs.BytesRead)
	}

	// A doc that never decides reads to EOF and reports no early exit.
	res, err = s.MatchReaderResult(strings.NewReader("<other/>"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReaderStats.EarlyExit {
		t.Fatal("undecidable document must not early-exit")
	}
}

// TestFilterMatchReaderEarlyExit: the standalone filter stops reading
// once its (monotone) match is inevitable.
func TestFilterMatchReaderEarlyExit(t *testing.T) {
	f, err := MustCompile("//item[priority > 5]").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<catalog><item><priority>9</priority></item>")
	for j := 0; j < 5000; j++ {
		b.WriteString("<item><priority>1</priority></item>")
	}
	b.WriteString("</catalog>")
	doc := b.String()
	f.SetChunkSize(1024)
	cr := &countingReader{r: strings.NewReader(doc)}
	res, err := f.MatchReaderResult(cr)
	if err != nil || len(res.MatchedIDs) != 1 {
		t.Fatalf("MatchReader = %v, %v; want a match", res.MatchedIDs, err)
	}
	rs := res.ReaderStats
	if !rs.EarlyExit || cr.n >= int64(len(doc)) {
		t.Fatalf("expected early exit; read %d of %d (stats %+v)", cr.n, len(doc), rs)
	}
	// The filter remains reusable and still reads whole documents when
	// the verdict needs them.
	res, err = f.MatchReaderResult(strings.NewReader("<catalog><item><priority>2</priority></item></catalog>"))
	if err != nil || len(res.MatchedIDs) != 0 {
		t.Fatalf("second MatchReader = %v, %v; want no match", res.MatchedIDs, err)
	}
	if res.ReaderStats.EarlyExit {
		t.Fatal("non-matching document must not early-exit")
	}
}

// TestParallelFilterSetMatchReaderEarlyExit: the deprecated name's
// streaming path abandons the reader once every verdict is decided.
func TestParallelFilterSetMatchReaderEarlyExit(t *testing.T) {
	par := NewParallelFilterSet(4)
	defer par.Close()
	for i := 0; i < 8; i++ {
		if err := par.Add(fmt.Sprintf("s%d", i), "//catalog"); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 20000; j++ {
		fmt.Fprintf(&b, "<item><f%d/></item>", j%7)
	}
	b.WriteString("</catalog>")
	doc := b.String()
	par.SetChunkSize(2048)
	cr := &countingReader{r: strings.NewReader(doc)}
	res, err := par.MatchReaderResult(cr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MatchedIDs) != 8 {
		t.Fatalf("matched %d, want 8", len(res.MatchedIDs))
	}
	rs := res.ReaderStats
	if !rs.EarlyExit || cr.n >= int64(len(doc)) {
		t.Fatalf("expected early exit; read %d of %d (stats %+v)", cr.n, len(doc), rs)
	}
	// And the set still matches complete documents afterwards.
	ids, err := par.MatchReader(strings.NewReader("<catalog><x/></catalog>"))
	if err != nil || len(ids) != 8 {
		t.Fatalf("after early exit: %v, %v", ids, err)
	}
}

// TestStreamEvaluatorReaderChunked: full evaluation over the chunked
// reader path must agree with the in-memory evaluator at any chunk size.
func TestStreamEvaluatorReaderChunked(t *testing.T) {
	q := MustCompile("/catalog/item[priority > 4]/name")
	ev, err := q.NewStreamEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	doc := `<catalog><item><priority>7</priority><name>go &amp; xml</name></item>` +
		`<item><priority>2</priority><name>skip</name></item>` +
		`<item><priority>9</priority><name>keep</name></item></catalog>`
	want, err := q.Evaluate(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 5, 33, 1 << 16} {
		ev.SetChunkSize(chunk)
		got, err := ev.EvaluateReader(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("chunk %d: %v, want %v", chunk, got, want)
		}
	}
}
