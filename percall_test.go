package streamxpath_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamxpath"
)

// TestMatchStringResultConcurrent: MatchStringResult stages its document
// per call, so concurrent calls on distinct documents each get the ids and
// fragments a sequential FilterSet returns for their own document. (The
// parallel matchers used to stage into a buffer they shared, and a
// concurrent call overwrote the document being tokenized.)
func TestMatchStringResultConcurrent(t *testing.T) {
	const goroutines, iters = 4, 200
	seq, pool := streamxpath.NewFilterSet(), streamxpath.NewFilterPool(2)
	for _, m := range []interface {
		Add(id, query string) error
		AddExtract(id, query string) error
	}{seq, pool} {
		for _, err := range []error{
			m.AddExtract("item", "//item[keyword]"),
			m.AddExtract("id", "//item/@id"),
			m.Add("pad", "//pad"),
			m.Add("none", "//absent"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	docs := make([]string, goroutines)
	want := make([]streamxpath.MatchResult, goroutines)
	for g := range docs {
		docs[g] = fmt.Sprintf(`<news><item id="g%d"><keyword>doc-%d</keyword><pad>%s</pad></item></news>`,
			g, g, strings.Repeat("x", 200*(g+1)))
		res, err := seq.MatchStringResult(docs[g])
		if err != nil || len(res.Fragments) != 2 {
			t.Fatalf("sequential reference, document %d: %+v, %v", g, res, err)
		}
		want[g] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := pool.MatchStringResult(docs[g])
				if err != nil {
					t.Errorf("document %d, call %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(res.MatchedIDs, want[g].MatchedIDs) || !reflect.DeepEqual(res.Fragments, want[g].Fragments) {
					t.Errorf("document %d, call %d: ids %v fragments %q, sequential FilterSet %v %q",
						g, i, res.MatchedIDs, res.Fragments, want[g].MatchedIDs, want[g].Fragments)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// ownDoc is goroutine g's document for TestResultIsThisCallsOwn: a pad of
// text plus a chain of elements, both growing with g, so its length, event
// count and depth (12g+11) are nobody else's.
func ownDoc(g int) []byte {
	depth := 10 + 12*g
	return []byte("<r><pad>" + strings.Repeat("x", 100+512*g) + "</pad>" +
		strings.Repeat("<d>", depth) + strings.Repeat("</d>", depth) + "</r>")
}

// TestResultIsThisCallsOwn: with goroutines feeding documents of different
// depth and length into one concurrent matcher, every MatchResult's
// accounting — MemStats.MaxDepth and Events, ReaderStats.BytesRead, the
// abstain flag (goroutine 3's document alone breaches MaxDepth, under
// LimitAbstain) — is that of the call's own document: what the same
// pool reports for the same document with no other call in flight.
// (MemStats used to be read after the call, through accessors that sampled
// whichever replica or document came last.)
func TestResultIsThisCallsOwn(t *testing.T) {
	const goroutines, iters = 4, 150
	pool := streamxpath.NewFilterPool(2)
	// "never" keeps every document undecided to its last byte: no early
	// exit, no skim, so the byte and event counts are the document's.
	for id, q := range map[string]string{"pad": "/r/pad", "never": "//never"} {
		if err := pool.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	pool.SetLimits(streamxpath.Limits{MaxDepth: 45, Policy: streamxpath.LimitAbstain})
	docs := make([][]byte, goroutines)
	for g := range docs {
		docs[g] = ownDoc(g)
	}
	for _, entry := range []struct {
		name  string
		match func(doc []byte) (streamxpath.MatchResult, error)
	}{
		{"bytes", pool.MatchBytesResult},
		{"string", func(doc []byte) (streamxpath.MatchResult, error) { return pool.MatchStringResult(string(doc)) }},
		{"reader", func(doc []byte) (streamxpath.MatchResult, error) {
			return pool.MatchReaderResult(bytes.NewReader(doc))
		}},
	} {
		label := entry.name
		want := make([]streamxpath.MatchResult, goroutines)
		for g, doc := range docs {
			res, err := entry.match(doc)
			if err != nil {
				t.Fatalf("%s, document %d alone: %v", label, g, err)
			}
			breaches := g == goroutines-1
			if res.Abstained != breaches || res.ReaderStats.Abstained != (breaches && entry.name == "reader") {
				t.Fatalf("%s, document %d alone: abstained %v/%v", label, g, res.Abstained, res.ReaderStats.Abstained)
			}
			if !breaches && (res.MemStats.MaxDepth != 12*g+11 || len(res.MatchedIDs) != 1) {
				t.Fatalf("%s, document %d alone: depth %d (want %d), ids %v", label, g, res.MemStats.MaxDepth, 12*g+11, res.MatchedIDs)
			}
			if !breaches && entry.name == "reader" && res.ReaderStats.BytesRead != int64(len(doc)) {
				t.Fatalf("%s, document %d alone: read %d of %d bytes", label, g, res.ReaderStats.BytesRead, len(doc))
			}
			for h, other := range want[:g] {
				if res.MemStats.Events == other.MemStats.Events || res.MemStats.MaxDepth == other.MemStats.MaxDepth {
					t.Fatalf("%s: the accounting does not tell documents %d and %d apart", label, h, g)
				}
			}
			want[g] = res
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					res, err := entry.match(docs[g])
					if err != nil {
						t.Errorf("%s, document %d, call %d: %v", label, g, i, err)
						return
					}
					got, own := res.MemStats, want[g].MemStats
					if got.MaxDepth != own.MaxDepth || got.Events != own.Events ||
						res.ReaderStats != want[g].ReaderStats || res.Abstained != want[g].Abstained ||
						!reflect.DeepEqual(res.MatchedIDs, want[g].MatchedIDs) {
						t.Errorf("%s, document %d, call %d: another call's result:\n got  depth %d events %d read %+v abstained %v ids %v\n want depth %d events %d read %+v abstained %v ids %v",
							label, g, i, got.MaxDepth, got.Events, res.ReaderStats, res.Abstained, res.MatchedIDs,
							own.MaxDepth, own.Events, want[g].ReaderStats, want[g].Abstained, want[g].MatchedIDs)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestBreachPolicyIsTheDocuments: a document breaches a budget under the
// policy it started with, not under one a SetLimits call stores while it
// runs. The pool's SetLimits waits for the in-flight document, but the new
// limits are readable (Limits) at once — the breach policy used to be read
// from there when the document came back, so a document that breached under
// LimitFail returned abstained with a nil error.
func TestBreachPolicyIsTheDocuments(t *testing.T) {
	pool := streamxpath.NewFilterPool(1)
	if err := pool.Add("x", "//x"); err != nil {
		t.Fatal(err)
	}
	pool.SetLimits(streamxpath.Limits{MaxDepth: 2, Policy: streamxpath.LimitFail})
	pr, pw := io.Pipe()
	type answer struct {
		res streamxpath.MatchResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := pool.MatchReaderResult(pr)
		done <- answer{res, err}
	}()
	// The write returns once the match has read it: the document is in
	// flight on the pool's one replica.
	if _, err := io.WriteString(pw, "<a><b>"); err != nil {
		t.Fatal(err)
	}
	set := make(chan struct{})
	go func() {
		pool.SetLimits(streamxpath.Limits{MaxDepth: 2, Policy: streamxpath.LimitAbstain})
		close(set)
	}()
	for pool.Limits().Policy != streamxpath.LimitAbstain {
		runtime.Gosched()
	}
	// Level 3 breaches MaxDepth 2.
	if _, err := io.WriteString(pw, "<c><d/></c></b></a>"); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	got := <-done
	<-set
	var le *streamxpath.LimitError
	if !errors.As(got.err, &le) || got.res.Abstained {
		t.Fatalf("breach under LimitFail: err=%v abstained=%v, want a *LimitError and no abstain", got.err, got.res.Abstained)
	}
	// The next document starts under LimitAbstain.
	res, err := pool.MatchStringResult("<a><b><c/></b></a>")
	if err != nil || !res.Abstained {
		t.Fatalf("breach under LimitAbstain: err=%v abstained=%v, want abstained and no error", err, res.Abstained)
	}
}
