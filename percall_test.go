package streamxpath_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamxpath"
)

// concurrentMatcher is the surface the three concurrent-safe matchers
// share, as far as the per-call tests use it.
type concurrentMatcher interface {
	Add(id, query string) error
	AddExtract(id, query string) error
	SetLimits(streamxpath.Limits)
	MatchBytesResult([]byte) (streamxpath.MatchResult, error)
	MatchStringResult(string) (streamxpath.MatchResult, error)
	MatchReaderResult(io.Reader) (streamxpath.MatchResult, error)
}

// TestMatchStringResultConcurrent: MatchStringResult stages its document
// per call, so concurrent calls on distinct documents each get the ids and
// fragments a sequential FilterSet returns for their own document. (The
// parallel matchers used to stage into a buffer they shared, and a
// concurrent call overwrote the document being tokenized.)
func TestMatchStringResultConcurrent(t *testing.T) {
	const goroutines, iters = 4, 200
	seq, pool := streamxpath.NewFilterSet(), streamxpath.NewFilterPool(2)
	par := streamxpath.NewParallelFilterSet(2)
	defer par.Close()
	ad := streamxpath.NewAdaptiveFilterSet(2)
	defer ad.Close()
	matchers := map[string]concurrentMatcher{"FilterPool": pool, "ParallelFilterSet": par, "AdaptiveFilterSet": ad}
	for _, m := range []concurrentMatcher{seq, pool, par, ad} {
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
	for name, m := range matchers {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					res, err := m.MatchStringResult(docs[g])
					if err != nil {
						t.Errorf("%s, document %d, call %d: %v", name, g, i, err)
						return
					}
					if !reflect.DeepEqual(res.MatchedIDs, want[g].MatchedIDs) || !reflect.DeepEqual(res.Fragments, want[g].Fragments) {
						t.Errorf("%s, document %d, call %d: ids %v fragments %q, sequential FilterSet %v %q",
							name, g, i, res.MatchedIDs, res.Fragments, want[g].MatchedIDs, want[g].Fragments)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// ownDoc is goroutine g's document for TestResultIsThisCallsOwn: pad bytes
// of text plus a chain of elements, both growing with g, so its length,
// event count and depth (12g+11) are nobody else's.
func ownDoc(g, pad int) []byte {
	depth := 10 + 12*g
	return []byte("<r><pad>" + strings.Repeat("x", pad+512*g) + "</pad>" +
		strings.Repeat("<d>", depth) + strings.Repeat("</d>", depth) + "</r>")
}

// TestResultIsThisCallsOwn: with goroutines feeding documents of different
// depth and length into one concurrent matcher, every MatchResult's
// accounting — MemStats.MaxDepth and Events, ReaderStats.BytesRead, the
// abstain flag (goroutine 3's document alone breaches MaxDepth, under
// LimitAbstain) — is that of the call's own document: what the same
// matcher reports for the same document with no other call in flight.
// (MemStats used to be read after the call, through accessors that sampled
// whichever replica or document came last.)
func TestResultIsThisCallsOwn(t *testing.T) {
	const goroutines = 4
	limits := streamxpath.Limits{MaxDepth: 45, Policy: streamxpath.LimitAbstain}
	pool := streamxpath.NewFilterPool(2)
	par := streamxpath.NewParallelFilterSet(2)
	defer par.Close()
	adPool, adShard := streamxpath.NewAdaptiveFilterSet(2), streamxpath.NewAdaptiveFilterSet(2)
	defer adPool.Close()
	defer adShard.Close()
	for _, arm := range []struct {
		name  string
		m     concurrentMatcher
		dense bool // ≥ 256 subscriptions and ≥ 32 KiB documents: the adaptive set's shard route
		iters int
	}{
		{"FilterPool", pool, false, 150},
		{"ParallelFilterSet", par, false, 150},
		{"AdaptiveFilterSet/pool-route", adPool, false, 150},
		{"AdaptiveFilterSet/shard-route", adShard, true, 25},
	} {
		// "never" keeps every document undecided to its last byte: no early
		// exit, no skim, so the byte and event counts are the document's.
		subs, pad := map[string]string{"pad": "/r/pad", "never": "//never"}, 100
		if arm.dense {
			pad = 33 << 10
			for i := 0; i < 256; i++ {
				subs[fmt.Sprintf("f%d", i)] = fmt.Sprintf("//pad/f%d", i)
			}
		}
		for id, q := range subs {
			if err := arm.m.Add(id, q); err != nil {
				t.Fatal(err)
			}
		}
		arm.m.SetLimits(limits)
		docs := make([][]byte, goroutines)
		for g := range docs {
			docs[g] = ownDoc(g, pad)
		}
		for _, entry := range []struct {
			name  string
			match func(doc []byte) (streamxpath.MatchResult, error)
		}{
			{"bytes", arm.m.MatchBytesResult},
			{"string", func(doc []byte) (streamxpath.MatchResult, error) { return arm.m.MatchStringResult(string(doc)) }},
			{"reader", func(doc []byte) (streamxpath.MatchResult, error) {
				return arm.m.MatchReaderResult(bytes.NewReader(doc))
			}},
		} {
			label := arm.name + "/" + entry.name
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
					for i := 0; i < arm.iters; i++ {
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
}
