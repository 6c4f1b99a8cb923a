//go:build !race

package streamxpath

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamxpath/internal/workload"
)

// liveHeap is HeapAlloc after two collections, the second of which frees
// what the first one's finalizers and sweep left behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPoolSharesIndex pins what a FilterPool's replicas add to a standing
// set: matching state, not subscriptions. The pool links each subscription
// once, into one index its replicas share, so at 10,000 subscriptions the
// heap a FilterPool(4) holds per subscription — after every replica has
// matched a document, so that its per-document vectors have grown to the set
// — is within 1.05× of a FilterSet's, and within 1.03× on the predicated
// shape, where it reads 1.01×: a replica's vectors hold a latch count per
// trie step with continuations or more than one terminal — none for
// fanout-pred's leaves, whose counts are their terminals' result bits — a
// stack of open scopes only per step that opens scopes, which those leaves
// do not either, and a fragment slot per subscription only once a document
// captures (1.15× while every step had a stack and every subscription a
// fragment slot in every engine, 1.07× while every step had a latch count).
// (With a complete engine per replica it read 4.0× on the predicated shape
// and 3.6× on the NFA one.)
//
// The dfa row holds the lazy DFA to a like bound: E18's shape, //a/*^k/b
// and //a/*^k/c for k = 2…8, over 200 path-distinct documents that every
// engine of the pool matches concurrently. Fourteen subscriptions hold next
// to nothing, so the row measures per warm memo, not per subscription: from
// after every engine has matched a one-element document — its tokenizer and
// per-document vectors made — to after the corpus, which is the memo the
// engines share. (With a memo per engine it read 3.4–3.6×.) It reads
// 1.02–1.06×, bound 1.10×: the pool's four callers leave the runtime's
// goroutine and lock-waiter records behind, which the set's one does not.
//
// The dfa-pred row is the same shape behind a predicate, //a[x]/*^k/b and
// //a[x]/*^k/c: the trie's steps are states of the merged NFA, so its
// engines find their candidates through the one memo too. What the corpus
// adds to each engine is also its trie matcher's working state: the scopes
// the last document held open at once (a 112-byte scope, its tuples in
// blocks of eight) and their commits, which a pool of four holds four
// times. It reads 1.08–1.16×, bound 1.25×; 1.29–1.33× while the free list
// kept every scope an engine had ever held open, up to 52 of 176 bytes,
// about 18 KB an engine, and 1.28× when the memo became the trie's (3.54×
// before, with no memo to share); a memo per engine would read about 4×.
//
// The reader row is the predicated set matched through MatchReaderResult on
// a ≈ 5 KB document: a replica adds the window its reads grew to, 8 KiB,
// and reads 1.02×, bound 1.05× (1.07× while every read asked for the 64 KiB
// chunk size, whatever the document).
func TestPoolSharesIndex(t *testing.T) {
	const workers = 4
	var doc strings.Builder
	doc.WriteString("<catalog>")
	for i := 0; i < 80; i += 2 {
		fmt.Fprintf(&doc, "<item><priority>%d</priority><f%d/><f%d/></item>", i%12, i, i+1)
	}
	doc.WriteString("</catalog>")
	// upload is a ≈ 5 KB catalog of the same shape, read through a reader.
	var upload strings.Builder
	upload.WriteString("<catalog>")
	for i := 0; i < 200; i += 2 {
		fmt.Fprintf(&upload, "<item><priority>%d</priority><f%d/><f%d/></item>", i%12, i%100, i%100+1)
	}
	upload.WriteString("</catalog>")
	rng := rand.New(rand.NewSource(1))
	trees := make([]string, 200)
	for i := range trees {
		x, err := workload.RandomTree(rng, []string{"a", "b", "c", "d", "x", "y"}, nil, 12, 3).XML()
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = x
	}
	for _, tc := range []struct {
		name  string
		n     int
		query func(i int) string
		docs  []string
		memo  bool    // measure what the corpus adds, not the subscriptions
		read  bool    // match through MatchReaderResult, not MatchString
		bound float64 // the most FilterPool(4) may hold, in FilterSets
	}{
		{"predicated", 10000, func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10) }, []string{doc.String()}, false, false, 1.03},
		{"nfa", 10000, func(i int) string { return fmt.Sprintf("//catalog/item/f%d", i) }, []string{doc.String()}, false, false, 1.05},
		{"dfa", 14, func(i int) string { return "//a" + strings.Repeat("/*", 2+i/2) + "/" + "bc"[i%2:i%2+1] }, trees, true, false, 1.10},
		{"dfa-pred", 14, func(i int) string { return "//a[x]" + strings.Repeat("/*", 2+i/2) + "/" + "bc"[i%2:i%2+1] }, trees, true, false, 1.25},
		{"reader", 10000, func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10) }, []string{upload.String()}, false, true, 1.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The ids and texts are the caller's, built first so that what is
			// measured is what the matcher adds to them.
			ids, texts := make([]string, tc.n), make([]string, tc.n)
			for i := range ids {
				ids[i], texts[i] = fmt.Sprintf("s%d", i), tc.query(i)
			}
			// held is what the matcher holds once callers goroutines have each
			// matched every document, all at once. The pool's idle ring is
			// FIFO, so with as many callers as engines every engine matches.
			held := func(m interface {
				Add(id, querySrc string) error
				MatchString(xml string) ([]string, error)
				MatchReaderResult(r io.Reader) (MatchResult, error)
			}, callers int) float64 {
				before := liveHeap()
				for i := range ids {
					if err := m.Add(ids[i], texts[i]); err != nil {
						t.Fatal(err)
					}
				}
				if tc.memo {
					for range callers {
						if _, err := m.MatchString("<z/>"); err != nil {
							t.Fatal(err)
						}
					}
					before = liveHeap()
				}
				var wg sync.WaitGroup
				for c := range callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for d := range tc.docs {
							// Each caller starts at its own place in the corpus, so
							// that the engines meet cold paths at the same time.
							x := tc.docs[(d+c*len(tc.docs)/callers)%len(tc.docs)]
							var err error
							if tc.read {
								_, err = m.MatchReaderResult(strings.NewReader(x))
							} else {
								_, err = m.MatchString(x)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				after := liveHeap()
				runtime.KeepAlive(m)
				return float64(after - before)
			}
			set := held(NewFilterSet(), 1)
			pool := held(NewFilterPool(workers), workers)
			// The ids and texts must outlive both measurements: freed during
			// the second, they would come off what it reads — 0.9 MB on the
			// predicated row.
			runtime.KeepAlive(ids)
			runtime.KeepAlive(texts)
			t.Logf("%s: FilterSet %.0f B, FilterPool(%d) %.0f B (%.0f and %.0f B per subscription, %.2f×)",
				tc.name, set, workers, pool, set/float64(tc.n), pool/float64(tc.n), pool/set)
			if pool > tc.bound*set {
				t.Errorf("%s: FilterPool(%d) holds %.0f B, %.2f× FilterSet's %.0f B; want at most %.2f×",
					tc.name, workers, pool, pool/set, set, tc.bound)
			}
		})
	}
}
