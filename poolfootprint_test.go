//go:build !race

package streamxpath

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
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
// — is within 1.15× of a FilterSet's. (With a complete engine per replica it
// read 4.0× on the predicated shape and 3.6× on the NFA one.)
func TestPoolSharesIndex(t *testing.T) {
	const n, workers = 10000, 4
	var doc strings.Builder
	doc.WriteString("<catalog>")
	for i := 0; i < 80; i += 2 {
		fmt.Fprintf(&doc, "<item><priority>%d</priority><f%d/><f%d/></item>", i%12, i, i+1)
	}
	doc.WriteString("</catalog>")
	for _, tc := range []struct {
		name  string
		query func(i int) string
	}{
		{"predicated", func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10) }},
		{"nfa", func(i int) string { return fmt.Sprintf("//catalog/item/f%d", i) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The ids and texts are the caller's, built first so that what is
			// measured is what the matcher adds to them.
			ids, texts := make([]string, n), make([]string, n)
			for i := range ids {
				ids[i], texts[i] = fmt.Sprintf("s%d", i), tc.query(i)
			}
			perSub := func(m interface {
				Add(id, querySrc string) error
				MatchString(xml string) ([]string, error)
			}, docs int) float64 {
				before := liveHeap()
				for i := range ids {
					if err := m.Add(ids[i], texts[i]); err != nil {
						t.Fatal(err)
					}
				}
				// Sequential calls take the pool's replicas in turn.
				for d := 0; d < docs; d++ {
					if _, err := m.MatchString(doc.String()); err != nil {
						t.Fatal(err)
					}
				}
				held := liveHeap()
				runtime.KeepAlive(m)
				return float64(held-before) / n
			}
			set := perSub(NewFilterSet(), 1)
			pool := perSub(NewFilterPool(workers), workers)
			t.Logf("%s: FilterSet %.0f B, FilterPool(%d) %.0f B per subscription (%.2f×)", tc.name, set, workers, pool, pool/set)
			if pool > 1.15*set {
				t.Errorf("%s: FilterPool(%d) holds %.0f B per subscription, %.2f× FilterSet's %.0f B; want at most 1.15×",
					tc.name, workers, pool, pool/set, set)
			}
		})
	}
}
