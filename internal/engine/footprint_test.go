//go:build !race

package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// heapAfterGC is the live heap: HeapAlloc after two collections, the second
// of which frees what the first one's finalizers and sweep left behind.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSubscriptionFootprint pins what a standing subscription costs to hold:
// its entries in the shared index and the subscription record, not the parse
// tree the index was built from nor the compiled program it once went
// through (2.2 KB on the trie route and 0.85 KB on the NFA route while both
// were kept). The shapes
// are the benchmark's: fanout-pred's 1,000 thresholds × leaf names and churn's
// one leaf name per subscription, and the two alternating below one prefix.
// Then a long replacement churn, documents
// flowing, must leave the heap where it was: freed state slots, latch and
// scope ids, step keys, result slots and item sets are all handed out
// again. The recycling row replaces each subscription by a text never seen
// before, whose steps need a fresh step key, fresh states of the merged NFA
// and a predicate group of their own, with its scope id.
func TestSubscriptionFootprint(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name  string
		query func(i int) string
		limit float64 // bytes per subscription
		fresh bool    // the replacements' texts are query(n), query(n+1), …
	}{
		{"fanout-pred", func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10) }, 350, false},
		{"churn", func(i int) string { return fmt.Sprintf("//catalog/item/f%d", i) }, 370, false},
		// Both kinds of output below one prefix: an ungated leaf beside a
		// gated one, below a predicated item.
		{"mixed", func(i int) string {
			if i%2 == 0 {
				return fmt.Sprintf("//catalog/item/f%d", i/2)
			}
			return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/20)
		}, 310, false},
		{"recycling", func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/g%d[v > %d]", i%10, i, i%7) }, 1900, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The texts and ids are the caller's; they are built first so that
			// the measurement is of what the engine adds to them.
			ids, texts := make([]string, n+5000), make([]string, n)
			if tc.fresh {
				texts = make([]string, n+5000)
			}
			for i := range ids {
				ids[i] = fmt.Sprintf("s%d", i)
			}
			for i := range texts {
				texts[i] = tc.query(i)
			}
			_, doc := churnEngine(t, 0)
			before := heapAfterGC()
			e := New()
			for i := 0; i < n; i++ {
				mustAdd(t, e, ids[i], texts[i])
			}
			held := heapAfterGC()
			per := float64(held-before) / n
			t.Logf("%s: %.0f bytes per subscription", tc.name, per)
			if per > tc.limit {
				t.Errorf("%s: a subscription holds %.0f bytes, want at most %.0f", tc.name, per, tc.limit)
			}
			want := run(t, e, doc)
			// Each replacement gives back what the next takes: the spaces
			// the per-engine vectors are sized by stay where they are.
			spaces := func() [4]int {
				return [4]int{len(e.subs), int(e.tr.ids.n), int(e.tr.sids.n), int(e.tr.keys.n)}
			}
			sized := spaces()
			warm := heapAfterGC()
			for i := 0; i < 5000; i++ {
				if !e.Remove(ids[i]) {
					t.Fatalf("%s is not subscribed", ids[i])
				}
				if tc.fresh {
					mustAdd(t, e, ids[n+i], texts[n+i])
				} else {
					mustAdd(t, e, ids[n+i], texts[i%n])
				}
				if i%16 == 0 {
					if got := run(t, e, doc); len(got) != len(want) {
						t.Fatalf("after %d replacements: %d matches, want %d", i+1, len(got), len(want))
					}
				}
			}
			run(t, e, doc)
			if got := spaces(); got != sized {
				t.Errorf("%s: result slots, latch ids, scope ids and step keys grew from %v to %v", tc.name, sized, got)
			}
			// A slice that doubled once during the churn is slack, not growth:
			// allow a twentieth of what the set holds.
			if after := heapAfterGC(); after > warm+(held-before)/20 {
				t.Errorf("%s: 5,000 replacements grew the heap from %d to %d bytes", tc.name, warm, after)
			}
			if st := e.Stats(); st.Rebuilds != 0 || st.Subscriptions != n {
				t.Errorf("%s: rebuilds=%d subscriptions=%d, want 0 and %d", tc.name, st.Rebuilds, st.Subscriptions, n)
			}
		})
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMatcherHoldsNoVocabulary: what a matcher allocates for a document is
// sized by the document's matching state, not by the names the engine's
// symbol table has accumulated. After one document of 100,000 distinct names
// and a late //a[zzz], the first match of <a k="1"><zzz/><b/></a> on the
// engine and on two replicas allocates a few kilobytes each (2.4 MB each
// while the predicate frontier was a dense index by symbol, sized to the
// whole table at its first predicate tuple past it; 0.4 MB while the
// tokenizer found duplicate attributes through a vector by symbol, which k,
// interned after the 100,000, sized). The shared memo's transitions on the
// probe's names are made first, through a third replica: a memo row is
// indexed by symbol, and what it costs is the index's, paid once. The
// reader path then reads the probe through the tokenizer the buffered path
// warmed, and adds only its window: the first read's 4 KiB, under what a
// ≈ 5 KB document grows it to (64 KiB, the chunk size, while every read
// asked for the chunk size).
func TestMatcherHoldsNoVocabulary(t *testing.T) {
	e := New()
	mustAdd(t, e, "b", "//a[b]")
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(&doc, "<n%d/>", i)
	}
	doc.WriteString("</r>")
	if _, err := e.MatchBytes(nil, []byte(doc.String()), CaptureOff); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, e, "zzz", "//a[zzz]")
	r1, r2, warm := e.Replica(), e.Replica(), e.Replica()
	probe := []byte(`<a k="1"><zzz/><b/></a>`)
	check := func(out Outcome, err error) {
		if err != nil || len(out.IDs) != 2 {
			t.Fatalf("matched %v, %v; want both", out.IDs, err)
		}
	}
	match := func(e *Engine) { check(e.MatchBytes(nil, probe, CaptureOff)) }
	match(warm)
	for i, e := range []*Engine{e, r1, r2} {
		b := allocated(func() { match(e) })
		t.Logf("engine %d: the first match allocated %d bytes", i, b)
		if b >= 64<<10 {
			t.Errorf("engine %d: the first match allocated %d bytes, want under 64 KiB", i, b)
		}
	}
	r := bytes.NewReader(probe)
	b := allocated(func() { check(e.MatchReader(nil, r, 0, CaptureOff)) })
	t.Logf("engine 0: the first MatchReader allocated %d bytes", b)
	if limit := 8<<10 + 4<<10; b >= uint64(limit) {
		t.Errorf("engine 0: the first MatchReader allocated %d bytes, want under %d", b, limit)
	}
}

// TestMemoRowsGrowByDoubling: a memo row, indexed by symbol, doubles as a
// document interns names past its end, so what matching one document of N
// distinct names allocates is linear in N. Sized to the symbol table
// instead, each batch of new names copied the whole row: 337 MB at 50,000
// names and 1,300 MB at 100,000, where doubling allocates 19 and 39.
func TestMemoRowsGrowByDoubling(t *testing.T) {
	match := func(n int) uint64 {
		e := New()
		mustAdd(t, e, "b", "//a[b]")
		var doc strings.Builder
		doc.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&doc, "<n%d/>", i)
		}
		doc.WriteString("</r>")
		return allocated(func() {
			if _, err := e.MatchBytes(nil, []byte(doc.String()), CaptureOff); err != nil {
				t.Fatal(err)
			}
		})
	}
	half, full := match(50_000), match(100_000)
	t.Logf("50,000 names: %d bytes; 100,000: %d", half, full)
	if full >= 3*half {
		t.Errorf("twice the names allocated %.1f times the bytes (%d, %d), want under 3", float64(full)/float64(half), half, full)
	}
}
