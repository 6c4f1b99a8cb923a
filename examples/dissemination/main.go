// Dissemination: the selective-dissemination workload that motivates the
// paper's introduction (Altinel & Franklin's XFilter scenario, ref [1]):
// a stream of documents matched against many standing subscriptions. The
// subscriptions are compiled into ONE shared engine (a prefix-sharing
// combined NFA, each subscription an output of it, plus a shared frontier
// trie deciding the predicated ones), so each feed document is tokenized
// and evaluated in a single pass whose per-event cost depends on how much
// structure the subscriptions share — not on how many there are.
//
// Feed documents arrive as byte slices and go through MatchBytes, the
// interned-symbol fast path: names are interned once into the engine's
// shared symbol table and every layer dispatches on integer symbols, so
// the steady-state matching loop allocates nothing.
//
// The closing section matches a feed on the document-parallel FilterPool
// (N engines sharing one subscription index, matching whole documents
// concurrently) and exits with an error unless every document's ids are
// the sequential FilterSet's. How fast either runs is the benchmark's
// to measure (bench/), not the example's.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"streamxpath"
)

// subscriptions returns the example's standing workload: a few named
// predicated subscriptions plus a 500-strong crowd of topic watchers
// sharing the //news/item prefix, which the engine's index materializes
// exactly once.
func subscriptions() []struct{ user, q string } {
	subs := []struct{ user, q string }{
		{"alice", `//item[keyword = "go" and priority > 6]`},
		{"bob", `//item[keyword = "xml"]`},
		{"carol", `//item[priority > 8]`},
		{"dave", `//item[keyword = "theory" and .//p]`},
		{"erin", `//item[contains(title, "breaking")]`},
	}
	for i := 0; i < 500; i++ {
		subs = append(subs, struct{ user, q string }{
			fmt.Sprintf("crowd%03d", i), fmt.Sprintf("//news/item/topic%d", i),
		})
	}
	return subs
}

func main() {
	set := streamxpath.NewFilterSet()
	for _, s := range subscriptions() {
		if err := set.Add(s.user, s.q); err != nil {
			log.Fatalf("%s: %v", s.user, err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	keywords := []string{"go", "xml", "theory", "systems"}
	fmt.Printf("incoming feed -> notified subscribers (%d standing subscriptions)\n", set.Len())
	fmt.Println(strings.Repeat("-", 60))
	for i := 0; i < 8; i++ {
		doc := makeFeed(rng, i, keywords)
		notified, err := set.MatchBytes(doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("doc %d (%d bytes) -> %v\n", i, len(doc), notified)
	}
	// Taken here: the work counters describe the last document matched,
	// and the documents below are a different workload.
	st := set.Stats()

	// Fragment extraction: a subscription registered with AddExtract gets
	// the matched element's whole subtree back alongside the verdict —
	// the content-based-routing primitive (deliver the story itself, not
	// just the fact that it matched). MatchBytesResult returns the
	// fragment as a zero-copy subslice of the document buffer.
	if err := set.AddExtract("router", `//item[priority > 7]`); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		doc := makeFeed(rng, 200+i, keywords)
		res, err := set.MatchBytesResult(doc)
		if err != nil {
			log.Fatal(err)
		}
		if frag := res.Fragment("router"); frag != nil {
			fmt.Printf("\nextracted for router (doc-order-first match of %d ids):\n  %s\n",
				len(res.MatchedIDs), frag)
			break
		}
	}
	set.Remove("router")

	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("shared engine state:")
	fmt.Printf("  subscriptions:     %d outputs of the combined NFA (%d ungated, %d gated by the frontier trie)\n",
		st.Subscriptions, st.NFARouted, st.TrieRouted)
	fmt.Printf("  location steps:    %d across all subscriptions\n", st.SpineSteps)
	fmt.Printf("  shared states:     %d (prefix sharing: %.1fx)\n",
		st.SharedStates, float64(st.SpineSteps)/float64(st.SharedStates))
	fmt.Printf("  lazy DFA:          %d states, %d memoized transitions\n", st.DFAStates, st.DFATransitions)
	fmt.Printf("  predicate groups:  %d (steps differing only in a constant, evaluated as one; the largest has %d)\n", st.PredGroups, st.LargestGroup)
	fmt.Printf("  last doc:          %d tuple visits, %d frontier inserts, %d group probes, peak %d tuples, peak buffer %dB\n",
		st.TupleVisits, st.FrontierInserts, st.GroupProbes, st.PeakTuples, st.PeakBufferBytes)

	// The standing workload can change between documents.
	set.Remove("bob")
	if err := set.Add("frank", `//item[priority > 2 and keyword = "systems"]`); err != nil {
		log.Fatal(err)
	}
	notified, err := set.MatchBytes(makeFeed(rng, 99, keywords))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter Remove(bob)+Add(frank), next doc -> %v\n", notified)

	// Scaling out: the same subscriptions on a FilterPool, which matches
	// whole documents concurrently on engines sharing one index. Whichever
	// engine runs a document, its ids are the sequential FilterSet's.
	const workers = 4
	pool := streamxpath.NewFilterPool(workers)
	for _, s := range subscriptions() {
		if err := pool.Add(s.user, s.q); err != nil {
			log.Fatal(err)
		}
	}
	pool.Remove("bob")
	if err := pool.Add("frank", `//item[priority > 2 and keyword = "systems"]`); err != nil {
		log.Fatal(err)
	}
	feed := make([][]byte, 64)
	want := make([][]string, len(feed))
	for i := range feed {
		feed[i] = makeFeed(rng, 300+i, keywords)
		ids, err := set.MatchBytes(feed[i])
		if err != nil {
			log.Fatal(err)
		}
		want[i] = slices.Clone(ids) // the set reuses its id slice
	}
	got := make([][]string, len(feed))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(feed); i += workers {
				ids, err := pool.MatchBytes(feed[i])
				if err != nil {
					log.Fatal(err)
				}
				got[i] = ids
			}
		}()
	}
	wg.Wait()
	for i := range feed {
		if !slices.Equal(got[i], want[i]) {
			log.Fatalf("pool: doc %d -> %v, sequential FilterSet -> %v", i, got[i], want[i])
		}
	}
	fmt.Println(strings.Repeat("-", 60))
	fmt.Printf("FilterPool of %d engines, %d documents from %d goroutines: the sequential FilterSet's ids for every one\n",
		pool.Workers(), len(feed), workers)
}

// makeFeed builds one feed document with a few items, as raw bytes for
// the MatchBytes fast path.
func makeFeed(rng *rand.Rand, id int, keywords []string) []byte {
	var b strings.Builder
	b.WriteString("<news>")
	for j := 0; j < 3; j++ {
		title := fmt.Sprintf("story %d-%d", id, j)
		if rng.Intn(4) == 0 {
			title = "breaking: " + title
		}
		fmt.Fprintf(&b, "<item><title>%s</title><keyword>%s</keyword><priority>%d</priority><topic%d/><body><p>%s</p></body></item>",
			title, keywords[rng.Intn(len(keywords))], rng.Intn(10), rng.Intn(500), strings.Repeat("text ", 10))
	}
	b.WriteString("</news>")
	return []byte(b.String())
}
