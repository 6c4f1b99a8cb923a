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
// the steady-state matching loop allocates nothing — which the
// throughput report at the end measures on this very workload.
//
// The closing section scales the same workload out across cores with the
// document-parallel FilterPool (N engines sharing one subscription index,
// matching whole documents concurrently).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

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

	// Throughput of the warm interned-symbol fast path on this workload.
	doc := makeFeed(rng, 100, keywords)
	const iters = 5000
	if _, err := set.MatchBytes(doc); err != nil { // warm DFA rows and scratch
		log.Fatal(err)
	}
	events := set.Stats().Events
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := set.MatchBytes(doc); err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	total := float64(events) * iters
	fmt.Printf("\nwarm fast path: %d docs x %d trie events: %.2fM events/sec, %.4f allocs/event\n",
		iters, events, total/elapsed.Seconds()/1e6, float64(m1.Mallocs-m0.Mallocs)/total)

	// Scaling out: the same subscriptions and feed on the pool, which
	// matches whole documents concurrently on engine replicas and returns
	// exactly the sequential ids. On a multi-core machine it beats the
	// sequential number; with GOMAXPROCS=1 it only shows its
	// synchronization overhead.
	workers := runtime.GOMAXPROCS(0)
	fmt.Println(strings.Repeat("-", 60))
	fmt.Printf("scaling out across %d worker(s):\n", workers)

	seqRate := float64(iters) / elapsed.Seconds()
	fmt.Printf("  sequential FilterSet:      %8.0f docs/sec\n", seqRate)

	pool := streamxpath.NewFilterPool(workers)
	for _, s := range subscriptions() {
		if err := pool.Add(s.user, s.q); err != nil {
			log.Fatal(err)
		}
	}
	// Warm every replica (the idle ring is FIFO, so this visits each).
	for w := 0; w < pool.Workers(); w++ {
		if _, err := pool.MatchBytes(doc); err != nil {
			log.Fatal(err)
		}
	}
	start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/workers; i++ {
				if _, err := pool.MatchBytes(doc); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	poolRate := float64(iters/workers*workers) / time.Since(start).Seconds()
	fmt.Printf("  document pool (%d reps):   %8.0f docs/sec (%.2fx)\n",
		pool.Workers(), poolRate, poolRate/seqRate)
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
