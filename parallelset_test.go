package streamxpath_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamxpath"
)

// randomSubscription draws one subscription source from the mixed
// template pool of the pool equivalence test: linear
// NFA-routed queries, predicated trie-routed queries, wildcards and
// attribute tests.
func randomSubscription(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("//catalog/item/f%d", rng.Intn(6))
	case 1:
		return fmt.Sprintf("/catalog//item[priority > %d]", rng.Intn(8))
	case 2:
		return fmt.Sprintf(`//item[f%d = "v%d"]`, rng.Intn(4), rng.Intn(4))
	case 3:
		return fmt.Sprintf("//item[f%d and priority < %d]/f%d", rng.Intn(4), rng.Intn(8), rng.Intn(4))
	case 4:
		return "//*[priority]"
	default:
		return fmt.Sprintf(`//item[@id = "%d"]`, rng.Intn(5))
	}
}

// randomCatalog builds a feed document matching the template vocabulary.
func randomCatalog(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 1+rng.Intn(8); j++ {
		fmt.Fprintf(&b, `<item id="%d"><priority>%d</priority>`, rng.Intn(5), rng.Intn(10))
		for k := 0; k < rng.Intn(4); k++ {
			fmt.Fprintf(&b, "<f%d>v%d</f%d>", k, rng.Intn(4), k)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return b.String()
}

// TestFilterPoolEquivalenceRandomized checks the replica pool against the
// sequential FilterSet at 1, 2 and 8 replicas: randomized subscription sets
// matched against randomized documents, each round's documents concurrently,
// must return exactly the sequential answer — same ids, same insertion
// order — through Add/Remove churn between rounds.
func TestFilterPoolEquivalenceRandomized(t *testing.T) {
	for _, replicas := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(600 + replicas)))
			for trial := 0; trial < 20; trial++ {
				seq := streamxpath.NewFilterSet()
				pool := streamxpath.NewFilterPool(replicas)
				add := func(id, src string) {
					if err := seq.Add(id, src); err != nil {
						t.Fatal(err)
					}
					if err := pool.Add(id, src); err != nil {
						t.Fatal(err)
					}
				}
				n := 2 + rng.Intn(12)
				for i := 0; i < n; i++ {
					add(fmt.Sprintf("s%d", i), randomSubscription(rng))
				}
				for round := 0; round < 3; round++ {
					docs := make([][]byte, 6)
					want := make([][]string, len(docs))
					for i := range docs {
						docs[i] = []byte(randomCatalog(rng))
						ids, err := seq.MatchBytes(docs[i])
						if err != nil {
							t.Fatal(err)
						}
						want[i] = append([]string{}, ids...)
					}
					var wg sync.WaitGroup
					for i, doc := range docs {
						wg.Add(1)
						go func(i int, doc []byte) {
							defer wg.Done()
							got, err := pool.MatchBytes(doc)
							if err != nil {
								t.Errorf("doc %d: %v", i, err)
								return
							}
							if !reflect.DeepEqual(got, want[i]) {
								t.Errorf("trial %d round %d doc %d: pool %v != sequential %v\ndoc: %s",
									trial, round, i, got, want[i], doc)
							}
						}(i, doc)
					}
					wg.Wait()
					if t.Failed() {
						return
					}
					// Churn between rounds, identically on both sets.
					victim := fmt.Sprintf("s%d", rng.Intn(n))
					if seq.Remove(victim) != pool.Remove(victim) {
						t.Fatalf("Remove(%s) verdicts differ", victim)
					}
					add(fmt.Sprintf("extra%d", round), randomSubscription(rng))
				}
			}
		})
	}
}

// TestParallelFilterSetEquivalenceRandomized keeps the deprecated
// ParallelFilterSet name honest: at 1, 2 and 8 workers, randomized
// subscription sets matched document after document must return exactly
// the sequential FilterSet's answer — same ids, same insertion order —
// through Add/Remove churn between documents.
func TestParallelFilterSetEquivalenceRandomized(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(500 + shards)))
			for trial := 0; trial < 25; trial++ {
				seq := streamxpath.NewFilterSet()
				par := streamxpath.NewParallelFilterSet(shards)
				n := 2 + rng.Intn(12)
				for i := 0; i < n; i++ {
					id := fmt.Sprintf("s%d", i)
					src := randomSubscription(rng)
					if err := seq.Add(id, src); err != nil {
						t.Fatal(err)
					}
					if err := par.Add(id, src); err != nil {
						t.Fatal(err)
					}
				}
				for d := 0; d < 4; d++ {
					doc := []byte(randomCatalog(rng))
					want, err := seq.MatchBytes(doc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := par.MatchBytes(doc)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d doc %d: parallel %v != sequential %v\ndoc: %s",
							trial, d, got, want, doc)
					}
					// Churn between documents, identically on both sets.
					if d == 1 && n > 2 {
						victim := fmt.Sprintf("s%d", rng.Intn(n))
						if seq.Remove(victim) != par.Remove(victim) {
							t.Fatalf("Remove(%s) verdicts differ", victim)
						}
						src := randomSubscription(rng)
						id := fmt.Sprintf("extra%d", d)
						if err := seq.Add(id, src); err != nil {
							t.Fatal(err)
						}
						if err := par.Add(id, src); err != nil {
							t.Fatal(err)
						}
					}
				}
				par.Close()
			}
		})
	}
}

// TestParallelFilterSetConcurrentMatch exercises the documented
// concurrency contract through the deprecated name under the race
// detector: Match calls from many goroutines run safely, and Add/Remove
// between matches is safe.
func TestParallelFilterSetConcurrentMatch(t *testing.T) {
	par := streamxpath.NewParallelFilterSet(4)
	defer par.Close()
	for i := 0; i < 20; i++ {
		if err := par.Add(fmt.Sprintf("s%d", i), fmt.Sprintf("//catalog/item/f%d", i%6)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(707))
	docs := make([][]byte, 16)
	for i := range docs {
		docs[i] = []byte(randomCatalog(rng))
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, doc := range docs {
					if _, err := par.MatchBytes(doc); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		// Churn strictly between the concurrent match waves.
		par.Remove(fmt.Sprintf("s%d", round))
		if err := par.Add(fmt.Sprintf("r%d", round), "//catalog/item"); err != nil {
			t.Fatal(err)
		}
	}
	if par.Len() != 20 {
		t.Fatalf("Len = %d, want 20", par.Len())
	}
}

// TestFilterPoolMatchVariants covers MatchString/MatchReader and recovery
// from a malformed document on the pool's public entry points.
func TestFilterPoolMatchVariants(t *testing.T) {
	pool := streamxpath.NewFilterPool(2)
	if err := pool.Add("a", "//item"); err != nil {
		t.Fatal(err)
	}
	doc := "<feed><item/></feed>"
	ids, err := pool.MatchString(doc)
	if err != nil || !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("MatchString: %v %v", ids, err)
	}
	ids, err = pool.MatchReader(strings.NewReader(doc))
	if err != nil || !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("MatchReader: %v %v", ids, err)
	}
	ids, err = pool.MatchString("<feed><other/></feed>")
	if err != nil || ids == nil || len(ids) != 0 {
		t.Fatalf("empty result must be non-nil and empty: %v %v", ids, err)
	}
	if _, err := pool.MatchString("<feed><item></feed>"); err == nil {
		t.Fatal("malformed document should error")
	}
	if _, err := pool.MatchString(doc); err != nil {
		t.Fatalf("recovery after malformed document: %v", err)
	}
}
