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
// template pool used across the parallel equivalence tests: linear
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

// TestParallelFilterSetEquivalenceRandomized is the tentpole correctness
// gate: across shard counts 1/2/8, randomized subscription sets matched
// against randomized document streams must return exactly the sequential
// FilterSet's answer — same ids, same insertion order — document after
// document, through Add/Remove churn.
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

// TestFilterPoolEquivalenceRandomized checks the document-parallel mode
// against the sequential FilterSet on the same randomized workloads.
func TestFilterPoolEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 20; trial++ {
		seq := streamxpath.NewFilterSet()
		pool := streamxpath.NewFilterPool(3)
		for i := 0; i < 2+rng.Intn(10); i++ {
			id := fmt.Sprintf("s%d", i)
			src := randomSubscription(rng)
			if err := seq.Add(id, src); err != nil {
				t.Fatal(err)
			}
			if err := pool.Add(id, src); err != nil {
				t.Fatal(err)
			}
		}
		docs := make([][]byte, 8)
		for i := range docs {
			docs[i] = []byte(randomCatalog(rng))
		}
		want := make([][]string, len(docs))
		for i, doc := range docs {
			ids, err := seq.MatchBytes(doc)
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
				if !reflect.DeepEqual(append([]string{}, got...), want[i]) {
					t.Errorf("trial %d doc %d: pool %v != sequential %v", trial, i, got, want[i])
				}
			}(i, doc)
		}
		wg.Wait()
	}
}

// TestParallelFilterSetConcurrentMatch exercises the documented
// concurrency contract under the race detector: Match calls from many
// goroutines serialize safely, and Add/Remove between matches is safe.
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

// TestParallelFilterSetMatchVariants covers MatchString/MatchReader and
// the malformed-document error paths of the parallel entry points.
func TestParallelFilterSetMatchVariants(t *testing.T) {
	par := streamxpath.NewParallelFilterSet(2)
	defer par.Close()
	if err := par.Add("a", "//item"); err != nil {
		t.Fatal(err)
	}
	doc := "<feed><item/></feed>"
	ids, err := par.MatchString(doc)
	if err != nil || !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("MatchString: %v %v", ids, err)
	}
	ids, err = par.MatchReader(strings.NewReader(doc))
	if err != nil || !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("MatchReader: %v %v", ids, err)
	}
	ids, err = par.MatchString("<feed><other/></feed>")
	if err != nil || ids == nil || len(ids) != 0 {
		t.Fatalf("empty result must be non-nil and empty: %v %v", ids, err)
	}
	if _, err := par.MatchString("<feed><item></feed>"); err == nil {
		t.Fatal("malformed document should error")
	}
	if _, err := par.MatchString(doc); err != nil {
		t.Fatalf("recovery after malformed document: %v", err)
	}
}
