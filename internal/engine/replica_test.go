package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestTupleBlockFillsCacheLines holds tupleBlock to the tuple's size: a
// scope's children array, written by one matcher of a pool while the others
// run on other cores, must fill whole 64-byte cache lines.
func TestTupleBlockFillsCacheLines(t *testing.T) {
	if b := unsafe.Sizeof(tuple{}) * tupleBlock; b%64 != 0 {
		t.Fatalf("%d tuples are %d bytes, not whole 64-byte cache lines", tupleBlock, b)
	}
}

// shareCase is a standing set and a corpus for TestMatchersShareIndexRace,
// with one subscription to add and one to remove between waves. refill
// adds a cold-memo wave: before it every subscription is removed and added
// back, so every state is unlinked and linked anew and the engines race to
// fill a memo that holds nothing but the start set.
type shareCase struct {
	name    string
	subs    []churnSub
	docs    [][]byte
	added   churnSub
	removed string
	refill  bool
}

// fanoutShape is the benchmark's fanout-pred: 1,000 predicated
// subscriptions on ten prefixes, one predicate group each, over catalogs of
// 40 items carrying every one of 80 leaf names once.
func fanoutShape(rng *rand.Rand) shareCase {
	c := shareCase{name: "fanout-pred", added: churnSub{id: "late", src: "//catalog/item[priority > 4]/f3"}, removed: "s17"}
	for i := 0; i < 1000; i++ {
		c.subs = append(c.subs, churnSub{id: fmt.Sprintf("s%d", i), src: fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10)})
	}
	for d := 0; d < 12; d++ {
		var b strings.Builder
		b.WriteString("<catalog>")
		names := rng.Perm(80)
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", rng.Intn(12), names[2*i], names[2*i+1])
		}
		b.WriteString("</catalog>")
		c.docs = append(c.docs, []byte(b.String()))
	}
	return c
}

// serveShape is the benchmark's serve: 32 subscriptions cycled from linear,
// predicated and never-matching templates, the first half extracting, over
// news feeds each flagged with one keyword. Its mutations are on the merged
// NFA, whose memo every engine reads, and its cold-memo wave has both routes
// race to fill the /news/item state they share.
func serveShape(rng *rand.Rand) shareCase {
	flags := []string{"go", "xml", "streams", "theory"}
	c := shareCase{name: "serve", added: churnSub{id: "late", src: "/news/item/body/p", extract: true}, removed: "s5", refill: true}
	for cycle := 0; cycle < 4; cycle++ {
		for _, src := range []string{
			"/news/item",
			"/news/item/title",
			"/news//p",
			fmt.Sprintf("/news/item[priority > %d]", 2+2*cycle),
			fmt.Sprintf("/news/item[keyword = %q]", flags[cycle]),
			"/news/*/keyword",
			"/feed/entry",
			"//item[keyword]/body",
		} {
			n := len(c.subs)
			c.subs = append(c.subs, churnSub{id: fmt.Sprintf("s%d", n), src: src, extract: n < 16})
		}
	}
	for d := 0; d < 12; d++ {
		var b strings.Builder
		b.WriteString("<news>")
		for i := 0; i < 25+rng.Intn(20); i++ {
			kw := flags[d%len(flags)]
			if rng.Intn(3) > 0 {
				kw = "databases"
			}
			fmt.Fprintf(&b, "<item><title>t%d</title><keyword>%s</keyword><priority>%d</priority><body><p>x</p></body></item>", i, kw, rng.Intn(10))
		}
		b.WriteString("</news>")
		c.docs = append(c.docs, []byte(b.String()))
	}
	return c
}

// verdict is what a document gave: the matched ids and, on the buffered
// path, the fragments' ids and bytes.
func verdict(out Outcome, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := fmt.Sprint(out.IDs)
	for _, f := range out.Frags {
		s += fmt.Sprintf(" %s=%s", f.ID, f.Data)
	}
	return s
}

// TestMatchersShareIndexRace: engines over one index match documents
// concurrently, each writing only its own state — the trie and the automaton
// are read, and the symbol table and the automaton's DFA memo are added to
// under their own locks — and every verdict is the one a lone engine, which
// is what a FilterSet holds, gives for the document. Between waves an Add
// and a Remove patch the index once, and every engine sees them at its next
// document; a refilled case then empties and refills the index for a wave
// on a cold memo. Under -race any other write by matching to anything shared, such
// as a free list kept on a state's hold or a memo row grown in place, is a
// data race here.
func TestMatchersShareIndexRace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []shareCase{fanoutShape(rng), serveShape(rng)} {
		t.Run(c.name, func(t *testing.T) {
			lone, shared := New(), New()
			for _, s := range c.subs {
				if err := s.addTo(lone); err != nil {
					t.Fatal(err)
				}
				if err := s.addTo(shared); err != nil {
					t.Fatal(err)
				}
			}
			matchers := []*Engine{shared, shared.Replica(), shared.Replica()}
			waves := 3
			if c.refill {
				waves = 4
			}
			for wave := 0; wave < waves; wave++ {
				want := make([]string, len(c.docs))
				wantIDs := make([]string, len(c.docs))
				for i, doc := range c.docs {
					out, err := lone.MatchBytes(nil, doc, CaptureSlice)
					want[i] = verdict(out, err)
					out, err = lone.MatchReader(nil, bytes.NewReader(doc), 256, CaptureOff)
					wantIDs[i] = verdict(out, err)
				}
				var wg sync.WaitGroup
				for k, m := range matchers {
					wg.Add(1)
					go func(k int, m *Engine) {
						defer wg.Done()
						for pass := 0; pass < 2; pass++ {
							for j := range c.docs {
								i := (j*(k+1) + pass) % len(c.docs) // each engine its own order
								if got := verdict(m.MatchBytes(nil, c.docs[i], CaptureSlice)); got != want[i] {
									t.Errorf("wave %d, engine %d, doc %d: MatchBytes %s, a lone engine %s", wave, k, i, got, want[i])
								}
								if got := verdict(m.MatchReader(nil, bytes.NewReader(c.docs[i]), 256, CaptureOff)); got != wantIDs[i] {
									t.Errorf("wave %d, engine %d, doc %d: MatchReader %s, a lone engine %s", wave, k, i, got, wantIDs[i])
								}
							}
						}
					}(k, m)
				}
				wg.Wait()
				// The mutation goes through one engine; the others share it.
				via := matchers[wave%len(matchers)]
				if wave == 0 {
					if err := c.added.addTo(lone); err != nil {
						t.Fatal(err)
					}
					if err := c.added.addTo(via); err != nil {
						t.Fatal(err)
					}
				} else if wave == 1 {
					if !lone.Remove(c.removed) || !via.Remove(c.removed) {
						t.Fatalf("%s is not subscribed", c.removed)
					}
				} else if wave == 2 && c.refill {
					for _, e := range []*Engine{lone, via} {
						for _, id := range e.IDs() {
							e.Remove(id)
						}
						for _, s := range append(slices.Clone(c.subs), c.added) {
							if s.id != c.removed {
								if err := s.addTo(e); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					if st := via.Stats(); st.DFAStates != 1 || st.Subscriptions != len(c.subs) {
						t.Fatalf("refilled: %d subscriptions, and the memo holds %d item sets, not just the start set", st.Subscriptions, st.DFAStates)
					}
				}
				for k, m := range matchers {
					if !slices.Equal(m.IDs(), lone.IDs()) {
						t.Fatalf("wave %d: engine %d holds %v, the lone engine %v", wave, k, m.IDs(), lone.IDs())
					}
				}
			}
		})
	}
}
