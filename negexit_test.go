package streamxpath

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"streamxpath/internal/engine"
	"streamxpath/internal/sax"
)

// negexit_test.go covers the negative half of the early-decision story:
// a document that can never match the subscription set must be abandoned
// as early as a matching document is, via the dead-state analysis behind
// Engine.Decided / Filter.Decided — and the stronger predicate must
// never flip a verdict relative to buffered whole-document matching.

// catalogDoc builds a non-matching feed document of at least minBytes:
// a <catalog> of items, disjoint from any /news-rooted subscription.
func catalogDoc(minBytes int) []byte {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; b.Len() < minBytes; i++ {
		fmt.Fprintf(&b, `<item id="%d"><name>n%d</name><priority>%d</priority><note>a &amp; b</note></item>`,
			i%7, i, i%10)
	}
	b.WriteString("</catalog>")
	return []byte(b.String())
}

// newsSubs is a subscription set whose every member is rooted at /news:
// linear NFA-routed, wildcarded, predicated trie-routed, and
// attribute-axis shapes, plus a descendant tail after the dead first
// step. None can match a <catalog> document, and all of them die the
// moment its root element opens.
var newsSubs = map[string]string{
	"deep":   "/news/sports/item",
	"desc":   "/news//item",
	"wild":   "/news/*/headline",
	"pred":   "/news[priority > 5]/item",
	"attr":   `/news/item[@id = "3"]`,
	"leafok": "/news",
}

// assertNegativeExit checks the ReaderStats contract of a negative early
// exit: reading stopped, the decision was negative, and the verdict
// needed well under 10% of the document.
func assertNegativeExit(t *testing.T, label string, rs ReaderStats, docLen int, ids []string) {
	t.Helper()
	if len(ids) != 0 {
		t.Fatalf("%s: unexpected matches %v", label, ids)
	}
	if !rs.EarlyExit {
		t.Fatalf("%s: expected early exit, read %d of %d bytes", label, rs.BytesRead, docLen)
	}
	if !rs.DecidedNegative {
		t.Fatalf("%s: early exit not marked negative: %+v", label, rs)
	}
	if rs.BytesConsumed >= int64(docLen)/10 {
		t.Fatalf("%s: consumed %d bytes, want < 10%% of %d", label, rs.BytesConsumed, docLen)
	}
}

// TestNegativeEarlyExitReaderEntryPoints is the acceptance scenario: a
// /news-only subscription set against a large <catalog> document must
// exit after consuming under 10%% of the input through every reader
// entry point, with verdicts identical to buffered matching.
func TestNegativeEarlyExitReaderEntryPoints(t *testing.T) {
	doc := catalogDoc(1 << 20)

	seq := NewFilterSet()
	for id, q := range newsSubs {
		if err := seq.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	want, err := seq.MatchBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("buffered matching found %v on the disjoint document", want)
	}

	t.Run("FilterSet", func(t *testing.T) {
		res, err := seq.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		assertNegativeExit(t, "FilterSet", res.ReaderStats, len(doc), res.MatchedIDs)
	})

	t.Run("FilterSetSmallChunks", func(t *testing.T) {
		seq.SetChunkSize(4096)
		defer seq.SetChunkSize(0)
		res, err := seq.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		assertNegativeExit(t, "FilterSet/4KiB", res.ReaderStats, len(doc), res.MatchedIDs)
	})

	t.Run("FilterPool", func(t *testing.T) {
		fp := NewFilterPool(2)
		for id, q := range newsSubs {
			if err := fp.Add(id, q); err != nil {
				t.Fatal(err)
			}
		}
		fp.SetChunkSize(4096)
		res, err := fp.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		assertNegativeExit(t, "FilterPool", res.ReaderStats, len(doc), res.MatchedIDs)
	})

	// The deprecated names are FilterPools and must exit just as early.
	for name, newSet := range map[string]func(int) *ParallelFilterSet{
		"ParallelFilterSet": NewParallelFilterSet,
		"AdaptiveFilterSet": NewAdaptiveFilterSet,
	} {
		t.Run(name, func(t *testing.T) {
			ps := newSet(3)
			defer ps.Close()
			for id, q := range newsSubs {
				if err := ps.Add(id, q); err != nil {
					t.Fatal(err)
				}
			}
			ps.SetChunkSize(4096)
			res, err := ps.MatchReaderResult(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			assertNegativeExit(t, name, res.ReaderStats, len(doc), res.MatchedIDs)
		})
	}

	t.Run("Filter", func(t *testing.T) {
		f, err := MustCompile("/news/item").NewFilter()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.MatchedIDs) != 0 {
			t.Fatal("Filter matched the disjoint document")
		}
		rs := res.ReaderStats
		if !rs.EarlyExit || !rs.DecidedNegative {
			t.Fatalf("Filter: want negative early exit, got %+v", rs)
		}
		if rs.BytesConsumed >= int64(len(doc))/10 {
			t.Fatalf("Filter consumed %d bytes, want < 10%% of %d", rs.BytesConsumed, len(doc))
		}
	})
}

// TestNegativeEarlyExitCorpus pins the per-class behavior of the
// dead-state analysis on non-matching documents: disjoint roots die at
// the first start tag; a mixed set exits as soon as its live members
// have matched and the rest are dead; predicate-killed paths on a
// matching root and //-descendant queries are universally live and read
// to end of input with the correct (false) verdict.
func TestNegativeEarlyExitCorpus(t *testing.T) {
	doc := catalogDoc(1 << 20)

	match := func(subs map[string]string) ([]string, ReaderStats) {
		t.Helper()
		s := NewFilterSet()
		for id, q := range subs {
			if err := s.Add(id, q); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return res.MatchedIDs, res.ReaderStats
	}

	t.Run("DisjointRootLinear", func(t *testing.T) {
		ids, rs := match(map[string]string{"a": "/news/item", "b": "/feed/entry/title"})
		assertNegativeExit(t, "linear", rs, len(doc), ids)
	})

	t.Run("DisjointRootPredicated", func(t *testing.T) {
		ids, rs := match(map[string]string{"a": `/news/item[priority > 5]`, "b": `/feed[@kind = "x"]/entry`})
		assertNegativeExit(t, "predicated", rs, len(doc), ids)
	})

	t.Run("MixedLiveAndDead", func(t *testing.T) {
		// //catalog matches at the root element; the /news members are dead
		// at the same moment — the set is fully decided after one tag.
		s := NewFilterSet()
		for id, q := range map[string]string{"live": "//catalog", "dead": "/news/item", "pred": "/news[a]/b"} {
			if err := s.Add(id, q); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if ids := res.MatchedIDs; strings.Join(ids, ",") != "live" {
			t.Fatalf("ids = %v, want [live]", ids)
		}
		rs := res.ReaderStats
		if !rs.EarlyExit || !rs.DecidedNegative {
			t.Fatalf("mixed exit: %+v", rs)
		}
		if rs.BytesConsumed >= int64(len(doc))/10 {
			t.Fatalf("mixed: consumed %d of %d", rs.BytesConsumed, len(doc))
		}
	})

	t.Run("PredicateKilledOnMatchingRoot", func(t *testing.T) {
		// The root element is a candidate, so the predicate scope stays
		// open (a later matching child cannot be ruled out) until the root
		// closes at the document's very end: the verdict is false and
		// essentially the whole input is consumed — the dead-state
		// analysis only saves the trailing end-of-input validation.
		ids, rs := match(map[string]string{"a": `/catalog[@kind = "x"]/item`})
		if len(ids) != 0 {
			t.Fatalf("matched %v", ids)
		}
		if rs.BytesConsumed < int64(len(doc))*95/100 {
			t.Fatalf("predicate-killed path should stay undecided until the root closes: %+v", rs)
		}
	})

	t.Run("DescendantNeverDies", func(t *testing.T) {
		// //news/item can start matching at any depth, so no prefix of any
		// document decides it negatively: the whole input is read.
		ids, rs := match(map[string]string{"a": "//news/item"})
		if len(ids) != 0 {
			t.Fatalf("matched %v", ids)
		}
		if rs.EarlyExit {
			t.Fatalf("descendant query must read to EOF: %+v", rs)
		}
		if rs.BytesConsumed != int64(len(doc)) {
			t.Fatalf("consumed %d of %d", rs.BytesConsumed, len(doc))
		}
	})
}

// randomRootedDoc is randomDissemDoc with a caller-chosen root and some
// structural variety below it, for exercising both matching and
// never-matching documents against the same subscription set.
func randomRootedDoc(rng *rand.Rand, root string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%s>", root)
	for j := 0; j < 1+rng.Intn(6); j++ {
		fmt.Fprintf(&b, `<item id="%d"><priority>%d</priority>`, rng.Intn(5), rng.Intn(10))
		for k := 0; k < rng.Intn(4); k++ {
			fmt.Fprintf(&b, "<f%d>v%d</f%d>", k, rng.Intn(4), k)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "<sports><headline>h%d</headline></sports>", rng.Intn(4))
		}
		b.WriteString("</item>")
	}
	fmt.Fprintf(&b, "</%s>", root)
	return b.String()
}

// TestNegativeEarlyExitEquivalenceRandomized is the differential
// acceptance test of the stronger Decided: across randomized documents
// (roots drawn so negative, positive and mixed exits all occur),
// subscription mixes and chunk sizes, MatchReader must return exactly
// the verdict set of buffered MatchBytes on every entry point.
func TestNegativeEarlyExitEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5004))
	subs := map[string]string{
		"n1": "/news/item",
		"n2": "/news//headline",
		"n3": `/news/item[priority > 4]`,
		"n4": "/news/item/sports/headline",
		"c1": "//catalog/item",
		"c2": `/catalog//item[priority > 4]`,
		"c3": `//item[@id = "2"]`,
		"d1": "//sports/headline",
	}
	s := NewFilterSet()
	pool := NewFilterPool(2)
	for id, q := range subs {
		for _, add := range []func(string, string) error{s.Add, pool.Add} {
			if err := add(id, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	roots := []string{"catalog", "news", "feed", "catalog", "news"}
	for trial := 0; trial < 60; trial++ {
		doc := randomRootedDoc(rng, roots[rng.Intn(len(roots))])
		want, err := s.MatchBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := strings.Join(want, ",")

		s.SetChunkSize(1 + rng.Intn(64))
		res, err := s.MatchReaderResult(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, doc)
		}
		if got := res.MatchedIDs; strings.Join(got, ",") != wantIDs {
			t.Fatalf("trial %d: FilterSet.MatchReader=%v want %v (stats %+v)\ndoc: %s",
				trial, got, want, res.ReaderStats, doc)
		}

		pool.SetChunkSize(1 + rng.Intn(64))
		gotPool, err := pool.MatchReader(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("trial %d pool: %v", trial, err)
		}
		if strings.Join(gotPool, ",") != wantIDs {
			t.Fatalf("trial %d: FilterPool.MatchReader=%v want %v\ndoc: %s", trial, gotPool, want, doc)
		}

		// The standalone filter must agree with the set verdict per query.
		for id, q := range subs {
			f, err := MustCompile(q).NewFilter()
			if err != nil {
				t.Fatal(err)
			}
			f.SetChunkSize(1 + rng.Intn(32))
			res, err := f.MatchReaderResult(strings.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceVerdict(t, q, doc)
			inSet := strings.Contains(","+wantIDs+",", ","+id+",")
			if ok := len(res.MatchedIDs) > 0; ok != inSet || ref != inSet {
				t.Fatalf("trial %d: %s (%s): Filter.MatchReader=%v core=%v set=%v (stats %+v)\ndoc: %s",
					trial, id, q, ok, ref, inSet, res.ReaderStats, doc)
			}
		}
	}
	s.SetChunkSize(0)
}

// TestEngineDecidedLatchesFinalVerdicts drives the shared engine event
// by event and checks the core contract of the dead-state analysis
// directly: the moment Decided() first reports true, the per-
// subscription verdict vector must already equal the end-of-document
// one — on every prefix of every randomized document, matched flags may
// only be missing from the snapshot if they never latch at all.
func TestEngineDecidedLatchesFinalVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(5005))
	queries := []string{
		"/news/item", "/news//headline", "/news/item[priority > 4]",
		"//catalog/item", "/catalog//item[priority > 6]", `//item[@id = "1"]`,
		"//sports/headline", "/catalog/item/f1", "/feed/entry",
	}
	roots := []string{"catalog", "news", "feed"}
	for trial := 0; trial < 80; trial++ {
		e := engine.New()
		n := 2 + rng.Intn(len(queries)-1)
		perm := rng.Perm(len(queries))
		for i := 0; i < n; i++ {
			src := queries[perm[i]]
			if err := e.Add(fmt.Sprintf("q%d", i), MustCompile(src).q); err != nil {
				t.Fatal(err)
			}
		}
		doc := randomRootedDoc(rng, roots[rng.Intn(len(roots))])
		e.Reset()
		var snapshot []string
		decidedAt, events := -1, 0
		// Event by event on the shipped path: the byte tokenizer into the
		// engine's one event surface.
		tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
		for ; ; events++ {
			ev, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ProcessBytes(ev); err != nil {
				t.Fatal(err)
			}
			if decidedAt < 0 && e.Decided() {
				decidedAt = events
				snapshot = append([]string(nil), e.MatchedIDs()...)
			}
		}
		final := e.MatchedIDs()
		if decidedAt >= 0 && strings.Join(snapshot, ",") != strings.Join(final, ",") {
			t.Fatalf("trial %d: Decided at event %d/%d with verdicts %v, final %v\ndoc: %s",
				trial, decidedAt, events, snapshot, final, doc)
		}
	}
}

// TestDecidedNegativeAfterRemove: a FilterSet that removed a subscription
// reports an all-positive early exit as one: DecidedNegative false, because
// every subscription still standing had matched.
func TestDecidedNegativeAfterRemove(t *testing.T) {
	s := NewFilterSet()
	for id, q := range map[string]string{"a": "/r/a", "b": "/r/b"} {
		if err := s.Add(id, q); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Remove("b") {
		t.Fatal("b is not subscribed")
	}
	doc := "<r><a/>" + strings.Repeat("<p/>", 64<<10) + "</r>"
	res, err := s.MatchReaderResult(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if rs := res.ReaderStats; strings.Join(res.MatchedIDs, ",") != "a" || !rs.EarlyExit || rs.DecidedNegative {
		t.Fatalf("ids %v, %+v; want [a] and an all-positive early exit", res.MatchedIDs, rs)
	}
}
