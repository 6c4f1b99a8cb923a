package streamxpath

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// randomDissemDoc builds a random catalog document exercising elements,
// attributes, text predicates and entity-bearing text.
func randomDissemDoc(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 1+rng.Intn(6); j++ {
		fmt.Fprintf(&b, `<item id="%d"><priority>%d</priority>`, rng.Intn(5), rng.Intn(10))
		for k := 0; k < rng.Intn(4); k++ {
			fmt.Fprintf(&b, "<f%d>v%d</f%d>", k, rng.Intn(4), k)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "<note>a &amp; b %d</note>", rng.Intn(3))
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return b.String()
}

// TestMatchBytesEquivalenceRandomized proves the interned byte-slice
// path produces match results identical to the legacy string path, for
// both FilterSet and the standalone Filter, across randomized
// subscription sets and documents — the differential acceptance test of
// this PR's refactor.
func TestMatchBytesEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1712))
	templates := []func() string{
		func() string { return fmt.Sprintf("//catalog/item/f%d", rng.Intn(6)) },
		func() string { return fmt.Sprintf("/catalog//item[priority > %d]", rng.Intn(8)) },
		func() string { return fmt.Sprintf(`//item[f%d = "v%d"]`, rng.Intn(4), rng.Intn(4)) },
		func() string {
			return fmt.Sprintf("//item[f%d and priority < %d]/f%d", rng.Intn(4), rng.Intn(8), rng.Intn(4))
		},
		func() string { return "//*[priority]" },
		func() string { return fmt.Sprintf(`//item[@id = "%d"]`, rng.Intn(5)) },
		func() string { return fmt.Sprintf(`//item[contains(note, "b %d")]`, rng.Intn(3)) },
		func() string { return "//catalog/*/f1" },
	}
	for trial := 0; trial < 60; trial++ {
		s := NewFilterSet()
		srcs := map[string]string{}
		for i := 0; i < 2+rng.Intn(8); i++ {
			id := fmt.Sprintf("s%d", i)
			srcs[id] = templates[rng.Intn(len(templates))]()
			if err := s.Add(id, srcs[id]); err != nil {
				t.Fatal(err)
			}
		}
		// Several documents per set: MatchBytes must stay correct across
		// Reset/reuse, interleaved with the string path.
		for d := 0; d < 4; d++ {
			doc := randomDissemDoc(rng)
			viaBytes, err := s.MatchBytes([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			gotBytes := strings.Join(viaBytes, ",")
			viaString, err := s.MatchString(doc)
			if err != nil {
				t.Fatal(err)
			}
			if gotBytes != strings.Join(viaString, ",") {
				t.Fatalf("trial %d doc %d: MatchBytes=%v MatchString=%v\ndoc: %s\nsubs: %v",
					trial, d, gotBytes, viaString, doc, srcs)
			}
			for id, src := range srcs {
				f, err := MustCompile(src).NewFilter()
				if err != nil {
					t.Fatal(err)
				}
				fb, err := f.MatchBytes([]byte(doc))
				if err != nil {
					t.Fatal(err)
				}
				fs, err := f.MatchString(doc)
				if err != nil {
					t.Fatal(err)
				}
				if fb != fs {
					t.Fatalf("trial %d: %s (%s): Filter.MatchBytes=%v MatchString=%v\ndoc: %s",
						trial, id, src, fb, fs, doc)
				}
				inSet := false
				for _, got := range viaBytes {
					if got == id {
						inSet = true
					}
				}
				ref := referenceVerdict(t, src, doc)
				if inSet != fb || inSet != ref {
					t.Fatalf("trial %d: %s (%s): set=%v standalone=%v core=%v\ndoc: %s",
						trial, id, src, inSet, fb, ref, doc)
				}
			}
		}
	}
}

// TestMatchBytesRandomTrees runs the byte path against serialized random
// trees with the randomized query generator, cross-checking the string
// path on the same filter instance.
func TestMatchBytesRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	names := []string{"a", "b", "c"}
	texts := []string{"v", "5", "12", ""}
	for trial := 0; trial < 80; trial++ {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(6))
		pub, err := Compile(q.String())
		if err != nil {
			t.Fatalf("reparse of generated query %s: %v", q, err)
		}
		f, err := pub.NewFilter()
		if err != nil {
			continue // outside the streamable fragment
		}
		d := workload.RandomTree(rng, names, texts, 5, 3)
		doc, err := sax.SerializeString(d.Events())
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.MatchString(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.MatchBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: query %s doc %s: bytes=%v string=%v", trial, q, doc, got, want)
		}
	}
}

// TestFilterSetMatchBytesZeroAlloc is the acceptance criterion of the
// interned-symbol pipeline: steady-state matching of a predicate-free
// (linear) subscription set through FilterSet.MatchBytes performs zero
// allocations — per event and per document. Every matcher is a ring of
// engines over one index, so the other rows pin what the ring costs: nothing
// on a FilterSet, which appends the ids to a buffer it reuses, and one slice
// grown once on a FilterPool, whose ids are the call's own — plus, for
// MatchString, the call's copy of the document.
func TestFilterSetMatchBytesZeroAlloc(t *testing.T) {
	set, pool := NewFilterSet(), NewFilterPool(2)
	for i := 0; i < 200; i++ {
		for _, m := range []*matcher{&set.matcher, &pool.matcher} {
			if err := m.Add(fmt.Sprintf("s%d", i), fmt.Sprintf("//catalog/item/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j, j+40)
	}
	b.WriteString("</catalog>")
	doc := []byte(b.String())
	r := bytes.NewReader(doc)
	small := NewFilterPool(2)
	for i, q := range []string{"//catalog/item", "//catalog/item/f1", "//catalog/item[priority > 5]"} {
		if err := small.Add(fmt.Sprintf("c%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	const smallDoc = "<catalog><item><priority>7</priority><f1/></item></catalog>"
	// serve's keyword subscriptions: one textual equality group, whose
	// candidates stream through cursors into its sorted constants.
	eqSet := NewFilterSet()
	for _, kw := range []string{"go", "xml", "streams", "theory"} {
		if err := eqSet.Add(kw, fmt.Sprintf("/news/item[keyword = %q]", kw)); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	b.WriteString("<news>")
	keywords := []string{"databases", "go", "systems", "xml", "gopher", "x", "stream"}
	for j := 0; j < 21; j++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>%s</keyword><body><p>lorem ipsum</p></body></item>", j, keywords[j%len(keywords)])
	}
	b.WriteString("</news>")
	news := []byte(b.String())

	for _, row := range []struct {
		name    string
		match   func() ([]string, error)
		matched int
		want    float64
	}{
		{"FilterSet.MatchBytes", func() ([]string, error) { return set.MatchBytes(doc) }, 80, 0},
		{"FilterSet.MatchReader", func() ([]string, error) { r.Reset(doc); return set.MatchReader(r) }, 80, 0},
		{"FilterSet.MatchBytes, equality group", func() ([]string, error) { return eqSet.MatchBytes(news) }, 2, 0},
		{"FilterPool.MatchBytes", func() ([]string, error) { return pool.MatchBytes(doc) }, 80, 1},
		{"FilterPool.MatchString", func() ([]string, error) { return small.MatchString(smallDoc) }, 3, 2},
	} {
		// Warm up every engine: compile the shared index, materialize the
		// lazy DFA rows, grow every scratch buffer.
		for i := 0; i < 3; i++ {
			ids, err := row.match()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != row.matched {
				t.Fatalf("%s: matched %d subscriptions, want %d", row.name, len(ids), row.matched)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := row.match(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != row.want {
			t.Errorf("steady-state linear %s: %v allocs/run, want %v", row.name, allocs, row.want)
		}
	}
}

// TestFilterSetPredicatedZeroAlloc is the same pin for the predicated route,
// on the benchmark's fanout-pred shape — 1,000 subscriptions, ten thresholds
// on each of 100 leaf names: whatever a document's predicate groups hold
// (scopes, tuples, commits held against a member, equality hits) is recycled,
// so a warm match allocates nothing, boolean or with its accounting.
func TestFilterSetPredicatedZeroAlloc(t *testing.T) {
	s := NewFilterSet()
	for i := 0; i < 1000; i++ {
		if err := s.Add(fmt.Sprintf("s%d", i), fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10)); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&b, "<item><f%d/><priority>%d</priority><f%d/></item>", j, j*7%12, j+40)
	}
	b.WriteString("</catalog>")
	doc := []byte(b.String())

	want := -1
	for i := 0; i < 3; i++ {
		ids, err := s.MatchBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = len(ids)
		}
		if len(ids) != want || want == 0 || want == 1000 {
			t.Fatalf("matched %d subscriptions, then %d", want, len(ids))
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.MatchBytes(doc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state predicated MatchBytes: %v allocs/run, want 0", allocs)
	}
	var res MatchResult
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		if res, err = s.MatchBytesResult(doc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state predicated MatchBytesResult: %v allocs/run, want 0", allocs)
	}
	if len(res.MatchedIDs) != want || res.MemStats.GroupProbes != 40 {
		t.Errorf("MatchBytesResult: %d matches, %d group probes; want %d, 40", len(res.MatchedIDs), res.MemStats.GroupProbes, want)
	}
}

// TestFilterSetSkimZeroAlloc: a document that is decided early is only
// validated from there on, and that costs no allocation either — on a
// plain feed and on one whose every body is dense with references, which
// a skim checks without decoding, with no budgets and with the depth and
// token budgets of a server tenant, which the skim enforces on the same
// path. The feeds are the scan workload's: about 256 KB, 8 predicate-free
// subscriptions, every verdict final within the first items. A feed spans
// many pieces of the skim's split, so run at -cpu 1,2,4 the pin holds with
// helpers on zero, one and three other cores; on one core no helper runs
// (Stats().SkimPieces is 0), on more a helper's pieces are adopted in every
// trial the pin counts (skimMallocs).
func TestFilterSetSkimZeroAlloc(t *testing.T) {
	s := NewFilterSet()
	for i, q := range []string{"/news/item", "/news/item/title", "/news//p", "/news/*/keyword",
		"/feed/entry", "//item/body/p", "/news/item/priority", "//keyword"} {
		if err := s.Add(fmt.Sprintf("s%d", i), q); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range []string{"lorem ipsum ", "lorem & ips<m & "} {
		items := make([]workload.NewsItem, 2000)
		for i := range items {
			items[i] = workload.NewsItem{Title: fmt.Sprintf("story %d", i), Keyword: "go", Priority: i % 10,
				Body: strings.Repeat(body, 1+i%5)}
		}
		feed, err := sax.SerializeString(workload.NewsFeed(items).Events())
		if err != nil {
			t.Fatal(err)
		}
		doc := []byte(feed)
		for _, lim := range []Limits{{}, {MaxDepth: 64, MaxTokenBytes: 1 << 16}} {
			s.SetLimits(lim)
			for i := 0; i < 3; i++ {
				res, err := s.MatchBytesResult(doc)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.MatchedIDs) != 7 || res.SkimmedBytes < int64(len(doc)-8<<10) {
					t.Fatalf("%d-byte feed, limits %+v: matched %d, skimmed %d bytes; want 7 and all but the head",
						len(doc), lim, len(res.MatchedIDs), res.SkimmedBytes)
				}
				if pieces := s.Stats().SkimPieces; runtime.GOMAXPROCS(0) == 1 && pieces != 0 {
					t.Fatalf("%d-byte feed on one core: %d pieces validated by helpers, want 0", len(doc), pieces)
				}
			}
			if allocs := skimMallocs(t, s, doc); allocs != 0 {
				t.Errorf("warm MatchBytes on a decided-early %d-byte feed (%q bodies), limits %+v, %d cores: at least %d allocs in every match, want 0",
					len(doc), body, lim, runtime.GOMAXPROCS(0), allocs)
			}
		}
	}
}

// skimMallocs returns the least heap allocations, every goroutine's, of a
// warm match of doc on s at the test's GOMAXPROCS — testing.AllocsPerRun
// sets it to 1, where no helper runs. On more than one core only matches in
// which a helper validated a piece count, so an allocation a helper makes
// per skim or per piece is in every match counted. The least leaves out
// what happens beside a skim now and then: the test framework's
// allocations, and the 96-byte sudog the runtime allocates for a helper
// that parks on the task channel while its P's cache of them, and the
// runtime's central cache, are empty. Those caches fill as helpers park on
// one P and wake on another, over the first thousands of skims at a new
// GOMAXPROCS (a memory profile at -cpu 4 on a 2-core host read about one
// per five skims over the first thousands, none after 30,000), so the
// least is taken over 20 counted matches and then more, up to skimTrials,
// until one allocates nothing.
func skimMallocs(t *testing.T, s *FilterSet, doc []byte) uint64 {
	t.Helper()
	const skimTrials = 5000
	least, counted := ^uint64(0), 0
	var ms runtime.MemStats
	for trial := 0; counted < 20 || least > 0; trial++ {
		if trial == skimTrials {
			if counted < 20 {
				t.Fatalf("%d-byte feed on %d cores: a helper validated a piece in %d of %d matches, want 20",
					len(doc), runtime.GOMAXPROCS(0), counted, trial)
			}
			break
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := s.MatchBytes(doc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if runtime.GOMAXPROCS(0) > 1 && s.Stats().SkimPieces == 0 {
			continue
		}
		least = min(least, ms.Mallocs-before)
		counted++
	}
	t.Logf("%d-byte feed on %d cores: least %d allocs over %d counted matches", len(doc), runtime.GOMAXPROCS(0), least, counted)
	return least
}

// TestFilterMatchBytesSteadyStateAllocs: the standalone Filter's byte
// and reader paths must also be allocation-free once warm on a
// predicate-free query.
func TestFilterMatchBytesSteadyStateAllocs(t *testing.T) {
	f, err := MustCompile("//catalog/item/f3").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("<catalog><item><f1/><f2/></item><item><f3>v</f3></item><item><f4/></item></catalog>")
	r := bytes.NewReader(doc)
	for _, row := range []struct {
		name  string
		match func() (bool, error)
	}{
		{"MatchBytes", func() (bool, error) { return f.MatchBytes(doc) }},
		{"MatchReader", func() (bool, error) { r.Reset(doc); return f.MatchReader(r) }},
	} {
		for i := 0; i < 3; i++ {
			ok, err := row.match()
			if err != nil || !ok {
				t.Fatalf("%s = %v, %v; want true", row.name, ok, err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := row.match(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state Filter.%s: %v allocs/run, want 0", row.name, allocs)
		}
	}
}

// TestFilterSetRecoversFromMalformedDoc: a document that fails
// mid-stream (never reaching endDocument) must not wedge the engine —
// the next Match call starts fresh, on both the byte and reader paths.
func TestFilterSetRecoversFromMalformedDoc(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("a", "//item"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatchBytes([]byte("<news><item>")); err == nil {
		t.Fatal("malformed document should error")
	}
	got, err := s.MatchBytes([]byte("<news><item/></news>"))
	if err != nil {
		t.Fatalf("MatchBytes after malformed doc: %v", err)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("MatchBytes after malformed doc = %v, want [a]", got)
	}
	if _, err := s.MatchString("<news><item>"); err == nil {
		t.Fatal("malformed document should error")
	}
	viaReader, err := s.MatchString("<news><item/></news>")
	if err != nil {
		t.Fatalf("MatchString after malformed doc: %v", err)
	}
	if len(viaReader) != 1 || viaReader[0] != "a" {
		t.Fatalf("MatchString after malformed doc = %v, want [a]", viaReader)
	}
}

// TestMatchBytesResultReuse documents the MatchBytes contract: the
// returned slice is reused by the next call.
func TestMatchBytesResultReuse(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("a", "//a"); err != nil {
		t.Fatal(err)
	}
	got, err := s.MatchBytes([]byte("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("MatchBytes = %v, want [a]", got)
	}
	empty, err := s.MatchBytes([]byte("<b/>"))
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("no matches: MatchBytes = %#v, want empty non-nil slice", empty)
	}
}
