package streamxpath

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// deepDoc builds <a> nested to the given depth around a single text
// byte — the adversarial document class behind the paper's Ω(log d)
// depth lower bound, scaled past any sane frontier budget.
func deepDoc(depth int) []byte {
	var b bytes.Buffer
	b.Grow(7*depth + 1)
	b.WriteString(strings.Repeat("<a>", depth))
	b.WriteByte('x')
	b.WriteString(strings.Repeat("</a>", depth))
	return b.Bytes()
}

var (
	deepMegaOnce sync.Once
	deepMegaDoc  []byte
)

// deepMega returns the 1M-element-deep document (built once; ~7MB).
func deepMega() []byte {
	deepMegaOnce.Do(func() { deepMegaDoc = deepDoc(1 << 20) })
	return deepMegaDoc
}

func wantLimitError(t *testing.T, err error, resource string) {
	t.Helper()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error = %v, want wrapped *LimitError", err)
	}
	if resource != "" && le.Resource != resource {
		t.Fatalf("LimitError resource = %q (%v), want %q", le.Resource, le, resource)
	}
}

// TestLimitsDeepDocEveryEntryPoint is the acceptance scenario: a
// 1M-element-deep document under MaxDepth/MaxLiveTuples terminates
// early on every entry point — a typed *LimitError under LimitFail, an
// abstain verdict under LimitAbstain — with peak accounted memory
// bounded by the budget, and the object reusable afterwards.
func TestLimitsDeepDocEveryEntryPoint(t *testing.T) {
	doc := deepMega()
	okDoc := "<a><b>x</b></a>"
	lim := Limits{MaxDepth: 1000, MaxLiveTuples: 4096}

	// checkStats: the peaks must scale with the budget, not the document.
	checkStats := func(t *testing.T, ms MemStats) {
		t.Helper()
		if ms.MaxDepth > lim.MaxDepth+2 {
			t.Errorf("MemStats.MaxDepth = %d, want <= %d", ms.MaxDepth, lim.MaxDepth+2)
		}
		if ms.PeakLiveTuples > 2*lim.MaxLiveTuples {
			t.Errorf("MemStats.PeakLiveTuples = %d, want O(%d)", ms.PeakLiveTuples, lim.MaxLiveTuples)
		}
	}

	for _, pol := range []LimitPolicy{LimitFail, LimitAbstain} {
		pol := pol
		name := map[LimitPolicy]string{LimitFail: "Fail", LimitAbstain: "Abstain"}[pol]
		lim := lim
		lim.Policy = pol

		checkSetErr := func(t *testing.T, ids []string, err error, abst bool) {
			t.Helper()
			if pol == LimitFail {
				wantLimitError(t, err, "")
				return
			}
			if err != nil {
				t.Fatalf("abstain policy returned error: %v", err)
			}
			if ids == nil {
				t.Fatal("abstain policy returned nil ids")
			}
			if len(ids) != 0 {
				t.Fatalf("abstained ids = %v, want none decided", ids)
			}
			if !abst {
				t.Fatal("Abstained = false after budget breach")
			}
		}

		t.Run("FilterSet/"+name, func(t *testing.T) {
			s := NewFilterSet()
			if err := s.Add("q", "//a/b"); err != nil {
				t.Fatal(err)
			}
			s.SetLimits(lim)
			res, err := s.MatchBytesResult(doc)
			checkSetErr(t, res.MatchedIDs, err, res.Abstained)
			checkStats(t, res.MemStats)
			res, err = s.MatchReaderResult(bytes.NewReader(doc))
			checkSetErr(t, res.MatchedIDs, err, res.Abstained)
			if pol == LimitAbstain && !res.ReaderStats.Abstained {
				t.Fatal("ReaderStats.Abstained = false after breach")
			}
			res, err = s.MatchStringResult(okDoc)
			if err != nil || len(res.MatchedIDs) != 1 || res.Abstained {
				t.Fatalf("reuse: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
			}
		})
		t.Run("Filter/"+name, func(t *testing.T) {
			f, err := MustCompile("//a/b").NewFilter()
			if err != nil {
				t.Fatal(err)
			}
			f.SetLimits(lim)
			res, err := f.MatchBytesResult(doc)
			if pol == LimitFail {
				wantLimitError(t, err, "")
			} else if err != nil || len(res.MatchedIDs) != 0 || !res.Abstained {
				t.Fatalf("abstain: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
			}
			res, err = f.MatchReaderResult(bytes.NewReader(doc))
			if pol == LimitFail {
				wantLimitError(t, err, "")
			} else if err != nil || len(res.MatchedIDs) != 0 || !res.Abstained || !res.ReaderStats.Abstained {
				t.Fatalf("abstain reader: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
			}
			res, err = f.MatchStringResult(okDoc)
			if err != nil || len(res.MatchedIDs) != 1 || res.Abstained {
				t.Fatalf("reuse: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
			}
		})
		t.Run("FilterPool/"+name, func(t *testing.T) {
			p := NewFilterPool(2)
			if err := p.Add("q", "//a/b"); err != nil {
				t.Fatal(err)
			}
			p.SetLimits(lim)
			res, err := p.MatchBytesResult(doc)
			checkSetErr(t, res.MatchedIDs, err, res.Abstained)
			checkStats(t, res.MemStats)
			res, err = p.MatchReaderResult(bytes.NewReader(doc))
			checkSetErr(t, res.MatchedIDs, err, res.Abstained)
			res, err = p.MatchStringResult(okDoc)
			if err != nil || len(res.MatchedIDs) != 1 || res.Abstained {
				t.Fatalf("reuse: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
			}
		})
		// The deprecated names are FilterPools under the same budgets.
		for setName, newSet := range map[string]func(int) *ParallelFilterSet{
			"ParallelFilterSet": NewParallelFilterSet,
			"AdaptiveFilterSet": NewAdaptiveFilterSet,
		} {
			t.Run(setName+"/"+name, func(t *testing.T) {
				s := newSet(2)
				defer s.Close()
				if err := s.Add("q", "//a/b"); err != nil {
					t.Fatal(err)
				}
				s.SetLimits(lim)
				res, err := s.MatchBytesResult(doc)
				checkSetErr(t, res.MatchedIDs, err, res.Abstained)
				checkStats(t, res.MemStats)
				res, err = s.MatchReaderResult(bytes.NewReader(doc))
				checkSetErr(t, res.MatchedIDs, err, res.Abstained)
				res, err = s.MatchStringResult(okDoc)
				if err != nil || len(res.MatchedIDs) != 1 || res.Abstained {
					t.Fatalf("reuse: ids=%v err=%v abstained=%v", res.MatchedIDs, err, res.Abstained)
				}
			})
		}
	}
}

// TestLimitsLiveTuplesOnly: with only the frontier budget set, the deep
// document trips the live-tuples accounting (scopes grow with depth for
// a descendant query) rather than running the heap out.
func TestLimitsLiveTuplesOnly(t *testing.T) {
	doc := deepDoc(1 << 16)
	s := NewFilterSet()
	if err := s.Add("q", "//a/b"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxLiveTuples: 2048})
	_, err := s.MatchBytes(doc)
	wantLimitError(t, err, "live-tuples")

	f, err := MustCompile("//a/b").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	f.SetLimits(Limits{MaxLiveTuples: 2048})
	_, err = f.MatchBytes(doc)
	wantLimitError(t, err, "live-tuples")
}

// TestLimitsGiantTextNode: a single huge text node trips MaxTokenBytes
// on both the in-memory and streaming tokenizers; without the budget
// the document still matches.
func TestLimitsGiantTextNode(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("<catalog><item><name>")
	b.WriteString(strings.Repeat("x", 8<<20))
	b.WriteString("</name></item></catalog>")
	doc := b.Bytes()

	free := NewFilterSet()
	if err := free.Add("q", "/catalog/item/name"); err != nil {
		t.Fatal(err)
	}
	ids, err := free.MatchBytes(doc)
	if err != nil || len(ids) != 1 {
		t.Fatalf("unlimited: ids=%v err=%v", ids, err)
	}
	// The budgeted set uses an undecidable query — a query that decides
	// early stops scanning before the giant text, which is the desired
	// behavior but not what this test exercises.
	s := NewFilterSet()
	if err := s.Add("q", "/catalog/item/missing"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxTokenBytes: 64 << 10})
	_, err = s.MatchBytes(doc)
	wantLimitError(t, err, "token-bytes")
	_, err = s.MatchReader(bytes.NewReader(doc))
	wantLimitError(t, err, "token-bytes")
}

// giantNameDoc is one item whose name is a 1 MiB text node.
func giantNameDoc() []byte {
	var b bytes.Buffer
	b.WriteString("<catalog><item><name>")
	b.WriteString(strings.Repeat("x", 1<<20))
	b.WriteString("</name></item></catalog>")
	return b.Bytes()
}

// TestLimitsBufferedText: a numeric comparison buffers its leaf's text,
// so a giant text node inside the compared element trips MaxBufferedBytes
// even when MaxTokenBytes allows the token itself.
func TestLimitsBufferedText(t *testing.T) {
	doc := giantNameDoc()
	s := NewFilterSet()
	if err := s.Add("q", "//item[name > 5]"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxBufferedBytes: 4 << 10})
	_, err := s.MatchBytes(doc)
	wantLimitError(t, err, "buffered-bytes")

	f, err := MustCompile("//item[name > 5]").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	f.SetLimits(Limits{MaxBufferedBytes: 4 << 10})
	_, err = f.MatchBytes(doc)
	wantLimitError(t, err, "buffered-bytes")
}

// TestLimitsStreamedEqualityHoldsNoText: a textual = or != streams its
// leaf's text through a cursor into its constants, so the same giant text
// node buffers nothing — the verdict is right under a 4 KiB
// MaxBufferedBytes, and the peak buffer is empty.
func TestLimitsStreamedEqualityHoldsNoText(t *testing.T) {
	doc := giantNameDoc()
	for _, c := range []struct {
		q     string
		match bool
	}{
		{"//item[name = 'xyz']", false},
		{"//item[name = '" + strings.Repeat("x", 1<<20) + "']", true},
		{"//item[name != 'xyz']", true},
		{"//item[name = 'xyz' and name]", false},
	} {
		s := NewFilterSet()
		if err := s.Add("q", c.q); err != nil {
			t.Fatal(err)
		}
		s.SetLimits(Limits{MaxBufferedBytes: 4 << 10})
		res, err := s.MatchBytesResult(doc)
		if err != nil || (len(res.MatchedIDs) == 1) != c.match {
			t.Errorf("%.40s: ids %v, err %v; want match %v", c.q, res.MatchedIDs, err, c.match)
		}
		if res.MemStats.PeakBufferedBytes != 0 {
			t.Errorf("%.40s: peak buffer %d B, want 0", c.q, res.MemStats.PeakBufferedBytes)
		}
	}
}

// manyAttrDoc builds a tag carrying n attributes.
func manyAttrDoc(n int) []byte {
	var b bytes.Buffer
	b.WriteString("<catalog><item")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " k%d=\"v%d\"", i, i)
	}
	b.WriteString("/></catalog>")
	return b.Bytes()
}

// TestLimitsManyAttributes: a 10k-attribute tag is a giant token — it
// trips MaxTokenBytes when budgeted, and matches identically to the
// unlimited engine under a generous budget.
func TestLimitsManyAttributes(t *testing.T) {
	doc := manyAttrDoc(10_000)
	query := "/catalog/item[@k9999 = 'v9999']"

	free := NewFilterSet()
	if err := free.Add("q", query); err != nil {
		t.Fatal(err)
	}
	want, err := free.MatchBytes(doc)
	if err != nil || len(want) != 1 {
		t.Fatalf("unlimited: ids=%v err=%v", want, err)
	}

	s := NewFilterSet()
	if err := s.Add("q", query); err != nil {
		t.Fatal(err)
	}
	// The in-memory tokenizer scans attributes in place, so the memory
	// cost of a giant tag is only real on the streaming path, where the
	// unfinished tag must be carried across chunk boundaries — that is
	// where the token budget applies.
	s.SetLimits(Limits{MaxTokenBytes: 4 << 10})
	s.SetChunkSize(512)
	_, err = s.MatchReader(bytes.NewReader(doc))
	wantLimitError(t, err, "token-bytes")

	s.SetLimits(Limits{MaxTokenBytes: 1 << 20, MaxDepth: 100, MaxLiveTuples: 1 << 20})
	got, err := s.MatchBytes(doc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("generous limits: ids=%v err=%v, want %v", got, err, want)
	}
}

// TestLimitsPredicateNesting: pathologically nested predicates over a
// wide document grow pendings/scopes; the live-tuples budget cuts the
// evaluation off, and a generous budget reproduces the unlimited
// verdict byte-for-byte.
func TestLimitsPredicateNesting(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("<r>")
	for i := 0; i < 20_000; i++ {
		b.WriteString("<a><b><c><d>x</d></c></b>")
	}
	for i := 0; i < 20_000; i++ {
		b.WriteString("</a>")
	}
	b.WriteString("</r>")
	doc := b.Bytes()
	query := "//a[b[c[d = 'zzz']]]"

	free := NewFilterSet()
	if err := free.Add("q", query); err != nil {
		t.Fatal(err)
	}
	want, err := free.MatchBytes(doc)
	if err != nil {
		t.Fatalf("unlimited: %v", err)
	}
	want = append([]string(nil), want...)

	s := NewFilterSet()
	if err := s.Add("q", query); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxLiveTuples: 1024})
	_, err = s.MatchBytes(doc)
	wantLimitError(t, err, "")

	s.SetLimits(Limits{MaxLiveTuples: 1 << 22, MaxBufferedBytes: 1 << 20})
	got, err := s.MatchBytes(doc)
	if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("generous limits: ids=%v err=%v, want %v", got, err, want)
	}
}

// TestLimitsVerdictsIdenticalUnderGenerousBudgets: across the
// adversarial corpus, on the sequential set and the pool, enabling budgets
// that are never hit must not change a single verdict.
func TestLimitsVerdictsIdenticalUnderGenerousBudgets(t *testing.T) {
	corpus := map[string][]byte{
		"deep":  deepDoc(500),
		"attrs": manyAttrDoc(2_000),
		"text": []byte("<catalog><item><name>" +
			strings.Repeat("y", 1<<16) + "</name></item></catalog>"),
		"mixed": []byte("<catalog>" +
			strings.Repeat("<item><name>n</name><price>9</price></item>", 500) +
			"</catalog>"),
	}
	queries := []struct{ id, src string }{
		{"deep-a", "//a/b"},
		{"deep-x", "//a[a[a]]"},
		{"name", "//item/name"},
		{"valpred", "//item[name = 'n']"},
		{"attr", "/catalog/item[@k42 = 'v42']"},
	}
	generous := Limits{
		MaxDepth:         1 << 20,
		MaxTokenBytes:    1 << 26,
		MaxBufferedBytes: 1 << 26,
		MaxLiveTuples:    1 << 26,
		MaxDocBytes:      1 << 30,
	}

	free := NewFilterSet()
	for _, q := range queries {
		if err := free.Add(q.id, q.src); err != nil {
			t.Fatal(err)
		}
	}

	set, pool := NewFilterSet(), NewFilterPool(2)
	for _, q := range queries {
		if err := set.Add(q.id, q.src); err != nil {
			t.Fatal(err)
		}
		if err := pool.Add(q.id, q.src); err != nil {
			t.Fatal(err)
		}
	}
	set.SetLimits(generous)
	pool.SetLimits(generous)
	ms := []struct {
		name  string
		match func([]byte) (MatchResult, error)
	}{{"FilterSet", set.MatchBytesResult}, {"FilterPool", pool.MatchBytesResult}}
	for docName, doc := range corpus {
		want, err := free.MatchBytes(doc)
		if err != nil {
			t.Fatalf("%s unlimited: %v", docName, err)
		}
		want = append([]string(nil), want...)
		for _, m := range ms {
			res, err := m.match(doc)
			if err != nil {
				t.Fatalf("%s on %s: %v", m.name, docName, err)
			}
			if got := res.MatchedIDs; !reflect.DeepEqual(append([]string(nil), got...), want) {
				t.Fatalf("%s on %s: ids = %v, want %v", m.name, docName, got, want)
			}
			if res.MemStats.Events == 0 {
				t.Errorf("%s on %s: MemStats.Events = 0, accounting not live", m.name, docName)
			}
		}
	}
}

// TestLimitsMaxDocBytes: the whole-document size budget rejects
// oversized input up front on the byte path and mid-stream on the
// reader path.
func TestLimitsMaxDocBytes(t *testing.T) {
	doc := []byte("<catalog>" + strings.Repeat("<item/>", 1000) + "</catalog>")

	// An undecidable query, so the reader path cannot early-exit before
	// the byte budget is reached.
	s := NewFilterSet()
	if err := s.Add("q", "//missing"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxDocBytes: 1024})
	_, err := s.MatchBytes(doc)
	wantLimitError(t, err, "doc-bytes")
	s.SetChunkSize(512)
	_, err = s.MatchReader(bytes.NewReader(doc))
	wantLimitError(t, err, "doc-bytes")

	p := NewFilterPool(2)
	if err := p.Add("q", "//item"); err != nil {
		t.Fatal(err)
	}
	p.SetLimits(Limits{MaxDocBytes: 1024})
	_, err = p.MatchBytes(doc)
	wantLimitError(t, err, "doc-bytes")
}

// TestLimitsAbstainKeepsDecidedVerdicts: verdicts latched before the
// breach are final (matching is monotone) and survive into the
// abstained result.
func TestLimitsAbstainKeepsDecidedVerdicts(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("<r><hit>x</hit>")
	b.WriteString(strings.Repeat("<a>", 5000))
	b.WriteString(strings.Repeat("</a>", 5000))
	b.WriteString("</r>")
	doc := b.Bytes()

	s := NewFilterSet()
	if err := s.Add("early", "/r/hit"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("deep", "//a/b"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{MaxDepth: 100, Policy: LimitAbstain})
	res, err := s.MatchBytesResult(doc)
	if err != nil {
		t.Fatalf("abstain policy returned error: %v", err)
	}
	if !res.Abstained {
		t.Fatal("Abstained = false")
	}
	if !reflect.DeepEqual(res.MatchedIDs, []string{"early"}) {
		t.Fatalf("abstained ids = %v, want [early]", res.MatchedIDs)
	}
}

// TestLimitsMemStatsOptimality: the accounting exposes the paper
// comparison — a positive lower bound and a finite ratio against it on
// a successful match.
func TestLimitsMemStatsOptimality(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("q", "//catalog/item/name"); err != nil {
		t.Fatal(err)
	}
	doc := []byte("<catalog>" + strings.Repeat("<item><name>n</name></item>", 100) + "</catalog>")
	res, err := s.MatchBytesResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	ms := res.MemStats
	if ms.Events == 0 || ms.MaxDepth == 0 {
		t.Fatalf("MemStats not populated: %+v", ms)
	}
	if ms.LowerBoundBits <= 0 {
		t.Fatalf("LowerBoundBits = %d, want > 0", ms.LowerBoundBits)
	}
	if ms.OptimalityRatio <= 0 {
		t.Fatalf("OptimalityRatio = %v, want > 0", ms.OptimalityRatio)
	}
	if ms.String() == "" {
		t.Fatal("MemStats.String() empty")
	}

	f, err := MustCompile("//catalog/item/name").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MatchBytes(doc); err != nil {
		t.Fatal(err)
	}
	fs := f.Stats()
	if fs.LowerBoundBits <= 0 || fs.OptimalityRatio <= 0 {
		t.Fatalf("Filter stats lower bound not populated: %+v", fs)
	}
}

// TestLimitsSteadyStateAllocs: enabling budgets that are never hit must
// keep the warmed byte path allocation-free — the limit checks are
// plain integer compares.
func TestLimitsSteadyStateAllocs(t *testing.T) {
	doc := []byte("<catalog>" + strings.Repeat("<item><name>n</name></item>", 200) + "</catalog>")
	s := NewFilterSet()
	if err := s.Add("q", "//item/name"); err != nil {
		t.Fatal(err)
	}
	s.SetLimits(Limits{
		MaxDepth:         1 << 16,
		MaxTokenBytes:    1 << 24,
		MaxBufferedBytes: 1 << 24,
		MaxLiveTuples:    1 << 24,
		MaxDocBytes:      1 << 30,
	})
	for i := 0; i < 3; i++ {
		if _, err := s.MatchBytes(doc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.MatchBytes(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("limits-enabled steady-state MatchBytes: %v allocs/run, want 0", allocs)
	}
}

// FuzzMatchLimitsNoPanic: arbitrary documents under arbitrary tight
// budgets must never panic, and the set must stay reusable after any
// breach, under both policies.
func FuzzMatchLimitsNoPanic(f *testing.F) {
	f.Add([]byte("<a><b>x</b></a>"), uint16(4), uint16(64), uint16(64), uint16(8))
	f.Add(deepDoc(64), uint16(8), uint16(16), uint16(16), uint16(4))
	f.Add(manyAttrDoc(32), uint16(2), uint16(32), uint16(8), uint16(2))
	f.Add([]byte("<a>"+strings.Repeat("y", 256)+"</a>"), uint16(1), uint16(3), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, doc []byte, d, tb, bb, lt uint16) {
		lim := Limits{
			MaxDepth:         int(d % 128),
			MaxTokenBytes:    int(tb),
			MaxBufferedBytes: int(bb),
			MaxLiveTuples:    int(lt % 512),
		}
		for _, pol := range []LimitPolicy{LimitFail, LimitAbstain} {
			lim.Policy = pol
			s := NewFilterSet()
			if err := s.Add("q1", "//a/b"); err != nil {
				t.Fatal(err)
			}
			if err := s.Add("q2", "//a[b = 'x']"); err != nil {
				t.Fatal(err)
			}
			s.SetLimits(lim)
			_, _ = s.MatchBytes(doc)
			_, _ = s.MatchReader(bytes.NewReader(doc))
			// Reusable after whatever just happened: a small well-formed
			// document must still give its verdict (or a budget breach —
			// the limits may be tiny — but never a panic or a stale error).
			ids, err := s.MatchString("<a><b>x</b></a>")
			var le *LimitError
			if err != nil && !errors.As(err, &le) {
				t.Fatalf("reuse after fuzzed doc: %v", err)
			}
			_ = ids
		}
	})
}

// TestLiveBudgetServeShaped pins the smallest MaxLiveTuples budget the
// serve workload's standing set passes on a feed of its shape: 7, an
// item's three scopes — its two predicate groups' and //item[keyword]'s —
// with the open levels and the priority's pending. Each scope's one
// obligation is the scope itself; while each was a tuple of its own the
// smallest budget was 9. One
// below it breaches, and under LimitAbstain every budget up to it leaves
// verdicts among the tree evaluator's: the ones decided before the breach,
// all of them from the smallest budget on.
func TestLiveBudgetServeShaped(t *testing.T) {
	s := NewFilterSet()
	var srcs []string
	for cycle, flag := range []string{"go", "xml", "streams", "theory"} {
		srcs = append(srcs, "/news/item", "/news/item/title", "/news//p",
			fmt.Sprintf("/news/item[priority > %d]", 2+2*cycle), fmt.Sprintf("/news/item[keyword = %q]", flag),
			"/news/*/keyword", "/feed/entry", "//item[keyword]/body")
	}
	for i, src := range srcs {
		add := s.Add
		if i < 16 {
			add = s.AddExtract
		}
		if err := add(fmt.Sprint("s", i), src); err != nil {
			t.Fatal(err)
		}
	}
	keywords := []string{"databases", "systems", "go", "databases", "xml", "systems", "streams", "theory"}
	var b strings.Builder
	b.WriteString("<news>")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>%s</keyword><priority>%d</priority><body><p>%s</p></body></item>",
			i, keywords[i%len(keywords)], i*7%10, strings.Repeat("lorem ipsum ", 1+i%5))
	}
	b.WriteString("</news>")
	doc := []byte(b.String())
	root := tree.MustParse(b.String())
	truth, matches := map[string]bool{}, 0
	for i, src := range srcs {
		if semantics.BoolEval(query.MustParse(src), root) {
			truth[fmt.Sprint("s", i)] = true
			matches++
		}
	}

	least := 0
	for budget := 1; least == 0; budget++ {
		s.SetLimits(Limits{MaxLiveTuples: budget})
		_, err := s.MatchBytes(doc)
		if err == nil {
			least = budget
			continue
		}
		wantLimitError(t, err, "live-tuples")
		if budget == 32 {
			t.Fatalf("budget %d still breached", budget)
		}
	}
	if least != 7 {
		t.Fatalf("the smallest budget passed is %d, want 7", least)
	}
	for budget := 1; budget <= least; budget++ {
		s.SetLimits(Limits{MaxLiveTuples: budget, Policy: LimitAbstain})
		res, err := s.MatchBytesResult(doc)
		if err != nil || res.Abstained != (budget < least) {
			t.Fatalf("budget %d: abstained %v (%v), want %v", budget, res.Abstained, err, budget < least)
		}
		for _, id := range res.MatchedIDs {
			if !truth[id] {
				t.Fatalf("budget %d: %s matched, the tree evaluator says it does not", budget, id)
			}
		}
		if n := len(res.MatchedIDs); budget == least && n != matches {
			t.Fatalf("budget %d: %d matched, want the tree evaluator's %d", budget, n, matches)
		}
	}
}
