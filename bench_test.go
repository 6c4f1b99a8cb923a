// Benchmark harness of the library: the public matchers on the workloads
// the dissemination engine is built for — throughput over E17's news corpus
// (the core filter, and the public Filter's byte path), compilation, and the
// dissemination, churn, routing, reader, tokenizer and pool families below.
// Each reports, besides ns/op, the custom metrics its arms are stated in,
// via b.ReportMetric. Run with
//
//	go test -bench=. -benchmem
//
// The paper-shape benchmarks, one per experiment of the index that
// `go run ./cmd/xpexperiments` prints, are in that command's package.
package streamxpath_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/core"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/workload"
)

// BenchmarkThroughput (E17): events per second over the news corpus; time
// must be linear in |D| (constant ns/event). The base arms stream
// pre-materialized events through the core filter; the /bytes arms run
// the full pipeline — byte tokenizer included — through the
// interned-symbol fast path (Filter.MatchBytes), which despite doing
// strictly more work per op allocates far less.
func BenchmarkThroughput(b *testing.B) {
	q := query.MustParse(`//item[keyword = "go" and priority > 5]`)
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{10, 100, 1000} {
		events := workload.RandomNewsFeed(rng, n).Events()
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			f := core.MustCompile(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Reset()
				if _, err := f.ProcessAll(events); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
		b.Run(fmt.Sprintf("items=%d/bytes", n), func(b *testing.B) {
			xml, err := sax.SerializeString(events)
			if err != nil {
				b.Fatal(err)
			}
			doc := []byte(xml)
			f, err := streamxpath.MustCompile(`//item[keyword = "go" and priority > 5]`).NewFilter()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.MatchBytes(doc); err != nil { // warm symbols and scratch
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.MatchBytes(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}

// BenchmarkCompile: query compilation cost (parser + truth sets + fragment
// checks).
func BenchmarkCompile(b *testing.B) {
	src := "/a[*/b > 5 and c/b//d > 12 and .//d < 30]"
	for i := 0; i < b.N; i++ {
		q, err := streamxpath.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.NewFilter(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the dissemination benchmark family (E22) ---
//
// One document, many standing subscriptions. The "engine" arms run the
// shared multi-query engine behind FilterSet; the "fanout" arms replicate
// the seed's per-filter loop (tokenize once, feed every event to every
// filter, monotone early exit per filter) so future PRs can track the
// shared-evaluation speedup in BENCH_*.json. Subscription topologies:
//
//   - shared:   //catalog/item/f<i> — all subscriptions share a two-step
//     prefix; per-event cost of the engine depends on the distinct active
//     states, not the subscription count.
//   - disjoint: //p<i>/c<i> — nothing shared; the engine's worst case.
//   - predshared: //catalog/item[priority > k]/f<i> — shared predicated
//     steps exercising the trie route.
//   - preddisjoint: //catalog/item[priority > i]/f<i> — the inverse shape:
//     every subscription its own predicated prefix with one leaf, over wide
//     items (disseminationWideDoc). It guards the skeleton dispatch against
//     trading predshared's fan-out cost for a per-open-scope one.

// disseminationSubs builds a subscription workload.
func disseminationSubs(topology string, n int) []string {
	subs := make([]string, n)
	for i := range subs {
		switch topology {
		case "shared":
			subs[i] = fmt.Sprintf("//catalog/item/f%d", i)
		case "disjoint":
			subs[i] = fmt.Sprintf("//p%d/c%d", i, i)
		case "predshared":
			subs[i] = fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i%(n/10+1))
		case "preddisjoint":
			subs[i] = fmt.Sprintf("//catalog/item[priority > %d]/f%d", i, i)
		}
	}
	return subs
}

// disseminationDoc builds the feed document: a catalog of items carrying
// a few of the subscribed leaf names, so a small fraction of
// subscriptions match.
func disseminationDoc(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < items; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j, j+items)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// disseminationWideDoc is the preddisjoint feed: items of 20 children
// (a priority and 19 subscribed leaf names), so most events of a document
// are leaf candidates under many open predicated scopes. Each item's
// priority passes the predicates of its first 9 leaves' subscriptions.
func disseminationWideDoc(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < items; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority>", j*19+9)
		for c := 0; c < 19; c++ {
			fmt.Fprintf(&b, "<f%d/>", j*19+c)
		}
		b.WriteString("</item>")
	}
	b.WriteString("</catalog>")
	return b.String()
}

// seedFanout replicates the seed FilterSet.MatchReader: one tokenizer
// pass fanned out to every subscription's standalone filter.
func seedFanout(b *testing.B, filters []*core.Filter, doc string) int {
	for _, f := range filters {
		f.Reset()
	}
	done := make([]bool, len(filters))
	tok := sax.NewTokenizer(strings.NewReader(doc))
	for {
		e, err := tok.Next()
		if err != nil {
			break
		}
		for i, f := range filters {
			if done[i] && e.Kind != sax.EndDocument {
				continue
			}
			if err := f.Process(e); err != nil {
				b.Fatal(err)
			}
			if !done[i] && f.WouldMatchIfClosedNow() {
				done[i] = true
			}
		}
	}
	matched := 0
	for _, f := range filters {
		if f.Matched() {
			matched++
		}
	}
	return matched
}

// benchEngine drives the shared engine through the interned-symbol byte
// path (FilterSet.MatchBytes) — tokenization included, like the fanout
// arm it is compared against.
func benchEngine(b *testing.B, subs []string, doc string) {
	s := streamxpath.NewFilterSet()
	for i, src := range subs {
		if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
			b.Fatal(err)
		}
	}
	docBytes := []byte(doc)
	if _, err := s.MatchBytes(docBytes); err != nil { // compile + warm transition tables
		b.Fatal(err)
	}
	events := len(sax.MustParse(doc))
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		ids, err := s.MatchBytes(docBytes)
		if err != nil {
			b.Fatal(err)
		}
		matched = len(ids)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	b.ReportMetric(float64(matched), "matched")
}

func benchFanout(b *testing.B, subs []string, doc string) {
	var filters []*core.Filter
	for _, src := range subs {
		f, err := core.Compile(query.MustParse(src))
		if err != nil {
			b.Fatal(err)
		}
		filters = append(filters, f)
	}
	events := len(sax.MustParse(doc))
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = seedFanout(b, filters, doc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	b.ReportMetric(float64(matched), "matched")
}

// BenchmarkFilterSet is the full dissemination matrix: subscription count
// × prefix topology × engine/fanout.
func BenchmarkFilterSet(b *testing.B) {
	for _, topology := range []string{"shared", "disjoint", "predshared", "preddisjoint"} {
		doc := disseminationDoc(40)
		if topology == "preddisjoint" {
			doc = disseminationWideDoc(40)
		}
		for _, n := range []int{100, 1000, 10000} {
			subs := disseminationSubs(topology, n)
			b.Run(fmt.Sprintf("%s/subs=%d/engine", topology, n), func(b *testing.B) {
				benchEngine(b, subs, doc)
			})
			b.Run(fmt.Sprintf("%s/subs=%d/fanout", topology, n), func(b *testing.B) {
				benchFanout(b, subs, doc)
			})
		}
	}
}

// BenchmarkFilterSetChurn is the cost of a subscription change on a
// standing set: one iteration removes the oldest subscription, adds its
// query back under a new id, and matches one document — the mutation ack a
// caller waits for. The nfa arms hold "shared" subscriptions (all on the
// merged NFA), the trie arms "predshared" ones (all on the frontier trie).
// The change is O(|query|) in the indexes, and the document costs what it
// matches, so the arms should read alike across set sizes but for Remove's
// shift of the flat subscription and result vectors.
func BenchmarkFilterSetChurn(b *testing.B) {
	doc := []byte(disseminationDoc(40))
	for _, route := range []struct{ name, topology string }{{"nfa", "shared"}, {"trie", "predshared"}} {
		for _, n := range []int{100, 1000, 10000} {
			subs := disseminationSubs(route.topology, n)
			b.Run(fmt.Sprintf("%s/subs=%d", route.name, n), func(b *testing.B) {
				s := streamxpath.NewFilterSet()
				for i, src := range subs {
					if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.MatchBytes(doc); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var matched int
				for i := 0; i < b.N; i++ {
					if !s.Remove(fmt.Sprintf("s%d", i)) {
						b.Fatalf("s%d is not subscribed", i)
					}
					if err := s.Add(fmt.Sprintf("s%d", n+i), subs[i%n]); err != nil {
						b.Fatal(err)
					}
					ids, err := s.MatchBytes(doc)
					if err != nil {
						b.Fatal(err)
					}
					matched = len(ids)
				}
				b.ReportMetric(float64(matched), "matched")
			})
		}
	}
}

// BenchmarkDissemination is the compact engine-vs-fanout pair (1k shared
// subscriptions) run as the CI smoke benchmark.
func BenchmarkDissemination(b *testing.B) {
	subs := disseminationSubs("shared", 1000)
	doc := disseminationDoc(40)
	b.Run("engine", func(b *testing.B) { benchEngine(b, subs, doc) })
	b.Run("fanout", func(b *testing.B) { benchFanout(b, subs, doc) })
}

// BenchmarkFilterSetLimits is the budget-mode arm (PR 7): the compact
// dissemination workload with every resource budget enabled and never
// hit. The limit checks are plain integer compares against
// zero-disabled budgets, so this arm must stay allocation-free and
// within the bench gate's noise band of the unlimited engine arm.
func BenchmarkFilterSetLimits(b *testing.B) {
	subs := disseminationSubs("shared", 1000)
	doc := disseminationDoc(40)
	s := streamxpath.NewFilterSet()
	for i, src := range subs {
		if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
			b.Fatal(err)
		}
	}
	s.SetLimits(streamxpath.Limits{
		MaxDepth:         1 << 16,
		MaxTokenBytes:    1 << 24,
		MaxBufferedBytes: 1 << 24,
		MaxLiveTuples:    1 << 24,
		MaxDocBytes:      1 << 30,
	})
	docBytes := []byte(doc)
	if _, err := s.MatchBytes(docBytes); err != nil { // compile + warm transition tables
		b.Fatal(err)
	}
	events := len(sax.MustParse(doc))
	b.ReportAllocs()
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		ids, err := s.MatchBytes(docBytes)
		if err != nil {
			b.Fatal(err)
		}
		matched = len(ids)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	b.ReportMetric(float64(matched), "matched")
}

// BenchmarkFanoutRouting is the content-based-routing arm (PR 10): a
// news feed fanned out to N standing topic subscriptions registered
// with extraction, so each matched subscription is handed the matched
// item's subtree — the deliverable payload, not just a verdict. MB/s
// here is DELIVERED bytes per second (sum of fragment lengths per
// document), the figure of merit of a fan-out router. The /bytes arm
// is the whole-buffer zero-copy path, /reader the chunked
// re-serialization path, and /boolean the verdict-only baseline on the
// same subscriptions, which must stay allocation-free.
func BenchmarkFanoutRouting(b *testing.B) {
	const topics = 200
	// Each of 40 items names one of the 200 topics, so ~40 subscriptions
	// receive a fragment per document.
	var sb strings.Builder
	sb.WriteString("<news>")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&sb, "<item><topic%d></topic%d><title>story %d</title><body>%s</body></item>",
			j%topics, j%topics, j, strings.Repeat("text ", 20))
	}
	sb.WriteString("</news>")
	doc := []byte(sb.String())

	newSet := func(b *testing.B) *streamxpath.FilterSet {
		s := streamxpath.NewFilterSet()
		for i := 0; i < topics; i++ {
			if err := s.AddExtract(fmt.Sprintf("topic%d", i), fmt.Sprintf("//news/item/topic%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.MatchBytes(doc); err != nil { // compile + warm
			b.Fatal(err)
		}
		return s
	}
	delivered := func(res streamxpath.MatchResult) int64 {
		var n int64
		for _, f := range res.Fragments {
			n += int64(len(f.Data))
		}
		return n
	}

	b.Run("bytes", func(b *testing.B) {
		s := newSet(b)
		res, err := s.MatchBytesResult(doc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Fragments) == 0 {
			b.Fatal("no fragments routed")
		}
		b.SetBytes(delivered(res))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MatchBytesResult(doc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(res.Fragments)), "fragments")
	})
	b.Run("reader", func(b *testing.B) {
		s := newSet(b)
		s.SetChunkSize(4096)
		res, err := s.MatchReaderResult(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(delivered(res))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MatchReaderResult(bytes.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(res.Fragments)), "fragments")
	})
	b.Run("boolean", func(b *testing.B) {
		s := newSet(b)
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MatchBytes(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- the chunked reader family (PR 4) ---
//
// BenchmarkMatchReader compares the two ways to match a document that
// arrives through an io.Reader: buffer it whole and run MatchBytes (the
// pre-PR-4 shape of every reader entry point) versus streaming it
// through the chunked resumable tokenizer (MatchReader), which holds
// only one chunk plus the unconsumed tail. The /earlyexit arm adds a
// prefix-decidable subscription set on a large document and reports how
// little of it the verdict needed.

func BenchmarkMatchReader(b *testing.B) {
	// 400 of the 1000 subscriptions match, so the verdict is never fully
	// decided mid-stream: the throughput arms measure the whole document,
	// not an early exit (that effect gets its own arm below).
	subs := disseminationSubs("shared", 1000)
	doc := []byte(disseminationDoc(400))
	events := len(sax.MustParse(string(doc)))
	const chunk = 4096 // several chunks per document
	newSet := func(b *testing.B) *streamxpath.FilterSet {
		s := streamxpath.NewFilterSet()
		for i, src := range subs {
			if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
				b.Fatal(err)
			}
		}
		s.SetChunkSize(chunk)
		if _, err := s.MatchBytes(doc); err != nil { // compile + warm
			b.Fatal(err)
		}
		return s
	}
	b.Run("buffered", func(b *testing.B) {
		// Stage the reader into a reusable buffer, then MatchBytes — the
		// whole-document-materialization baseline.
		s := newSet(b)
		r := bytes.NewReader(doc)
		buf := make([]byte, 0, len(doc))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(doc)
			buf = buf[:0]
			for {
				if len(buf) == cap(buf) {
					buf = append(buf, 0)[:len(buf)]
				}
				n, err := r.Read(buf[len(buf):cap(buf)])
				buf = buf[:len(buf)+n]
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.MatchBytes(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	})
	b.Run("chunked", func(b *testing.B) {
		s := newSet(b)
		r := bytes.NewReader(doc)
		for i := 0; i < 3; i++ { // warm the tail buffer and scratch
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
	})
	b.Run("earlyexit", func(b *testing.B) {
		// One prefix-decidable subscription over a much larger document
		// (~20x the chunk size): the reader is abandoned as soon as the
		// verdict latches, after the first default-sized chunk. readFrac
		// is the fraction of the document consumed.
		big := []byte(disseminationDoc(20000))
		s := streamxpath.NewFilterSet()
		if err := s.Add("root", "//catalog"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.MatchBytes(big); err != nil {
			b.Fatal(err)
		}
		r := bytes.NewReader(big)
		for i := 0; i < 3; i++ {
			r.Reset(big)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(big)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		r.Reset(big)
		res, err := s.MatchReaderResult(r)
		if err != nil {
			b.Fatal(err)
		}
		rs := res.ReaderStats
		if !rs.EarlyExit {
			b.Fatal("expected early exit")
		}
		b.ReportMetric(float64(rs.BytesRead)/float64(len(big)), "readFrac")
	})
}

// BenchmarkMatchReaderNoMatch quantifies the negative early exit (PR 5)
// on the common dissemination case of a document that matches nothing: a
// /news-rooted subscription set fed a large <catalog> document. The
// buffered arm validates the whole document (MatchBytes has no early
// exit); the chunked-fullread arm adds one universally live descendant
// subscription, pinning the chunked reader to end of input — the pre-
// dead-state-analysis cost; the chunked-negexit arm runs the /news set
// alone, and the dead-state analysis abandons the reader at the first
// chunk. readFrac is the fraction of the document the verdict consumed.
func BenchmarkMatchReaderNoMatch(b *testing.B) {
	// ~1.2MB catalog document with a bounded name vocabulary (unlike
	// disseminationDoc's per-item leaf names, which would drag the known
	// O(n²) symtab-interning cost into every arm's setup).
	var big strings.Builder
	big.WriteString("<catalog>")
	for j := 0; j < 22000; j++ {
		fmt.Fprintf(&big, "<item><priority>%d</priority><f%d/><f%d/></item>", j%12, j%10, (j+5)%10)
	}
	big.WriteString("</catalog>")
	doc := []byte(big.String())
	newsSubs := make([]string, 40)
	for i := range newsSubs {
		switch i % 3 {
		case 0:
			newsSubs[i] = fmt.Sprintf("/news/sports/item/f%d", i)
		case 1:
			newsSubs[i] = fmt.Sprintf("/news//f%d", i)
		default:
			newsSubs[i] = fmt.Sprintf("/news/item[priority > %d]/f%d", i%10, i)
		}
	}
	newSet := func(b *testing.B, extra ...string) *streamxpath.FilterSet {
		s := streamxpath.NewFilterSet()
		for i, src := range append(append([]string(nil), newsSubs...), extra...) {
			if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.MatchBytes(doc); err != nil { // compile + warm
			b.Fatal(err)
		}
		return s
	}
	b.Run("buffered", func(b *testing.B) {
		s := newSet(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MatchBytes(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chunked-fullread", func(b *testing.B) {
		s := newSet(b, "//never/matches")
		r := bytes.NewReader(doc)
		for i := 0; i < 3; i++ { // warm the tail buffer and scratch
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		r.Reset(doc)
		if res, err := s.MatchReaderResult(r); err != nil || res.ReaderStats.EarlyExit {
			b.Fatalf("fullread arm exited early (%v)", err)
		}
	})
	b.Run("chunked-negexit", func(b *testing.B) {
		s := newSet(b)
		r := bytes.NewReader(doc)
		for i := 0; i < 3; i++ {
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(doc)
			if _, err := s.MatchReader(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		r.Reset(doc)
		res, err := s.MatchReaderResult(r)
		if err != nil {
			b.Fatal(err)
		}
		rs := res.ReaderStats
		if !rs.EarlyExit || !rs.DecidedNegative {
			b.Fatalf("expected negative early exit, got %+v", rs)
		}
		b.ReportMetric(float64(rs.BytesConsumed)/float64(len(doc)), "readFrac")
	})
}

// --- the tokenizer family (PR 6) ---
//
// BenchmarkTokenizer measures the byte tokenizer alone — no matching —
// in MB/s (via b.SetBytes) on two document shapes: an ASCII-heavy news
// corpus (text-dominated, long bulk scans) and a
// pathological many-attribute document (markup-dominated, the
// per-construct resumability stress). Each shape runs whole-buffer
// (TokenizerBytes over the full document) and chunked (StreamTokenizer
// fed 4KiB windows, so the many-attribute tags span chunk boundaries
// and exercise suspended-tag resumption). The skim arms run the kernel the
// buffered path spends a decided document in: four events in, then Skim
// validates the rest of a feed in the benchmark's scan shape, with and
// without references in every body.

// tokenizerNewsDoc builds an ASCII-heavy news document of n items:
// mostly prose text runs with occasional entities, light markup.
func tokenizerNewsDoc(n int) []byte {
	var b strings.Builder
	b.WriteString("<news>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%d"><title>Story %d of the day</title>`, i, i)
		fmt.Fprintf(&b, "<body>The quick brown fox jumps over the lazy dog %d times; "+
			"markets rallied while engineers shipped &amp; measured throughput. "+
			"A second sentence pads the run out to realistic paragraph length, "+
			"and a third keeps the ratio of text to markup high.</body>", i)
		fmt.Fprintf(&b, "<keyword>go</keyword><priority>%d</priority></item>", i%10)
	}
	b.WriteString("</news>")
	return []byte(b.String())
}

// tokenizerManyAttrDoc builds the pathological many-attribute document:
// elems elements each carrying attrs attributes, so a single start tag
// is several KiB and spans multiple 4KiB chunks when streamed.
func tokenizerManyAttrDoc(elems, attrs int) []byte {
	var b strings.Builder
	b.WriteString("<doc>")
	for e := 0; e < elems; e++ {
		fmt.Fprintf(&b, "<rec%d", e)
		for a := 0; a < attrs; a++ {
			fmt.Fprintf(&b, ` attr%03d="value-%d-%d"`, a, e, a)
		}
		b.WriteString("/>")
	}
	b.WriteString("</doc>")
	return []byte(b.String())
}

// skimNewsDoc builds a feed of n items in workload.RandomNewsFeed's shape —
// bare tags, short text runs — with three references per body chunk when
// entity is set.
func skimNewsDoc(n int, entity bool) []byte {
	chunk := "lorem ipsum "
	if entity {
		chunk = "lorem &amp; ips&lt;m &#38; "
	}
	rng := rand.New(rand.NewSource(26))
	var b strings.Builder
	b.WriteString("<news>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>go</keyword><priority>%d</priority><body><p>%s</p></body></item>",
			i, rng.Intn(10), strings.Repeat(chunk, 1+rng.Intn(5)))
	}
	b.WriteString("</news>")
	return []byte(b.String())
}

// drainBytes runs a whole-buffer tokenize pass, returning the event count.
func drainBytes(b *testing.B, tok *sax.TokenizerBytes, doc []byte) int {
	tok.Reset(doc)
	n := 0
	for {
		_, err := tok.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
}

// tokenizerCatalogDocs builds 64 seeded catalogs in the shape of the
// benchmark's fanout-pred and churn corpus: 40 items of a priority and two
// self-closing leaves, the 80 leaf names f0–f79 once per catalog in seeded
// order. Nothing in them needs a scanner but the root's start tag.
func tokenizerCatalogDocs() [][]byte {
	rng := rand.New(rand.NewSource(33))
	docs := make([][]byte, 64)
	for d := range docs {
		names := rng.Perm(80)
		var b strings.Builder
		b.WriteString("<catalog>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><f%d/></item>", rng.Intn(12), names[2*i], names[2*i+1])
		}
		b.WriteString("</catalog>")
		docs[d] = []byte(b.String())
	}
	return docs
}

// drainBatch runs a whole-buffer tokenize pass through NextBatch, as the
// engine's buffered loop does, returning the event count.
func drainBatch(b *testing.B, tok *sax.TokenizerBytes, evs []sax.ByteEvent, doc []byte) int {
	tok.Reset(doc)
	n := 0
	for {
		k, err := tok.NextBatch(evs, math.MaxInt)
		n += k
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// drainStream runs one chunked tokenize pass, returning the event count.
func drainStream(b *testing.B, tok *sax.StreamTokenizer, doc []byte, chunk int) int {
	tok.Reset()
	n := 0
	for pos := 0; pos < len(doc); pos += chunk {
		end := pos + chunk
		if end > len(doc) {
			end = len(doc)
		}
		tok.Feed(doc[pos:end])
		if end == len(doc) {
			tok.Finish()
		}
		for {
			_, err := tok.Next()
			if err == sax.ErrNeedMoreData || err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	return n
}

func BenchmarkTokenizer(b *testing.B) {
	const chunk = 4096
	docs := []struct {
		name string
		doc  []byte
	}{
		{"news", tokenizerNewsDoc(2500)},
		{"manyattr", tokenizerManyAttrDoc(40, 250)},
	}
	for _, tc := range docs {
		b.Run(tc.name+"/whole", func(b *testing.B) {
			tok := sax.NewTokenizerBytes(tc.doc, nil)
			events := drainBytes(b, tok, tc.doc) // warm symbols + scratch
			b.SetBytes(int64(len(tc.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainBytes(b, tok, tc.doc)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
		b.Run(tc.name+"/chunked", func(b *testing.B) {
			tok := sax.NewStreamTokenizer(nil)
			events := drainStream(b, tok, tc.doc, chunk) // warm tail buffer + scratch
			b.SetBytes(int64(len(tc.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainStream(b, tok, tc.doc, chunk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
	// Whole-buffer passes one event at a time (next) and a batch at a time
	// (batch), an op being the 64 catalogs or the news feed.
	evs := make([]sax.ByteEvent, sax.BatchSize)
	batch := func(b *testing.B, tok *sax.TokenizerBytes, doc []byte) int { return drainBatch(b, tok, evs, doc) }
	catalogs := tokenizerCatalogDocs()
	for _, tc := range []struct {
		name  string
		docs  [][]byte
		drain func(b *testing.B, tok *sax.TokenizerBytes, doc []byte) int
	}{
		{"catalog/next", catalogs, drainBytes},
		{"catalog/batch", catalogs, batch},
		{"news/batch", [][]byte{docs[0].doc}, batch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tok := sax.NewTokenizerBytes(nil, nil)
			size, events := 0, 0
			for _, doc := range tc.docs { // warm symbols + scratch
				size += len(doc)
				events += tc.drain(b, tok, doc)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, doc := range tc.docs {
					tc.drain(b, tok, doc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
	for _, tc := range []struct {
		name   string
		entity bool
	}{{"skim/plain", false}, {"skim/entity", true}} {
		doc := skimNewsDoc(2000, tc.entity)
		b.Run(tc.name, func(b *testing.B) {
			tok := sax.NewTokenizerBytes(doc, nil)
			skim := func() {
				tok.Reset(doc)
				for k := 0; k < 4; k++ {
					if _, err := tok.Next(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := tok.Skim(); err != nil {
					b.Fatal(err)
				}
			}
			skim() // warm symbols + scratch
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				skim()
			}
		})
	}
}

// --- the concurrent dissemination family ---
//
// Run with -cpu 1,2,4,8 to trace the scaling curve: the sequential arm
// is flat (one engine, one core), and the pool arm matches whole
// documents concurrently on engine replicas. The pool must return
// byte-identical results to the sequential engine (enforced by the
// equivalence tests); here it must buy throughput.

// mixedSubs builds the ≥1k mixed subscription workload of the scaling
// benchmark: linear shared-prefix, linear disjoint, and predicated
// shared-prefix subscriptions interleaved.
func mixedSubs(n int) []string {
	subs := make([]string, n)
	for i := range subs {
		switch i % 3 {
		case 0:
			subs[i] = fmt.Sprintf("//catalog/item/f%d", i)
		case 1:
			subs[i] = fmt.Sprintf("//p%d/c%d", i, i)
		default:
			subs[i] = fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i%(n/10+1))
		}
	}
	return subs
}

// BenchmarkSequentialVsPool compares the sequential FilterSet with the
// FilterPool on one document against a large mixed subscription set. The
// /pool arm sizes its replica count to GOMAXPROCS, so the -cpu list sweeps
// it.
func BenchmarkSequentialVsPool(b *testing.B) {
	doc := []byte(disseminationDoc(120))
	events := len(sax.MustParse(string(doc)))
	for _, n := range []int{1000, 4000} {
		subs := mixedSubs(n)
		b.Run(fmt.Sprintf("subs=%d/sequential", n), func(b *testing.B) {
			s := streamxpath.NewFilterSet()
			for i, src := range subs {
				if err := s.Add(fmt.Sprintf("s%d", i), src); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.MatchBytes(doc); err != nil { // compile + warm
				b.Fatal(err)
			}
			b.ResetTimer()
			var matched int
			for i := 0; i < b.N; i++ {
				ids, err := s.MatchBytes(doc)
				if err != nil {
					b.Fatal(err)
				}
				matched = len(ids)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
			b.ReportMetric(float64(matched), "matched")
		})
		b.Run(fmt.Sprintf("subs=%d/pool", n), func(b *testing.B) {
			p := streamxpath.NewFilterPool(0) // replicas = GOMAXPROCS
			for i, src := range subs {
				if err := p.Add(fmt.Sprintf("s%d", i), src); err != nil {
					b.Fatal(err)
				}
			}
			// Warm every replica: the idle ring is FIFO, so Workers()
			// sequential calls visit each replica exactly once.
			for w := 0; w < p.Workers(); w++ {
				if _, err := p.MatchBytes(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := p.MatchBytes(doc); err != nil {
						// FailNow must not run on a RunParallel worker
						// goroutine; Error marks the failure and we drain.
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
