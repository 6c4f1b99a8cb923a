// The buffered path's contract after the skim: a document is dispatched
// only until every verdict is final and validated to its end all the same,
// so every buffered surface must still answer exactly what the reference
// tokenizer (sax.ParseBytes) and the tree evaluator (internal/semantics)
// say — ids, fragments, errors, abstentions and the depth the memory
// accounting rests on — however early the document was decided and
// whatever its remainder holds.
package streamxpath_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamxpath"
	"streamxpath/internal/engine"
	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/server"
	"streamxpath/internal/tree"
	"streamxpath/internal/workload"
)

type skimSub struct {
	id, src string
	extract bool
}

// skimAnswer is one buffered match as any surface reports it.
type skimAnswer struct {
	ids       []string
	frags     map[string]string
	abstained bool
	skimmed   int64
	mem       streamxpath.MemStats
}

// bufferedSurface is one public way into the buffered path.
type bufferedSurface struct {
	name  string
	match func(doc []byte) (skimAnswer, error)
}

func answerOf(res streamxpath.MatchResult) skimAnswer {
	a := skimAnswer{ids: slices.Clone(res.MatchedIDs), abstained: res.Abstained, skimmed: res.SkimmedBytes, mem: res.MemStats}
	for _, f := range res.Fragments {
		if a.frags == nil {
			a.frags = map[string]string{}
		}
		a.frags[f.ID] = string(f.Data)
	}
	return a
}

// bufferedSurfaces builds the three engine-backed matchers that take whole
// documents — FilterSet, FilterPool and the daemon's tenant (a FilterPool
// behind the registry) — holding subs under lim.
func bufferedSurfaces(t *testing.T, subs []skimSub, lim streamxpath.Limits) []bufferedSurface {
	t.Helper()
	add := func(plain, extract func(id, q string) error) {
		for _, s := range subs {
			f := plain
			if s.extract {
				f = extract
			}
			if err := f(s.id, s.src); err != nil {
				t.Fatalf("%s %s: %v", s.id, s.src, err)
			}
		}
	}
	fs := streamxpath.NewFilterSet()
	add(fs.Add, fs.AddExtract)
	fs.SetLimits(lim)

	pool := streamxpath.NewFilterPool(2)
	add(pool.Add, pool.AddExtract)
	pool.SetLimits(lim)

	reg := server.NewRegistry(server.TenantConfig{}, nil, nil)
	t.Cleanup(reg.Close)
	tenant, err := reg.Create("t", server.TenantConfig{Limits: lim, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if _, err := tenant.PutSubscription(s.id, s.src, s.extract, nil); err != nil {
			t.Fatalf("%s %s: %v", s.id, s.src, err)
		}
	}

	return []bufferedSurface{
		{"FilterSet.MatchBytesResult", func(doc []byte) (skimAnswer, error) {
			res, err := fs.MatchBytesResult(doc)
			return answerOf(res), err
		}},
		{"FilterSet.MatchStringResult", func(doc []byte) (skimAnswer, error) {
			res, err := fs.MatchStringResult(string(doc))
			return answerOf(res), err
		}},
		{"FilterPool.MatchBytesResult", func(doc []byte) (skimAnswer, error) {
			res, err := pool.MatchBytesResult(doc)
			return answerOf(res), err
		}},
		{"Tenant.MatchBuffered", func(doc []byte) (skimAnswer, error) {
			res, err := tenant.MatchBuffered(doc)
			return skimAnswer{res.Matched, res.Fragments, res.Abstained, res.SkimmedBytes, res.Mem}, err
		}},
	}
}

// TestSkimmedTailIsStillValidated: documents of more than 16 KiB whose
// verdicts are all final within the first KiB, with every kind of
// remainder. Nothing in the remainder is dispatched; everything in it is
// still checked.
func TestSkimmedTailIsStillValidated(t *testing.T) {
	const head = `<feed><hit id="7"><k>v &amp; w</k></hit><miss></miss>`
	pad := strings.Repeat("<pad>lorem ipsum</pad>", 800) // 17,600 bytes
	subs := []skimSub{
		{"hit", "/feed/hit", true},       // fragment closed at </hit>
		{"id", "/feed/hit/@id", true},    // attribute value
		{"pred", "/feed/hit[k]", false},  // trie-routed, resolved at </hit>
		{"k", "//hit/k", false},          // descendant axis, matched
		{"dead", "/news/item", false},    // dead at <feed>
		{"deadpred", "/news[a]/b", true}, // dead at <feed>, on the trie
	}
	wantIDs := []string{"hit", "id", "pred", "k"}
	wantFrags := map[string]string{"hit": `<hit id="7"><k>v &amp; w</k></hit>`, "id": "7"}
	const budget = 4 // the head reaches level 3; tails (f) and (g) go to 5

	for _, c := range []struct {
		name, tail string
		depth      int  // deepest level of the whole document, in the engine's units
		tooDeep    bool // breaches MaxDepth 4 (at level 5)
	}{
		{"(a) well-formed", "</feed>", 3, false},
		{"(a) well-formed, deeper than anything dispatched", `<x><y><z a="1"/></y></x></feed>`, 5, true},
		{"(b) mismatched end tag", "<x></y></feed>", 0, false},
		{"(b) unclosed element", "<x></feed>", 0, false},
		{"(c) bad reference in text", "<x>&bogus;</x></feed>", 0, false},
		{"(c) bad reference in an attribute", `<x a="&#xZZ;"/></feed>`, 0, false},
		{"(d) duplicate attribute", `<x a="1" a="2"/></feed>`, 0, false},
		{"(e) text after the root", "</feed>trailing", 0, false},
		{"(e) second root", "</feed><feed/>", 0, false},
		{"(e) CDATA after the root", "</feed><![CDATA[x]]>", 0, false},
		{"(f) too deep at an element", "<x><y><z><w/></z></y></x></feed>", 5, true},
		{"(g) truncated", "<x>", 0, false},
	} {
		doc := []byte(head + pad + c.tail)
		_, syntaxErr := sax.ParseBytes(doc)
		if (syntaxErr == nil) != (c.depth > 0) {
			t.Fatalf("%s: reference tokenizer says %v", c.name, syntaxErr)
		}
		if syntaxErr == nil {
			// The case's expectations are the tree evaluator's.
			root := tree.MustParse(string(doc))
			for _, s := range subs {
				if truth := semantics.BoolEval(query.MustParse(s.src), root); truth != slices.Contains(wantIDs, s.id) {
					t.Fatalf("%s: tree evaluator says %s = %v", c.name, s.src, truth)
				}
			}
		}
		for _, lim := range []streamxpath.Limits{
			{},
			{MaxDepth: budget},
			{MaxDepth: budget, Policy: streamxpath.LimitAbstain},
			{MaxLiveTuples: 8, MaxBufferedBytes: 64, MaxTokenBytes: 64}, // never breached here
		} {
			breach := c.tooDeep && lim.MaxDepth > 0
			// failed holds a call's error to the case: the reference
			// tokenizer's syntax error, the depth breach, or none. It reports
			// whether there is no result to look at.
			failed := func(label string, err error) bool {
				switch {
				case syntaxErr != nil:
					var se, want *sax.SyntaxError
					errors.As(syntaxErr, &want)
					if !errors.As(err, &se) || *se != *want {
						t.Errorf("%s: error %v, reference tokenizer %v", label, err, syntaxErr)
					}
				case breach && lim.Policy == streamxpath.LimitFail:
					var le *streamxpath.LimitError
					if !errors.As(err, &le) || *le != (streamxpath.LimitError{Resource: "depth", Limit: budget, Observed: budget + 1}) {
						t.Errorf("%s: error %v, want a depth breach at level %d", label, err, budget+1)
					}
				case err != nil:
					t.Errorf("%s: %v", label, err)
				default:
					return false
				}
				return true
			}
			// skimmedDepth holds what every result says of the remainder:
			// skimmed but for the probed head, and counted in the depth.
			skimmedDepth := func(label string, got skimAnswer) {
				if got.abstained != breach {
					t.Errorf("%s: Abstained = %v", label, got.abstained)
				}
				if min := int64(len(doc) - 8<<10); got.skimmed < min || got.skimmed >= int64(len(doc)) {
					t.Errorf("%s: SkimmedBytes = %d of %d, want at least %d", label, got.skimmed, len(doc), min)
				}
				if wantDepth := c.depth; !breach && got.mem.MaxDepth != wantDepth {
					t.Errorf("%s: MemStats.MaxDepth = %d, want %d", label, got.mem.MaxDepth, wantDepth)
				}
				if breach && got.mem.MaxDepth != budget {
					t.Errorf("%s: abstained at MemStats.MaxDepth = %d, want %d", label, got.mem.MaxDepth, budget)
				}
			}
			for _, sf := range bufferedSurfaces(t, subs, lim) {
				label := fmt.Sprintf("%s, %s, limits %+v", c.name, sf.name, lim)
				got, err := sf.match(doc)
				if failed(label, err) {
					continue
				}
				skimmedDepth(label, got)
				if !slices.Equal(got.ids, wantIDs) {
					t.Errorf("%s: matched %v, want %v", label, got.ids, wantIDs)
				}
				if !reflect.DeepEqual(got.frags, wantFrags) {
					t.Errorf("%s: fragments %q, want %q", label, got.frags, wantFrags)
				}
			}
			// Filter is the same engine holding one subscription: each of the
			// set's queries, alone, skims and fails as the set does. Its
			// reader, which takes the head in its first chunk, stops where
			// the buffered calls skim and never sees the remainder.
			for _, sub := range subs {
				f, err := streamxpath.MustCompile(sub.src).NewFilter()
				if err != nil {
					t.Fatal(err)
				}
				f.SetLimits(lim)
				f.SetChunkSize(1 << 10)
				label := fmt.Sprintf("%s, Filter(%s), limits %+v", c.name, sub.src, lim)
				want := slices.Contains(wantIDs, sub.id)
				if ok, err := f.MatchReader(strings.NewReader(string(doc))); err != nil || ok != want {
					t.Errorf("%s: MatchReader = %v, %v, want %v", label, ok, err, want)
				}
				res, err := f.MatchBytesResult(doc)
				viaBytes, errBytes := f.MatchBytes(doc)
				viaString, errString := f.MatchString(string(doc))
				if failed(label, err) || failed(label+", MatchBytes", errBytes) || failed(label+", MatchString", errString) {
					continue
				}
				skimmedDepth(label, answerOf(res))
				if got := len(res.MatchedIDs) > 0; got != want || viaBytes != want || viaString != want {
					t.Errorf("%s: MatchBytesResult, MatchBytes, MatchString = %v, %v, %v, want %v", label, got, viaBytes, viaString, want)
				}
			}
		}
	}
}

// scanShape is a feed of the scan workload's shape and its 8
// predicate-free subscriptions, every verdict final within the first items.
func scanShape(t *testing.T) ([]skimSub, []byte) {
	t.Helper()
	var subs []skimSub
	for i, q := range []string{"/news/item", "/news/item/title", "/news//p", "/news/*/keyword",
		"/feed/entry", "//item/body/p", "/news/item/priority", "//keyword"} {
		subs = append(subs, skimSub{id: fmt.Sprintf("s%d", i), src: q})
	}
	feed, err := sax.SerializeString(workload.RandomNewsFeed(rand.New(rand.NewSource(5)), 1500).Events())
	if err != nil {
		t.Fatal(err)
	}
	return subs, []byte(feed)
}

// TestSkimmedBytes pins the counter on the benchmark's two poles: a feed
// of the scan workload's shape is skimmed but for its first kilobyte, and
// the fanout-pred topology (1,000 predicated subscriptions below
// //catalog, which no document ever decides) is never skimmed — neither
// its 2 KB documents nor a large one.
func TestSkimmedBytes(t *testing.T) {
	match := func(subs []skimSub, doc []byte) (skimmed []int64) {
		for _, sf := range bufferedSurfaces(t, subs, streamxpath.Limits{}) {
			got, err := sf.match(doc)
			if err != nil {
				t.Fatalf("%s: %v", sf.name, err)
			}
			skimmed = append(skimmed, got.skimmed)
		}
		return skimmed
	}

	scan, feed := scanShape(t)
	for _, n := range match(scan, feed) {
		if n < int64(len(feed)-1<<10) {
			t.Errorf("scan-shaped feed of %d bytes: SkimmedBytes = %d, want all but the first 1 KiB", len(feed), n)
		}
	}

	var fanout []skimSub
	for i, q := range disseminationSubs("predshared", 1000) {
		fanout = append(fanout, skimSub{id: fmt.Sprintf("s%d", i), src: q})
	}
	for _, items := range []int{40, 2000} {
		doc := disseminationDoc(items)
		for _, n := range match(fanout, []byte(doc)) {
			if n != 0 {
				t.Errorf("fanout-pred topology, %d-byte catalog: SkimmedBytes = %d, want 0", len(doc), n)
			}
		}
	}
}

// TestSkimmedFromDecidingBatch: MatchBytes probes Decided after every
// batch, so a buffered document is dispatched no further than the end of
// the batch holding the event after which Decided first holds — found here
// by feeding the scan-shaped feed one event at a time — and every byte
// after that batch is skimmed, on every buffered surface.
func TestSkimmedFromDecidingBatch(t *testing.T) {
	subs, feed := scanShape(t)
	e := engine.New()
	for _, s := range subs {
		if err := e.Add(s.id, query.MustParse(s.src)); err != nil {
			t.Fatal(err)
		}
	}
	e.Reset()
	tok := sax.NewTokenizerBytes(feed, e.Symbols())
	var offsets []int // the offset after each event
	for !e.Decided() {
		ev, err := tok.Next()
		if err != nil {
			t.Fatalf("never decided: %v after %d events", err, len(offsets))
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, tok.Offset())
	}
	// The batch holding the deciding event ends at most BatchSize-1 events
	// after it.
	decided := len(offsets) - 1
	for len(offsets) < decided+sax.BatchSize {
		if _, err := tok.Next(); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, tok.Offset())
	}
	want := int64(len(feed) - offsets[len(offsets)-1])
	for _, sf := range bufferedSurfaces(t, subs, streamxpath.Limits{}) {
		got, err := sf.match(feed)
		if err != nil {
			t.Fatalf("%s: %v", sf.name, err)
		}
		if got.skimmed < want {
			t.Errorf("%s: decided after byte %d of %d, yet SkimmedBytes = %d, want at least %d",
				sf.name, offsets[decided], len(feed), got.skimmed, want)
		}
	}
}

// TestEarlyDecision pins the early decision of a predicate: it is true the
// moment its last conjunct matches, not when its element closes. With the
// evidence first in a 260 KB <a>, a reader stops right after it and a buffer
// is skimmed from the end of the batch holding it, with the verdict
// unchanged. An
// extracting twin still gets the whole <a>: its open capture defers the exit
// to the end.
func TestEarlyDecision(t *testing.T) {
	for _, c := range []struct{ q, evidence string }{
		{"/a[c]", "<c></c>"},
		{"//a[c]", "<c></c>"},
		{"/a[p > 4]", "<p>9</p>"},
		{`/a[p = "x"]`, "<p>x</p>"},
	} {
		doc := "<a>" + c.evidence + strings.Repeat("<b>filler</b>", 20000) + "</a>"
		f, err := streamxpath.MustCompile(c.q).NewFilter()
		if err != nil {
			t.Fatal(err)
		}
		rr, err := f.MatchReaderResult(strings.NewReader(doc))
		if err != nil || len(rr.MatchedIDs) != 1 || !rr.ReaderStats.EarlyExit || rr.ReaderStats.BytesRead >= int64(len(doc)) {
			t.Errorf("%s: MatchReaderResult = %v, %+v, %v; want a match and an early exit", c.q, rr.MatchedIDs, rr.ReaderStats, err)
		}
		br, err := f.MatchBytesResult([]byte(doc))
		if err != nil || len(br.MatchedIDs) != 1 || br.SkimmedBytes == 0 {
			t.Errorf("%s: MatchBytesResult = %v, skimmed %d, %v; want a match, skimmed", c.q, br.MatchedIDs, br.SkimmedBytes, err)
		}
		s := streamxpath.NewFilterSet()
		if err := s.AddExtract("x", c.q); err != nil {
			t.Fatal(err)
		}
		br, err = s.MatchBytesResult([]byte(doc))
		if err != nil || len(br.Fragments) != 1 || string(br.Fragments[0].Data) != doc {
			t.Errorf("%s: extracting twin's MatchBytesResult = %d fragments, %v; want the whole <a>", c.q, len(br.Fragments), err)
		}
		rr, err = s.MatchReaderResult(strings.NewReader(doc))
		if err != nil || len(rr.Fragments) != 1 || string(rr.Fragments[0].Data) != doc || rr.ReaderStats.EarlyExit {
			t.Errorf("%s: extracting twin's MatchReaderResult = %d fragments, %+v, %v; want the whole <a>, read to the end",
				c.q, len(rr.Fragments), rr.ReaderStats, err)
		}
	}
}

// TestOneDepthRule: the tokenizer counts depth as the engine does — a
// self-closing tag is a level, an element's attributes sit one below it —
// so a budget breaches on the same documents with the same Observed level
// whether the tokenizer checks it event by event, the engine checks it
// (the rule's reference: a tokenizer without budgets feeding an engine with
// them), or a skim checks it with no event at all; and an abstaining
// caller keeps the same verdicts either way.
func TestOneDepthRule(t *testing.T) {
	const budget = 3
	lim := limits.Limits{MaxDepth: budget}
	for _, shape := range []struct {
		tag   string
		attrs bool
	}{
		{"<n></n>", false},
		{"<n/>", false},
		{`<n a=""></n>`, true},
		{`<n a=""/>`, true},
	} {
		for level := budget - 1; level <= budget+1; level++ {
			doc := []byte(strings.Repeat("<w>", level-1) + shape.tag + strings.Repeat("</w>", level-1))
			label := fmt.Sprintf("%s at level %d, MaxDepth %d", shape.tag, level, budget)
			observed := int64(0) // 0: no breach
			switch {
			case level > budget:
				observed = int64(level)
			case shape.attrs && level+1 > budget:
				observed = int64(level + 1)
			}
			check := func(who string, err error) {
				t.Helper()
				var le *limits.Error
				switch {
				case observed == 0 && err != nil:
					t.Errorf("%s: %s: %v, want no breach", label, who, err)
				case observed > 0 && (!errors.As(err, &le) || *le != limits.Error{Resource: "depth", Limit: budget, Observed: observed}):
					t.Errorf("%s: %s: %v, want a depth breach observed at %d", label, who, err, observed)
				}
			}

			// The engine's rule, and what it had matched when it breached.
			ref := engine.New()
			for _, q := range []string{"//n", "//w"} {
				if err := ref.Add(q, query.MustParse(q)); err != nil {
					t.Fatal(err)
				}
			}
			ref.SetLimits(lim)
			check("Next loop + engine", func() error {
				tok := sax.NewTokenizerBytes(doc, ref.Symbols())
				for {
					ev, err := tok.Next()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					if err := ref.ProcessBytes(ev); err != nil {
						return err
					}
				}
			}())
			decided := ref.MatchedIDs()

			tok := sax.NewTokenizerBytes(doc, nil)
			tok.SetLimits(lim)
			events := 0
			check("tokenizer alone", func() error {
				for ; ; events++ {
					if _, err := tok.Next(); err == io.EOF {
						return nil
					} else if err != nil {
						return err
					}
				}
			}())
			for k := 0; k <= events; k++ {
				tok.Reset(doc)
				for i := 0; i < k; i++ {
					if _, err := tok.Next(); err != nil {
						t.Fatalf("%s: event %d of %d: %v", label, i, events, err)
					}
				}
				_, err := tok.Skim()
				check(fmt.Sprintf("%d × Next then Skim", k), err)
			}

			for _, policy := range []streamxpath.LimitPolicy{streamxpath.LimitFail, streamxpath.LimitAbstain} {
				fs := streamxpath.NewFilterSet()
				for _, q := range []string{"//n", "//w"} {
					if err := fs.Add(q, q); err != nil {
						t.Fatal(err)
					}
				}
				fs.SetLimits(streamxpath.Limits{MaxDepth: budget, Policy: policy})
				res, err := fs.MatchBytesResult(doc)
				if policy == streamxpath.LimitFail || observed == 0 {
					check("FilterSet", err)
					continue
				}
				if err != nil || !res.Abstained || !slices.Equal(res.MatchedIDs, decided) {
					t.Errorf("%s: FilterSet under LimitAbstain: %v abstained=%v err=%v, want %v as the engine had decided",
						label, res.MatchedIDs, res.Abstained, err, decided)
				}
			}

			// The same shape in the remainder of a decided document: only a
			// skim ever sees it.
			fs := streamxpath.NewFilterSet()
			if err := fs.Add("w", "/w"); err != nil {
				t.Fatal(err)
			}
			long := []byte("<w>" + strings.Repeat("<pad>lorem ipsum</pad>", 400) + string(doc[len("<w>"):]))
			fs.SetLimits(streamxpath.Limits{MaxDepth: budget})
			_, err := fs.MatchBytesResult(long)
			check("FilterSet, in a skimmed remainder", err)
			fs.SetLimits(streamxpath.Limits{MaxDepth: budget, Policy: streamxpath.LimitAbstain})
			res, err := fs.MatchBytesResult(long)
			if err != nil || res.Abstained != (observed > 0) || !slices.Equal(res.MatchedIDs, []string{"w"}) || res.SkimmedBytes == 0 {
				t.Errorf("%s: in a skimmed remainder under LimitAbstain: %v abstained=%v skimmed=%d err=%v",
					label, res.MatchedIDs, res.Abstained, res.SkimmedBytes, err)
			}
		}
	}
}
