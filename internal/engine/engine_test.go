package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/core"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// feed hands the engine events of the reference tokenizer (sax.Parse) or
// hand-built ones through its one event surface, ProcessBytes: attribute
// lists are expanded into attribute child events as the byte tokenizer
// emits them (the paper's folding of the attribute axis into the child
// axis) and names are interned into the engine's table. The events carry
// no offsets, so of the capture modes only CaptureSerial applies.
func feed(e *Engine, events ...sax.Event) error {
	for _, ev := range sax.ExpandAttributes(events) {
		be := sax.ByteEvent{Kind: ev.Kind, Data: []byte(ev.Data), Attribute: ev.Attribute}
		if ev.Kind == sax.StartElement || ev.Kind == sax.EndElement {
			be.Sym = e.Symbols().Intern(ev.Name)
		}
		if err := e.ProcessBytes(be); err != nil {
			return err
		}
	}
	return nil
}

// run streams one document (given as XML) through a fresh pass.
func run(t *testing.T, e *Engine, xml string) map[string]bool {
	t.Helper()
	events, err := sax.Parse(xml)
	if err != nil {
		t.Fatalf("parse %q: %v", xml, err)
	}
	if err := feed(e, events...); err != nil {
		t.Fatalf("process %q: %v", xml, err)
	}
	if !e.Finished() {
		t.Fatalf("document %q ended prematurely", xml)
	}
	out := map[string]bool{}
	for _, id := range e.MatchedIDs() {
		out[id] = true
	}
	return out
}

func mustAdd(t *testing.T, e *Engine, id, src string) {
	t.Helper()
	if err := e.Add(id, query.MustParse(src)); err != nil {
		t.Fatalf("Add(%s, %s): %v", id, src, err)
	}
}

func TestEngineRouting(t *testing.T) {
	e := New()
	mustAdd(t, e, "linear", "//a/b")
	mustAdd(t, e, "pred", "//a[c]/b")
	mustAdd(t, e, "attr", "//a/@id")
	st := e.Stats()
	if st.NFARouted != 1 || st.TrieRouted != 2 {
		t.Errorf("routing = nfa:%d trie:%d, want nfa:1 trie:2 (%s)", st.NFARouted, st.TrieRouted, st)
	}
}

// TestEngineCommitIsolation: a subscription's match must not be gated by
// an unrelated subscription's open predicate scope, even when the match
// occurs inside that scope's document range.
func TestEngineCommitIsolation(t *testing.T) {
	e := New()
	mustAdd(t, e, "gated", "//a[p]/q")
	mustAdd(t, e, "free", "//x/y")
	got := run(t, e, "<a><x><y/></x></a>")
	if got["gated"] {
		t.Errorf("//a[p]/q matched with no p and no q")
	}
	if !got["free"] {
		t.Errorf("//x/y must match independently of //a[p]'s failed predicate")
	}
}

// TestEngineConditionalCommit: a terminal reached below a predicated step
// resolves with that step's predicate — kept if it holds, dropped if not.
func TestEngineConditionalCommit(t *testing.T) {
	cases := []struct {
		doc  string
		want bool
	}{
		{"<a><p/><b/></a>", true},         // predicate and child both present
		{"<a><b/><p/></a>", true},         // order within the element is irrelevant
		{"<a><a><b/></a><p/></a>", false}, // b is a child of the inner (p-less) a
		{"<a><a><p/><b/></a></a>", true},  // the inner a carries both
		{"<a><b/></a>", false},            // predicate fails: conditional match dropped
	}
	for _, c := range cases {
		e := New()
		mustAdd(t, e, "s", "//a[p]/b")
		got := run(t, e, c.doc)
		if got["s"] != c.want {
			t.Errorf("//a[p]/b on %s = %v, want %v", c.doc, got["s"], c.want)
		}
	}
}

func TestEngineSharedValueRestrictedPrefix(t *testing.T) {
	e := New()
	mustAdd(t, e, "x", `//item[price > 5]/x`)
	mustAdd(t, e, "y", `//item[price > 5]/y`)
	st := e.Stats()
	// //item[price > 5] shared: 2 distinct leaf steps hang off one shared
	// predicated step — 3 spine states (plus one shared predicate leaf)
	// for 4 total steps.
	if st.SharedStates != 3 || st.PredNodes != 1 {
		t.Errorf("SharedStates = %d PredNodes = %d, want 3 and 1 (%s)", st.SharedStates, st.PredNodes, st)
	}
	got := run(t, e, "<item><price>7</price><x/></item>")
	if !got["x"] || got["y"] {
		t.Errorf("got %v, want x only", got)
	}
	got = run(t, e, "<item><price>3</price><x/><y/></item>")
	if len(got) != 0 {
		t.Errorf("price 3 must match nothing, got %v", got)
	}
}

func TestEngineAttributePredicate(t *testing.T) {
	e := New()
	mustAdd(t, e, "s", `//item[@id = "7"]`)
	if got := run(t, e, `<doc><item id="7"/></doc>`); !got["s"] {
		t.Errorf("attribute predicate missed")
	}
	if got := run(t, e, `<doc><item id="8"/></doc>`); got["s"] {
		t.Errorf("attribute predicate false positive")
	}
}

func TestEngineDuplicateQueriesShareEverything(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		mustAdd(t, e, fmt.Sprintf("s%d", i), `//a[b > 1]/c`)
	}
	st := e.Stats()
	if st.SharedStates != 2 || st.PredNodes != 1 { // a[b>1] and c, plus the predicate leaf b
		t.Errorf("10 identical subscriptions should share one path: SharedStates = %d PredNodes = %d (%s)", st.SharedStates, st.PredNodes, st)
	}
	got := run(t, e, "<a><b>2</b><c/></a>")
	if len(got) != 10 {
		t.Errorf("all 10 duplicates must match, got %d", len(got))
	}
}

func TestEngineAddRemoveBetweenDocuments(t *testing.T) {
	e := New()
	mustAdd(t, e, "a", "//a")
	if got := run(t, e, "<a/>"); !got["a"] {
		t.Fatal("warm-up doc missed")
	}
	// Add after a completed document (the dissemination server's standing
	// workload changes between feed items).
	mustAdd(t, e, "b", "//b")
	got := run(t, e, "<a><b/></a>")
	if !got["a"] || !got["b"] {
		t.Errorf("after Add: got %v, want both", got)
	}
	if !e.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if e.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	got = run(t, e, "<a><b/></a>")
	if got["a"] || !got["b"] {
		t.Errorf("after Remove: got %v, want b only", got)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
}

func TestEngineRejectsUnstreamable(t *testing.T) {
	e := New()
	for _, src := range []string{`/a[b or c]`, `/a[not(b)]`} {
		if err := e.Add("s", query.MustParse(src)); err == nil {
			t.Errorf("Add(%s) accepted; want streamable-fragment error", src)
		}
	}
	if err := e.Add("dup", query.MustParse("/a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Add("dup", query.MustParse("/b")); err == nil {
		t.Error("duplicate id accepted")
	}
}

// TestEngineRefusesQueryWithNoStep: a query with no location step, which
// the parser never returns but a hand-built query.Query can be, is refused
// by every Add before it changes anything — the document in flight goes on,
// and the engine matches as it did.
func TestEngineRefusesQueryWithNoStep(t *testing.T) {
	e := New()
	mustAdd(t, e, "q", "//a[b]")
	bare := &query.Query{Root: &query.Node{Axis: query.AxisRoot}}
	if err := feed(e, sax.StartDoc(), sax.Start("a")); err != nil {
		t.Fatal(err)
	}
	for name, add := range map[string]func(string, *query.Query) error{"Add": e.Add, "AddExtract": e.AddExtract, "AddEvery": e.AddEvery} {
		if err := add("bare", bare); err == nil {
			t.Errorf("%s accepted a query with no location step", name)
		}
	}
	if err := feed(e, sax.Start("b"), sax.End("b"), sax.End("a"), sax.EndDoc()); err != nil {
		t.Fatalf("the document in flight was abandoned: %v", err)
	}
	if got := e.MatchedIDs(); !slices.Equal(got, []string{"q"}) || e.Len() != 1 {
		t.Fatalf("matched %v of %v, want [q] of [q]", got, e.IDs())
	}
	out, err := e.MatchBytes(nil, []byte("<a><c/></a>"), CaptureOff)
	if err != nil || len(out.IDs) != 0 {
		t.Fatalf("next document: matched %v, %v; want none", out.IDs, err)
	}
	if st := e.Stats(); st.Subscriptions != 1 || st.TrieRouted != 1 || st.SharedStates != 1 {
		t.Fatalf("the index changed: %s", st)
	}
}

func TestEngineMalformedStream(t *testing.T) {
	e := New()
	mustAdd(t, e, "s", "//a")
	if err := feed(e, sax.Start("a")); err == nil {
		t.Error("startElement before startDocument accepted")
	}
	e.Reset()
	if err := feed(e, sax.StartDoc()); err != nil {
		t.Fatal(err)
	}
	if err := feed(e, sax.End("a")); err == nil {
		t.Error("unmatched endElement accepted")
	}
}

// TestEngineEarlyExit: once every subscription through a shared step has
// matched, the step stops accepting candidates, so the per-event tuple
// work drops — the monotone early exit of the fan-out FilterSet carried
// over to shared state.
func TestEngineEarlyExit(t *testing.T) {
	body := strings.Repeat("<item><x/><y/></item>", 200)
	matchEarly := "<feed><item><x/><y/></item>" + body + "</feed>"
	matchNever := "<feed>" + strings.ReplaceAll(body, "<x/>", "<z/>") + "</feed>"

	visits := func(doc string) int {
		e := New()
		mustAdd(t, e, "s", "//item[y]/x") // trie route (predicate)
		events, err := sax.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := feed(e, events...); err != nil {
			t.Fatal(err)
		}
		return e.Stats().TupleVisits
	}
	early, never := visits(matchEarly), visits(matchNever)
	if early*4 > never {
		t.Errorf("early-exit did not cut tuple work: %d visits when matched early vs %d when never matched", early, never)
	}

	// The match is definitive mid-stream.
	e := New()
	mustAdd(t, e, "s", "//item/x")
	if err := feed(e, sax.StartDoc()); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []sax.Event{sax.Start("item"), sax.Start("x")} {
		if err := feed(e, ev); err != nil {
			t.Fatal(err)
		}
	}
	if e.MatchedCount() != 1 {
		t.Errorf("MatchedCount mid-stream = %d, want 1 (monotone match is definitive)", e.MatchedCount())
	}
}

// --- randomized equivalence against standalone core filters ---

var eqNames = []string{"a", "b", "c", "d", "e"}
var eqTexts = []string{"1", "5", "9", "go", "xml", ""}

// randQuery generates a random query in (mostly) the streamable fragment
// over a small name pool, so independently generated subscriptions share
// prefixes and whole steps.
func randQuery(rng *rand.Rand) string {
	var b strings.Builder
	steps := 1 + rng.Intn(3)
	for i := 0; i < steps; i++ {
		if rng.Intn(2) == 0 {
			b.WriteString("/")
		} else {
			b.WriteString("//")
		}
		if rng.Intn(8) == 0 {
			b.WriteString("*")
		} else {
			b.WriteString(eqNames[rng.Intn(len(eqNames))])
		}
		if rng.Intn(3) == 0 {
			b.WriteString("[")
			b.WriteString(randPred(rng, 0))
			b.WriteString("]")
		}
	}
	return b.String()
}

// randPred generates a conjunction of one or two predicate paths, whose
// node tests include the wildcard: [*], [.//*], [@*], [* > 3] and the like.
func randPred(rng *rand.Rand, depth int) string {
	var conjuncts []string
	for i := 0; i < 1+rng.Intn(2); i++ {
		name := query.Wildcard
		if k := rng.Intn(len(eqNames) + 1); k < len(eqNames) {
			name = eqNames[k]
		}
		axis := ""
		switch rng.Intn(4) {
		case 0:
			axis = ".//"
		case 1:
			axis = "@"
		}
		switch rng.Intn(5) {
		case 0:
			conjuncts = append(conjuncts, axis+name)
		case 1:
			conjuncts = append(conjuncts, fmt.Sprintf("%s%s > %d", axis, name, rng.Intn(10)))
		case 2:
			conjuncts = append(conjuncts, fmt.Sprintf("%s%s = %q", axis, name, eqTexts[rng.Intn(len(eqTexts))]))
		case 3:
			if axis != "@" && depth < 1 {
				conjuncts = append(conjuncts, fmt.Sprintf("%s[%s]", name, randPred(rng, depth+1)))
			} else {
				conjuncts = append(conjuncts, axis+name)
			}
		default:
			if axis == "@" {
				conjuncts = append(conjuncts, fmt.Sprintf("@%s < %d", name, rng.Intn(10)))
			} else {
				conjuncts = append(conjuncts, fmt.Sprintf("%s/%s < %d", name, eqNames[rng.Intn(len(eqNames))], rng.Intn(10)))
			}
		}
	}
	return strings.Join(conjuncts, " and ")
}

// randDoc generates a random document stream over the same pool,
// including attributes and text.
func randDoc(rng *rand.Rand) []sax.Event {
	var body []sax.Event
	var gen func(depth int)
	gen = func(depth int) {
		name := eqNames[rng.Intn(len(eqNames))]
		var attrs []sax.Attr
		if rng.Intn(4) == 0 {
			attrs = append(attrs, sax.Attr{Name: eqNames[rng.Intn(len(eqNames))], Value: eqTexts[rng.Intn(len(eqTexts))]})
		}
		body = append(body, sax.Start(name, attrs...))
		if rng.Intn(2) == 0 {
			body = append(body, sax.TextEvent(eqTexts[rng.Intn(len(eqTexts))]))
		}
		if depth < 4 {
			for i := 0; i < rng.Intn(4); i++ {
				gen(depth + 1)
			}
		}
		body = append(body, sax.End(name))
	}
	gen(0)
	return sax.Wrap(body)
}

// TestEngineEquivalentToStandaloneFilters is the acceptance cross-check:
// for random subscription sets and random documents, the shared engine's
// verdict for every subscription equals a standalone core.Filter's.
func TestEngineEquivalentToStandaloneFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		e := New()
		var srcs []string
		var filters []*core.Filter
		n := 1 + rng.Intn(8)
		for len(srcs) < n {
			src := randQuery(rng)
			q, err := query.Parse(src)
			if err != nil {
				t.Fatalf("generator produced unparsable %q: %v", src, err)
			}
			f, err := core.Compile(q)
			if err != nil {
				continue // outside the streamable fragment; engine.Add would reject it too
			}
			id := fmt.Sprintf("s%d", len(srcs))
			if err := e.Add(id, query.MustParse(src)); err != nil {
				t.Fatalf("engine rejected %q that core accepted: %v", src, err)
			}
			srcs = append(srcs, src)
			filters = append(filters, f)
		}
		doc := randDoc(rng)
		// Two passes over different documents back to back: the second
		// checks Reset correctness too.
		for pass := 0; pass < 2; pass++ {
			if err := feed(e, doc...); err != nil {
				t.Fatalf("trial %d: engine: %v", trial, err)
			}
			got := map[string]bool{}
			for _, id := range e.MatchedIDs() {
				got[id] = true
			}
			for i, f := range filters {
				f.Reset()
				want, err := f.ProcessAll(doc)
				if err != nil {
					t.Fatalf("trial %d: filter %q: %v", trial, srcs[i], err)
				}
				id := fmt.Sprintf("s%d", i)
				if got[id] != want {
					t.Fatalf("trial %d pass %d: %q: engine=%v standalone=%v\nsubscriptions: %v\ndoc: %v",
						trial, pass, srcs[i], got[id], want, srcs, doc)
				}
			}
			doc = randDoc(rng)
		}
	}
}

// TestEngineMatchedIDsDeterministic: ids come back in insertion order, as
// a non-nil slice, on every run.
func TestEngineMatchedIDsDeterministic(t *testing.T) {
	e := New()
	mustAdd(t, e, "zeta", "//a")
	mustAdd(t, e, "alpha", "//b")
	mustAdd(t, e, "mid", "//zzz")
	for i := 0; i < 5; i++ {
		events, _ := sax.Parse("<r><b/><a/></r>")
		if err := feed(e, events...); err != nil {
			t.Fatal(err)
		}
		got := e.MatchedIDs()
		if len(got) != 2 || got[0] != "zeta" || got[1] != "alpha" {
			t.Fatalf("MatchedIDs = %v, want [zeta alpha] (insertion order)", got)
		}
	}
	e2 := New()
	mustAdd(t, e2, "never", "//zzz")
	events, _ := sax.Parse("<r/>")
	if err := feed(e2, events...); err != nil {
		t.Fatal(err)
	}
	if got := e2.MatchedIDs(); got == nil || len(got) != 0 {
		t.Fatalf("MatchedIDs = %#v, want empty non-nil slice", got)
	}
}
