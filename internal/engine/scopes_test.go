package engine

import (
	"io"
	"slices"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// firstDecided streams doc through e event by event and returns how many
// events it had been dispatched when Decided first held, 0 if never.
func firstDecided(t *testing.T, e *Engine, doc string) int {
	t.Helper()
	e.Reset()
	tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
	first := 0
	for n := 1; ; n++ {
		ev, err := tok.Next()
		if err == io.EOF {
			return first
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ProcessBytes(ev); err != nil {
			t.Fatal(err)
		}
		if first == 0 && e.Decided() {
			first = n
		}
	}
}

// TestScopesOnlyWherePredicated pins where the trie holds scopes: a step
// whose path from the root carries no predicate opens none, and what
// continues it is offered once per element, not once per open ancestor.
// Each case pins the open scopes and the live state at their peak, and the
// verdicts against the tree evaluator.
func TestScopesOnlyWherePredicated(t *testing.T) {
	for _, c := range []struct {
		name         string
		subs         []string
		doc          string
		scopes, live int
	}{
		// One b scope, its c obligation folded into it: the two open a
		// elements are two candidates of a free step, which open nothing, so
		// b is offered once.
		{"nested free ancestors", []string{"//a//b[c]"}, "<a><a><b><c/></b></a></a>", 1, 1},
		// One state, two b steps: the free one opens nothing, and the c[x]
		// below it is offered once, below no scope; the c[x] below b[y] once
		// per b[y] scope. At <c>: b[y] and the two c scopes, each scope its
		// one obligation.
		{"free and predicated siblings", []string{"/a/b/c[x]", "/a/b[y]/c[x]"}, "<a><b><y/><c><x/></c></b></a>", 3, 3},
		{"free sibling alone", []string{"/a/b/c[x]", "/a/b[y]/c[x]"}, "<a><b><c><x/></c></b></a>", 3, 3},
		{"neither", []string{"/a/b/c[x]", "/a/b[y]/c[x]"}, "<a><b><c/><y/></b></a>", 3, 3},
	} {
		e := New()
		for i, src := range c.subs {
			mustAdd(t, e, string(rune('p'+i)), src)
		}
		if _, err := e.MatchBytes(nil, []byte(c.doc), CaptureOff); err != nil {
			t.Fatal(err)
		}
		ms := e.MemStats()
		if ms.PeakScopes != c.scopes || ms.PeakLiveTuples != c.live {
			t.Errorf("%s: %d scopes, %d live; want %d and %d", c.name, ms.PeakScopes, ms.PeakLiveTuples, c.scopes, c.live)
		}
		root := tree.MustParse(c.doc)
		for i, src := range c.subs {
			id := string(rune('p' + i))
			if want := semantics.BoolEval(query.MustParse(src), root); e.Matched(id) != want {
				t.Errorf("%s: %s %s matched %v, the tree evaluator says %v", c.name, id, src, !want, want)
			}
		}
	}

	// An extracting and an every-match terminal below a free prefix: one
	// fragment, the first b that has a c, and one emission per b element,
	// in document order, however many a elements are open above it
	// (re-serialized: CaptureSerial writes empty elements in full).
	t.Run("terminals below a free prefix", func(t *testing.T) {
		doc := "<a><a><b><c/></b><b/></a><b/></a>"
		e := New()
		if err := e.AddExtract("x", query.MustParse("//a//b[c]")); err != nil {
			t.Fatal(err)
		}
		if err := e.AddEvery("e", query.MustParse("//a//b")); err != nil {
			t.Fatal(err)
		}
		var emitted []string
		e.SetEmit(func(v []byte) { emitted = append(emitted, string(v)) })
		if _, err := e.MatchBytes(nil, []byte(doc), CaptureSerial); err != nil {
			t.Fatal(err)
		}
		frags := e.AppendFragments(nil, []byte(doc))
		if len(frags) != 1 || frags[0].ID != "x" || string(frags[0].Data) != "<b><c></c></b>" {
			t.Errorf("fragments %v, want x's <b><c></c></b> alone", frags)
		}
		if want := []string{"<b><c></c></b>", "<b></b>", "<b></b>"}; !slices.Equal(emitted, want) {
			t.Errorf("emitted %q, want %q", emitted, want)
		}
		if n := len(semantics.FullEval(query.MustParse("//a//b"), tree.MustParse(doc))); n != len(emitted) {
			t.Errorf("emitted %d values, the tree evaluator selects %d elements", len(emitted), n)
		}
		if ms := e.MemStats(); ms.PeakScopes != 1 {
			t.Errorf("%d scopes at the peak, want one b's", ms.PeakScopes)
		}
	})

	// Decided fires at the event it fired at while every step opened a
	// scope (the events are the earlier engine's): the avenues of /news's
	// scope are the NFA runner's open levels. A feed is decided at its root,
	// a news feed once an item's priority passes 3, or at its root's end.
	t.Run("Decided", func(t *testing.T) {
		e := New()
		mustAdd(t, e, "q", "/news/item[priority > 3]")
		for _, c := range []struct {
			doc   string
			event int
		}{
			{"<feed><item><priority>5</priority></item></feed>", 2},
			{"<news><x/></news>", 5},
			{"<news><item><priority>2</priority></item><item><priority>5</priority></item><x/></news>", 11},
			{"<news><item><priority>2</priority></item><x/></news>", 10},
		} {
			if got := firstDecided(t, e, c.doc); got != c.event {
				t.Errorf("%s: decided after event %d, want %d", c.doc, got, c.event)
			}
		}
	})
}
