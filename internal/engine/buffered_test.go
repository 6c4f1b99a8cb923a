package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/limits"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
	"streamxpath/internal/workload"
)

// randomSet draws a subscription set and a document for the two properties
// below, alternating between two generators: workload's redundancy-free
// predicated queries with a document biased towards their names (every
// subscription on the trie; verdicts close late), and the churn
// differential's small pool (both routes, attributes, many sets that are
// decided — often negatively — at the root element).
func randomSet(rng *rand.Rand, iter int) (subs []churnSub, doc string) {
	if iter%2 == 0 {
		data := make([]byte, 256)
		rng.Read(data)
		d := &dice{data: data}
		for i := 1 + d.n(5); i > 0; i-- {
			subs = append(subs, churnSub{id: fmt.Sprintf("s%d", len(subs)), src: churnQuery(d), extract: d.n(3) == 0})
		}
		return subs, churnDoc(d)
	}
	names := []string{"zzz"}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		q := workload.RandomRedundancyFreeQuery(rng, 2+rng.Intn(5))
		for _, u := range q.Nodes() {
			if !u.IsRoot() && !u.IsWildcard() {
				names = append(names, u.NTest)
			}
		}
		subs = append(subs, churnSub{id: fmt.Sprintf("s%d", len(subs)), src: q.String(), extract: rng.Intn(3) == 0})
	}
	root := workload.RandomTree(rng, names, []string{"0", "3", "7", "15", "x", ""}, 5, 3)
	doc, err := sax.SerializeString(root.Events())
	if err != nil {
		panic(err) // the generator's own tree
	}
	return subs, doc
}

func sameFragments(a, b []Fragment) bool {
	return slices.EqualFunc(a, b, func(x, y Fragment) bool { return x.ID == y.ID && string(x.Data) == string(y.Data) })
}

// TestDecidedIsFinal is the property MatchBytes's skim (and the reader
// path's early exit) rests on: probing after every event, once Decided
// reports true it never reports false again, and the matched ids — and
// with extraction the fragments — it stands on are already those of
// EndDocument and of the tree evaluator.
func TestDecidedIsFinal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	decided, negative := 0, 0
	for iter := 0; iter < 600; iter++ {
		subs, doc := randomSet(rng, iter)
		e := New()
		e.SetCapture(CaptureSlice)
		for _, s := range subs {
			if err := s.addTo(e); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("iter %d, doc %s, subscriptions %v", iter, doc, subs)
		tok := sax.NewTokenizerBytes([]byte(doc), e.Symbols())
		var ids []string
		var frags []Fragment
		at := -1
		for n := 0; ; n++ {
			ev, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := e.ProcessBytes(ev); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			switch {
			case at < 0 && e.Decided():
				at = n
				ids, frags = e.MatchedIDs(), e.AppendFragments(nil, []byte(doc))
				if ev.Kind != sax.EndDocument {
					decided++
					if len(ids) < len(subs) {
						negative++
					}
				}
			case at >= 0 && !e.Decided():
				t.Fatalf("%s: Decided at event %d, undecided again at event %d", label, at, n)
			}
		}
		if at < 0 {
			t.Fatalf("%s: not Decided at EndDocument", label)
		}
		if final := e.MatchedIDs(); !slices.Equal(ids, final) {
			t.Fatalf("%s: matched %v when Decided (event %d), %v at EndDocument", label, ids, at, final)
		}
		if final := e.AppendFragments(nil, []byte(doc)); !sameFragments(frags, final) {
			t.Fatalf("%s: fragments %v when Decided (event %d), %v at EndDocument", label, frags, at, final)
		}
		root := tree.MustParse(doc)
		for _, s := range subs {
			if truth := semantics.BoolEval(query.MustParse(s.src), root); truth != slices.Contains(ids, s.id) {
				t.Fatalf("%s: %s %s: Decided with %v, the tree evaluator says %v", label, s.id, s.src, !truth, truth)
			}
		}
	}
	if decided < 100 || negative < 20 {
		t.Errorf("only %d documents decided before their end (%d with a negative verdict); the generators are too cold", decided, negative)
	}
}

// fullDispatch is the loop MatchBytes replaced: every event of doc goes
// to the engine.
func fullDispatch(e *Engine, doc []byte, mode CaptureMode) error {
	e.SetCapture(mode)
	e.Reset()
	tok := sax.NewTokenizerBytes(doc, e.Symbols())
	tok.SetLimits(e.Limits())
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := e.ProcessBytes(ev); err != nil {
			return err
		}
	}
}

// sameFailure compares two errors as the public surface's callers can:
// limit breaches by their fields, syntax errors by offset and message,
// whichever layer reported them.
func sameFailure(a, b error) bool {
	var la, lb *limits.Error
	if errors.As(a, &la) || errors.As(b, &lb) {
		return errors.As(a, &la) && errors.As(b, &lb) && *la == *lb
	}
	var sa, sb *sax.SyntaxError
	if errors.As(a, &sa) || errors.As(b, &sb) {
		return errors.As(a, &sa) && errors.As(b, &sb) && *sa == *sb
	}
	return a == nil && b == nil
}

// TestMatchBufferedEqualsFullDispatch: at every batch length from 1 to
// sax.BatchSize — so the skim begins at every point a verdict set can close
// at, mid-tag included — MatchBytes reports what dispatching every event
// reports: ids, fragments, error, and the depth the memory accounting takes
// its log d from. The documents are random, whole and with one byte
// damaged, with and without a depth budget.
func TestMatchBufferedEqualsFullDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const alphabet = "<>/&;=\"' x"
	batch := make([]sax.ByteEvent, sax.BatchSize)
	skims := 0
	for iter := 0; iter < 300; iter++ {
		subs, doc := randomSet(rng, iter)
		if iter%3 == 2 {
			mut := []byte(doc)
			mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			doc = string(mut)
		}
		ref, e := New(), New()
		for _, s := range subs {
			if err := s.addTo(ref); err != nil {
				t.Fatal(err)
			}
			if err := s.addTo(e); err != nil {
				t.Fatal(err)
			}
		}
		if iter%2 == 1 {
			ref.SetLimits(limits.Limits{MaxDepth: 4})
			e.SetLimits(limits.Limits{MaxDepth: 4})
		}
		wantErr := fullDispatch(ref, []byte(doc), CaptureSlice)
		wantIDs, wantFrags, wantMem := ref.MatchedIDs(), ref.AppendFragments(nil, []byte(doc)), ref.MemStats()
		for size := 1; size <= len(batch); size++ {
			e.batch = batch[:size]
			out, err := e.MatchBytes(nil, []byte(doc), CaptureSlice)
			label := fmt.Sprintf("iter %d, doc %s, subscriptions %v, batches of %d", iter, doc, subs, size)
			if !sameFailure(err, wantErr) {
				t.Fatalf("%s: error %v, full dispatch %v", label, err, wantErr)
			}
			if got := e.MatchedIDs(); !slices.Equal(got, wantIDs) {
				t.Fatalf("%s: matched %v, full dispatch %v", label, got, wantIDs)
			}
			if got := e.AppendFragments(nil, []byte(doc)); !sameFragments(got, wantFrags) {
				t.Fatalf("%s: fragments %v, full dispatch %v", label, got, wantFrags)
			}
			if got := e.MemStats(); got.MaxDepth != wantMem.MaxDepth || got.LowerBoundBits != wantMem.LowerBoundBits {
				t.Fatalf("%s: MemStats %s, full dispatch %s", label, got, wantMem)
			}
			if out.Skimmed > 0 {
				skims++
				if err == nil && !e.Finished() {
					t.Fatalf("%s: skimmed %d bytes to the end, engine not finished", label, out.Skimmed)
				}
			}
		}
	}
	if skims < 500 {
		t.Errorf("only %d runs skimmed; the generators are too cold", skims)
	}
}

// batchEnd is the offset at which the batch of sax.BatchSize events that
// reaches offset mark of doc ends: where MatchBytes starts skimming a
// document the event ending at mark decides.
func batchEnd(t *testing.T, doc []byte, mark int) int {
	t.Helper()
	tok := sax.NewTokenizerBytes(doc, nil)
	evs := make([]sax.ByteEvent, sax.BatchSize)
	for tok.Offset() < mark {
		if _, err := tok.NextBatch(evs); err != nil {
			t.Fatalf("offset %d of %d: %v", tok.Offset(), len(doc), err)
		}
	}
	return tok.Offset()
}

// TestMatchBufferedSkimTriggers: a document is skimmed from the end of the
// batch in which Decided first holds, however short the document, and
// Decided's own refusals — no subscription, an open capture, a pending
// conditional commit — mean no skim, not a wrong one.
func TestMatchBufferedSkimTriggers(t *testing.T) {
	pad := strings.Repeat("<pad>lorem ipsum</pad>", 400) // 8,800 bytes, 1,200 events
	doc := func(body string) []byte { return []byte("<r>" + body + "</r>") }
	type sub struct {
		src     string
		extract bool
	}
	for _, c := range []struct {
		name string
		subs []sub
		doc  []byte
		mode CaptureMode
		// decidedAt is the text whose last byte ends the deciding event,
		// "" for a document MatchBytes dispatches to its end.
		decidedAt string
		matched   int
	}{
		{"no subscriptions: never decided", nil, doc(pad), CaptureOff, "", 0},
		{"matched at once: skimmed from the first batch", []sub{{"/r/pad", false}}, doc(pad), CaptureOff, "<r><pad>", 1},
		{"dead at the root: skimmed from the first batch", []sub{{"/other/pad", false}}, doc(pad), CaptureOff, "<r>", 0},
		{"under 1 KiB: skimmed from the first batch", []sub{{"/r/pad", false}}, doc(pad[:40*22]), CaptureOff, "<r><pad>", 1},
		{"one batch: nothing left to skim", []sub{{"/r/pad", false}}, doc("<pad/>"), CaptureOff, "", 1},
		{"matched only at the end: nothing left to skim", []sub{{"/r/last", false}}, doc(pad + "<last/>"), CaptureOff, "", 1},
		{"capture open over a batch: skimmed from the batch that closes it", []sub{{"/r/wrap", true}},
			doc("<wrap>" + pad + "</wrap>" + pad), CaptureSlice, "</wrap>", 1},
		{"capture open to the end: not skimmed", []sub{{"/r", true}}, doc(pad), CaptureSlice, "", 1},
		{"the same subscription, boolean call: skimmed", []sub{{"/r", true}}, doc(pad), CaptureOff, "<r>", 1},
		{"conditional commit pending to the end: not skimmed", []sub{{"/r[flag]/pad", false}}, doc(pad + "<flag/>"), CaptureOff, "", 1},
	} {
		e := New()
		for i, s := range c.subs {
			cs := churnSub{id: fmt.Sprintf("s%d", i), src: s.src, extract: s.extract}
			if err := cs.addTo(e); err != nil {
				t.Fatal(err)
			}
		}
		out, err := e.MatchBytes(nil, c.doc, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := 0
		if c.decidedAt != "" {
			want = len(c.doc) - batchEnd(t, c.doc, strings.Index(string(c.doc), c.decidedAt)+len(c.decidedAt))
		}
		if int(out.Skimmed) != want || e.MatchedCount() != c.matched {
			t.Errorf("%s: skimmed %d of %d bytes (want %d), matched %d (want %d)", c.name, out.Skimmed, len(c.doc), want, e.MatchedCount(), c.matched)
		}
		if !e.Finished() {
			t.Errorf("%s: engine not finished", c.name)
		}
	}
}

// TestMatchBufferedAfterSkim: a skim leaves the engine finished with
// elements still open on its side; the next document, a mutation and the
// document after it must not notice.
func TestMatchBufferedAfterSkim(t *testing.T) {
	e := New()
	mustAdd(t, e, "pad", "//item/pad")
	mustAdd(t, e, "pred", "//item[flag]/pad")
	decidedEarly := []byte("<r><item><flag/><pad/></item>" + strings.Repeat("<item><pad>x</pad></item>", 400) + "</r>")
	for round := 0; round < 2; round++ {
		if out, err := e.MatchBytes(nil, decidedEarly, CaptureOff); err != nil || out.Skimmed == 0 || len(out.IDs) != 2 {
			t.Fatalf("round %d: skimmed %d, matched %v, err %v", round, out.Skimmed, out.IDs, err)
		}
		if got := run(t, e, "<r><item><pad/></item></r>"); !got["pad"] || got["pred"] {
			t.Fatalf("round %d: event-driven document after a skim: %v", round, got)
		}
		if _, err := e.MatchBytes(nil, decidedEarly, CaptureOff); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, e, fmt.Sprintf("late%d", round), "/other/late") // dead at <r>
		if e.Decided() || e.MatchedCount() != 0 {
			t.Fatalf("round %d: a mutation after a skimmed document left its verdicts standing", round)
		}
	}
}

// TestEngineRejectsSecondRoot: Decided counts on only the root element's
// subtree producing elements, so the engine refuses a second root as the
// tokenizers do.
func TestEngineRejectsSecondRoot(t *testing.T) {
	e := New()
	mustAdd(t, e, "b", "/b")
	events := []sax.Event{sax.StartDoc(), sax.Start("a"), sax.End("a")}
	if err := feed(e, events...); err != nil {
		t.Fatal(err)
	}
	if !e.Decided() {
		t.Fatal("/b is still open after the root <a> has closed")
	}
	if err := feed(e, sax.Start("b")); err == nil || e.Matched("b") {
		t.Fatalf("second root: err = %v, matched = %v", err, e.Matched("b"))
	}
	e.Reset()
	if got := run(t, e, "<b/>"); !got["b"] {
		t.Fatal("the engine did not recover from a refused second root")
	}
}
