package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamxpath/internal/engine"
	"streamxpath/internal/query"
)

// idsOf narrows a match call's outcome to its verdicts.
func idsOf(out engine.Outcome, err error) ([]string, error) { return out.IDs, err }

func mustAdd(t *testing.T, add func(string, *query.Query) error, id, src string) {
	t.Helper()
	if err := add(id, query.MustParse(src)); err != nil {
		t.Fatalf("Add(%s, %s): %v", id, src, err)
	}
}

// TestPoolConcurrentMatch runs many concurrent MatchBytes calls against a
// replica pool with Add/Remove churn between waves.
func TestPoolConcurrentMatch(t *testing.T) {
	p := NewPool(4)
	mustAdd(t, p.Add, "go", `//item[keyword = "go"]`)
	mustAdd(t, p.Add, "hi", `//item[priority > 5]`)
	docs := make([][]byte, 40)
	for i := range docs {
		kw := "go"
		if i%3 == 0 {
			kw = "xml"
		}
		docs[i] = []byte(fmt.Sprintf(`<feed><item><keyword>%s</keyword><priority>%d</priority></item></feed>`, kw, i%10))
	}
	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		for i, doc := range docs {
			wg.Add(1)
			go func(i int, doc []byte) {
				defer wg.Done()
				ids, err := idsOf(p.MatchBytes(doc, engine.CaptureOff))
				if err != nil {
					t.Errorf("doc %d: %v", i, err)
					return
				}
				wantGo := i%3 != 0 && wave < 2 // "go" removed before wave 2
				wantHi := i%10 > 5
				var want []string
				if wantGo {
					want = append(want, "go")
				}
				if wantHi {
					want = append(want, "hi")
				}
				if !reflect.DeepEqual(append([]string{}, ids...), append([]string{}, want...)) {
					t.Errorf("wave %d doc %d: got %v, want %v", wave, i, ids, want)
				}
			}(i, doc)
		}
		wg.Wait()
		if wave == 1 {
			if !p.Remove("go") {
				t.Fatal("Remove(go) failed")
			}
		}
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func faultDoc() []byte {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<item><name>n%d</name><price>9</price></item>", i)
	}
	b.WriteString("</catalog>")
	return []byte(b.String())
}

func wantPanicError(t *testing.T, err error) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want wrapped *PanicError", err)
	}
	if pe.Recovered == nil || len(pe.Stack) == 0 {
		t.Fatalf("PanicError missing payload: %+v", pe)
	}
}

// boundRunners counts the runners bound to the merged NFA of e's index, a
// field of the automaton no API reports.
func boundRunners(e *engine.Engine) int {
	return reflect.ValueOf(e).Elem().FieldByName("nfa").Elem().FieldByName("runners").Len()
}

// TestPoolPanicIsolation: an injected panic in a replica fails only its
// own call with a typed *PanicError; the replica re-enters the idle ring
// with its per-document state replaced. The index the replicas share is
// left as it was, the replaced runners are unbound from its automaton
// rather than left beside their successors, and a replica that did not
// panic keeps its DFA memo.
func TestPoolPanicIsolation(t *testing.T) {
	doc := faultDoc()
	p := NewPool(2)
	mustAdd(t, p.Add, "names", "//item/name")
	mustAdd(t, p.Add, "missing", "//zzz")
	mustAdd(t, p.Add, "cheap", "//item[price < 10]/name")
	mustAdd(t, p.Add, "dear", "//item[price > 10]/name")

	// One document on each replica: both memos are warm.
	var want []string
	for range p.reps {
		var err error
		if want, err = idsOf(p.MatchBytes(doc, engine.CaptureOff)); err != nil {
			t.Fatalf("baseline MatchBytes: %v", err)
		}
	}
	index := p.Stats()
	sick, healthy := p.reps[0], p.reps[1]
	memo := healthy.eng.Stats().DFAMaterialized

	// Checkouts alternate between the two replicas, and the calls between
	// MatchBytes and MatchReader in pairs, so each method meets the sick one.
	sick.fault = func() { panic("injected replica fault") }
	for i, panics := 0, 0; panics < 10; i++ {
		var out engine.Outcome
		var err error
		if i/2%2 == 0 {
			out, err = p.MatchBytes(doc, engine.CaptureOff)
		} else {
			out, err = p.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff)
		}
		if i%2 == 0 {
			wantPanicError(t, err)
			panics++
			continue
		}
		if err != nil || !reflect.DeepEqual(out.IDs, want) {
			t.Fatalf("call %d, on the healthy replica: ids = %v, %v; want %v", i, out.IDs, err, want)
		}
	}
	st := p.Stats()
	if st.SharedStates != index.SharedStates || st.SpineSteps != index.SpineSteps || st.PredGroups != index.PredGroups || st.Subscriptions != index.Subscriptions {
		t.Errorf("the index changed with the panics:\n  now    %s\n  before %s", st, index)
	}
	if n := boundRunners(sick.eng); n != p.Workers() {
		t.Errorf("%d runners bound to the automaton after 10 panics, want %d", n, p.Workers())
	}
	if st := sick.eng.Stats(); st.Rebuilds != 10 {
		t.Errorf("the sick replica was rebuilt %d times, want 10", st.Rebuilds)
	}
	if got := healthy.eng.Stats().DFAMaterialized; got != memo {
		t.Errorf("the healthy replica materialized %d transitions, %d before the panics: its memo restarted", got, memo)
	}

	sick.fault = nil
	// Hit every replica at least once so each quarantined engine proves
	// it rebuilt.
	for round := 0; round < 2*len(p.reps); round++ {
		got, err := idsOf(p.MatchBytes(doc, engine.CaptureOff))
		if err != nil {
			t.Fatalf("round %d after recovery: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after recovery: ids = %v, want %v", round, got, want)
		}
	}
}

// TestPoolConcurrentPanics: every replica faults on every other document
// while concurrent MatchBytes and MatchReader callers keep all of them busy,
// so quarantines run at the same time as each other and as matches on the
// other replicas. Each rebuilt replica binds a new runner to the shared
// automaton and unbinds its old one; none may be lost or doubled, and a
// later mutation must still reach every replica's memo.
func TestPoolConcurrentPanics(t *testing.T) {
	doc := faultDoc()
	p := NewPool(4)
	mustAdd(t, p.Add, "names", "//item/name")
	mustAdd(t, p.Add, "cheap", "//item[price < 10]/name")
	want, err := idsOf(p.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatalf("baseline MatchBytes: %v", err)
	}
	for _, r := range p.reps {
		// Only the call holding the replica runs its hook, so the count
		// needs no lock.
		calls := 0
		r.fault = func() {
			if calls++; calls%2 == 1 {
				panic("injected replica fault")
			}
		}
	}
	const callers, perCaller = 8, 8
	var panics atomic.Int64
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perCaller {
				var out engine.Outcome
				var err error
				if (c+i)%2 == 0 {
					out, err = p.MatchBytes(doc, engine.CaptureOff)
				} else {
					out, err = p.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff)
				}
				var pe *PanicError
				if errors.As(err, &pe) {
					panics.Add(1)
					continue
				}
				if err != nil || !reflect.DeepEqual(out.IDs, want) {
					t.Errorf("caller %d call %d: ids = %v, %v; want %v", c, i, out.IDs, err, want)
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range p.reps {
		r.fault = nil
	}
	if n := boundRunners(p.ix); n != p.Workers() {
		t.Fatalf("%d runners bound to the automaton after concurrent panics, want %d", n, p.Workers())
	}
	rebuilds := 0
	for _, r := range p.reps {
		rebuilds += r.eng.Stats().Rebuilds
	}
	if n := panics.Load(); n == 0 || int64(rebuilds) != n {
		t.Errorf("%d rebuilds for %d panics", rebuilds, n)
	}

	// A mutation after the quarantines patches every replica's runner: all
	// of them answer for the new subscription. The idle ring is FIFO, so
	// sequential calls visit every replica.
	mustAdd(t, p.Add, "prices", "//item/price")
	want = append(want, "prices")
	for round := 0; round < 2*len(p.reps); round++ {
		got, err := idsOf(p.MatchBytes(doc, engine.CaptureOff))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after the mutation: ids = %v, %v; want %v", round, got, err, want)
		}
	}
}
