package streamxpath

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
)

func mustAddSub(t *testing.T, m *matcher, id, src string) {
	t.Helper()
	if err := m.Add(id, src); err != nil {
		t.Fatalf("Add(%s, %s): %v", id, src, err)
	}
}

// TestPoolConcurrentMatch runs many concurrent MatchBytes calls against a
// FilterPool with Add/Remove churn between waves.
func TestPoolConcurrentMatch(t *testing.T) {
	p := NewFilterPool(4)
	mustAddSub(t, &p.matcher, "go", `//item[keyword = "go"]`)
	mustAddSub(t, &p.matcher, "hi", `//item[priority > 5]`)
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
				ids, err := p.MatchBytes(doc)
				if err != nil {
					t.Errorf("doc %d: %v", i, err)
					return
				}
				wantGo := i%3 != 0 && wave < 2 // "go" removed before wave 2
				wantHi := i%10 > 5
				want := []string{}
				if wantGo {
					want = append(want, "go")
				}
				if wantHi {
					want = append(want, "hi")
				}
				if !reflect.DeepEqual(ids, want) {
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
	if want := "streamxpath: recovered panic in engine: " + fmt.Sprint(pe.Recovered); err.Error() != want {
		t.Fatalf("error reads %q, want %q", err, want)
	}
}

// matchEither matches doc by MatchBytes or, when reader is set, MatchReader.
func matchEither(m *matcher, doc []byte, reader bool) ([]string, error) {
	if reader {
		return m.MatchReader(bytes.NewReader(doc))
	}
	return m.MatchBytes(doc)
}

// TestPoolPanicIsolation: an injected panic in one of a FilterPool's
// engines fails only its own call with a typed *PanicError; the engine
// re-enters the idle ring with its per-document state replaced. The index
// the engines share is left as it was, and so is its DFA memo: neither the
// quarantined engine nor the healthy one computes a transition again.
func TestPoolPanicIsolation(t *testing.T) {
	doc := faultDoc()
	p := NewFilterPool(2)
	p.SetChunkSize(512)
	for _, sub := range [][2]string{
		{"names", "//item/name"}, {"missing", "//zzz"},
		{"cheap", "//item[price < 10]/name"}, {"dear", "//item[price > 10]/name"},
	} {
		mustAddSub(t, &p.matcher, sub[0], sub[1])
	}

	// One document on each engine: the memo is warm.
	var want []string
	for range p.engs {
		var err error
		if want, err = p.MatchBytes(doc); err != nil {
			t.Fatalf("baseline MatchBytes: %v", err)
		}
	}
	index := p.Stats()
	sick, healthy := p.engs[0], p.engs[1]
	memo := healthy.Stats().DFAMaterialized

	// Checkouts alternate between the two engines, and the calls between
	// MatchBytes and MatchReader in pairs, so each method meets the sick one.
	p.fault = func(e *engine.Engine) {
		if e == sick {
			panic("injected engine fault")
		}
	}
	for i, panics := 0, 0; panics < 10; i++ {
		ids, err := matchEither(&p.matcher, doc, i/2%2 == 1)
		if i%2 == 0 {
			wantPanicError(t, err)
			panics++
			continue
		}
		if err != nil || !reflect.DeepEqual(ids, want) {
			t.Fatalf("call %d, on the healthy engine: ids = %v, %v; want %v", i, ids, err, want)
		}
	}
	st := p.Stats()
	if st.SharedStates != index.SharedStates || st.SpineSteps != index.SpineSteps || st.PredGroups != index.PredGroups || st.Subscriptions != index.Subscriptions {
		t.Errorf("the index changed with the panics:\n  now    %s\n  before %s", st, index)
	}
	if got := sick.Stats().DFAMaterialized; got != memo {
		t.Errorf("the sick engine materialized %d transitions, %d before its 10 quarantines: they restarted the memo", got, memo)
	}
	if st := sick.Stats(); st.Rebuilds != 10 {
		t.Errorf("the sick engine was rebuilt %d times, want 10", st.Rebuilds)
	}
	if got := healthy.Stats().DFAMaterialized; got != memo {
		t.Errorf("the healthy engine materialized %d transitions, %d before the panics: its memo restarted", got, memo)
	}

	p.fault = nil
	// Hit every engine at least once so each quarantined one proves it
	// rebuilt.
	for round := 0; round < 2*len(p.engs); round++ {
		got, err := p.MatchBytes(doc)
		if err != nil {
			t.Fatalf("round %d after recovery: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after recovery: ids = %v, want %v", round, got, want)
		}
	}
}

// TestRingOfOnePanicIsolation: FilterSet and Filter are the same matcher
// over a ring of one engine, so a panic inside it fails the document with a
// *PanicError instead of crashing the caller, the engine is rebuilt with
// its DFA memo kept, and the next document — by either method — matches as
// before the fault.
func TestRingOfOnePanicIsolation(t *testing.T) {
	doc := faultDoc()
	f, err := MustCompile("//item[price < 10]/name").NewFilter()
	if err != nil {
		t.Fatal(err)
	}
	set := NewFilterSet()
	mustAddSub(t, &set.matcher, "names", "//item/name")
	mustAddSub(t, &set.matcher, "missing", "//zzz")
	mustAddSub(t, &set.matcher, "cheap", "//item[price < 10]/name")
	for _, arm := range []struct {
		name string
		m    *matcher
		want []string
	}{
		{"FilterSet", &set.matcher, []string{"names", "cheap"}},
		{"Filter", &f.m, []string{"//item[price < 10]/name"}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			m := arm.m
			if ids, err := m.MatchBytes(doc); err != nil || !reflect.DeepEqual(ids, arm.want) {
				t.Fatalf("before the panics: ids = %v, %v; want %v", ids, err, arm.want)
			}
			memo := m.engs[0].Stats().DFAMaterialized
			m.fault = func(*engine.Engine) { panic("injected engine fault") }
			for _, reader := range []bool{false, true} {
				_, err := matchEither(m, doc, reader)
				wantPanicError(t, err)
			}
			m.fault = nil
			if st := m.engs[0].Stats(); st.Rebuilds != 2 {
				t.Errorf("the engine was rebuilt %d times, want 2", st.Rebuilds)
			}
			for _, reader := range []bool{false, true} {
				if ids, err := matchEither(m, doc, reader); err != nil || !reflect.DeepEqual(ids, arm.want) {
					t.Fatalf("after the panics (reader %v): ids = %v, %v; want %v", reader, ids, err, arm.want)
				}
			}
			if got := m.engs[0].Stats().DFAMaterialized; got != memo {
				t.Errorf("the engine materialized %d transitions, %d before its quarantines: they restarted the memo", got, memo)
			}
		})
	}
}

// TestPoolConcurrentPanics: every engine faults on every other document
// while concurrent MatchBytes and MatchReader callers keep all of them busy,
// so quarantines run at the same time as each other and as matches on the
// other engines. Every engine matches on the one DFA memo, which the
// quarantines leave warm — the document computes no transition the first
// match did not — and a later mutation reaches every engine.
func TestPoolConcurrentPanics(t *testing.T) {
	doc := faultDoc()
	p := NewFilterPool(4)
	p.SetChunkSize(512)
	mustAddSub(t, &p.matcher, "names", "//item/name")
	mustAddSub(t, &p.matcher, "cheap", "//item[price < 10]/name")
	want, err := p.MatchBytes(doc)
	if err != nil {
		t.Fatalf("baseline MatchBytes: %v", err)
	}
	memo := p.engs[0].Stats().DFAMaterialized
	// Only the call holding an engine runs the hook for it, so the counts
	// need no lock; the map itself is only read.
	calls := make(map[*engine.Engine]*int, len(p.engs))
	for _, e := range p.engs {
		calls[e] = new(int)
	}
	p.fault = func(e *engine.Engine) {
		n := calls[e]
		if *n++; *n%2 == 1 {
			panic("injected engine fault")
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
				ids, err := matchEither(&p.matcher, doc, (c+i)%2 == 1)
				var pe *PanicError
				if errors.As(err, &pe) {
					panics.Add(1)
					continue
				}
				if err != nil || !reflect.DeepEqual(ids, want) {
					t.Errorf("caller %d call %d: ids = %v, %v; want %v", c, i, ids, err, want)
				}
			}
		}()
	}
	wg.Wait()
	p.fault = nil
	if got := p.engs[0].Stats().DFAMaterialized; got != memo {
		t.Fatalf("%d transitions materialized after concurrent panics, %d after the first match: the memo restarted or is not shared", got, memo)
	}
	rebuilds := 0
	for _, e := range p.engs {
		rebuilds += e.Stats().Rebuilds
	}
	if n := panics.Load(); n == 0 || int64(rebuilds) != n {
		t.Errorf("%d rebuilds for %d panics", rebuilds, n)
	}

	// A mutation after the quarantines patches the one memo: every engine
	// answers for the new subscription. The idle ring is FIFO, so
	// sequential calls visit every engine.
	mustAddSub(t, &p.matcher, "prices", "//item/price")
	want = append(want, "prices")
	for round := 0; round < 2*len(p.engs); round++ {
		got, err := p.MatchBytes(doc)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after the mutation: ids = %v, %v; want %v", round, got, err, want)
		}
	}
}

// TestSetLimitsConcurrent: SetLimits calls racing on a FilterPool leave it
// reporting the budgets its engines enforce. Each round runs four pairs of
// calls at once, every call with budgets of its own — one of a pair fails
// on a breach, the other abstains; afterwards Limits() is one of them and
// every engine holds exactly it.
func TestSetLimitsConcurrent(t *testing.T) {
	p := NewFilterPool(4)
	mustAddSub(t, &p.matcher, "hi", `//item[priority > 5]`)
	for round := 0; round < 1000; round++ {
		set := map[Limits]bool{}
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			l := Limits{MaxDepth: 8*round + k + 1}
			if k%2 == 1 {
				l.Policy = LimitAbstain
			}
			set[l] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.SetLimits(l)
			}()
		}
		wg.Wait()
		got := p.Limits()
		if !set[got] {
			t.Fatalf("round %d: Limits() = %+v, which no call set", round, got)
		}
		for i, e := range p.engs {
			if e.Limits() != got {
				t.Fatalf("round %d: Limits() = %+v, engine %d enforces %+v", round, got, i, e.Limits())
			}
		}
	}
}

// feedOf builds a news feed of at least size bytes whose first item
// decides every subscription of TestPoolReaderMatchesSet.
func feedOf(size int) []byte {
	var b strings.Builder
	b.WriteString("<news>")
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "<item><title>story %d</title><keyword>go</keyword><priority>%d</priority><body><p>%s</p></body></item>",
			i, 9-i%10, strings.Repeat("text ", 20))
	}
	b.WriteString("</news>")
	return []byte(b.String())
}

// TestPoolReaderMatchesSet holds a FilterPool's reader path to the
// FilterSet's over a document sequence whose first document fills more
// than the first read and whose second fits in two: each engine reads a
// document from the same first read, whatever documents it read before, so
// ids, fragments and the reader and memory accounting are equal whichever
// engine of the ring ran it.
func TestPoolReaderMatchesSet(t *testing.T) {
	docs := [][]byte{feedOf(20 << 10), feedOf(6 << 10), feedOf(20 << 10), feedOf(6 << 10)}
	subs := []struct{ id, q string }{
		{"item", "/news/item"}, {"kw", "//keyword"}, {"hot", "//item[priority > 5]"}, {"fe", "/feed/entry"},
	}
	for _, chunk := range []int{0, 4 << 10} {
		set := NewFilterSet()
		pools := []*FilterPool{NewFilterPool(1), NewFilterPool(2), NewFilterPool(3)}
		ms := []*matcher{&set.matcher}
		for _, p := range pools {
			ms = append(ms, &p.matcher)
		}
		for _, m := range ms {
			for _, s := range subs {
				mustAddSub(t, m, s.id, s.q)
			}
			if err := m.AddExtract("x", "//item[priority > 8]/title"); err != nil {
				t.Fatal(err)
			}
			m.SetChunkSize(chunk)
		}
		for i, doc := range docs {
			want, err := set.MatchReaderResult(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pools {
				got, err := p.MatchReaderResult(bytes.NewReader(doc))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("chunk %d, doc %d (%d bytes), FilterPool(%d):\n got %+v\nwant %+v",
						chunk, i, len(doc), p.Workers(), got, want)
				}
			}
		}
	}
}
