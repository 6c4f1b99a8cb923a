package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// TestPoolPanicIsolation: an injected panic in a replica fails only its
// own call with a typed *PanicError; the replica re-enters the idle
// ring quarantined and rebuilds on its next checkout.
func TestPoolPanicIsolation(t *testing.T) {
	doc := faultDoc()
	p := NewPool(2)
	mustAdd(t, p.Add, "names", "//item/name")
	mustAdd(t, p.Add, "missing", "//zzz")

	want, err := idsOf(p.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatalf("baseline MatchBytes: %v", err)
	}

	for _, r := range p.reps {
		r.fault = func() { panic("injected replica fault") }
	}
	if _, err := p.MatchBytes(doc, engine.CaptureOff); err == nil {
		t.Fatal("MatchBytes with faulty replica: want error, got nil")
	} else {
		wantPanicError(t, err)
	}
	if _, err := p.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff); err == nil {
		t.Fatal("MatchReader with faulty replica: want error, got nil")
	} else {
		wantPanicError(t, err)
	}

	for _, r := range p.reps {
		r.fault = nil
	}
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
