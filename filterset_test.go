package streamxpath

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamxpath/internal/core"
	"streamxpath/internal/naive"
	"streamxpath/internal/sax"
)

// referenceVerdict is the paper's answer: the Section 8 filter
// (internal/core) over the string tokenizer. Filter is a one-subscription
// engine, so a set checked against a Filter alone is the engine checked
// against itself; this is the independent side.
func referenceVerdict(t *testing.T, src, doc string) bool {
	t.Helper()
	ok, err := core.FilterXML(MustCompile(src).q, doc)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestFilterSetEmptyResultNonNil is the regression test for the old
// fan-out implementation, which returned a nil slice when nothing
// matched.
func TestFilterSetEmptyResultNonNil(t *testing.T) {
	s := NewFilterSet()
	got, err := s.MatchString("<a/>")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("empty set: MatchString = %#v, want empty non-nil slice", got)
	}
	if err := s.Add("never", "//zzz"); err != nil {
		t.Fatal(err)
	}
	got, err = s.MatchString("<a/>")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("no matches: MatchString = %#v, want empty non-nil slice", got)
	}
}

// TestFilterSetInsertionOrder: results come back in subscription
// insertion order, deterministically across runs.
func TestFilterSetInsertionOrder(t *testing.T) {
	s := NewFilterSet()
	ids := []string{"zulu", "alpha", "mike", "echo"}
	for _, id := range ids {
		if err := s.Add(id, "//hit"); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 5; run++ {
		got, err := s.MatchString("<doc><hit/></doc>")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(ids, ",") {
			t.Fatalf("run %d: MatchString = %v, want insertion order %v", run, got, ids)
		}
	}
}

// TestFilterSetOverlappingPrefixes is the dissemination stress test of
// the issue: 500 subscriptions sharing //catalog/item prefixes, verified
// subscription-by-subscription against standalone Filters, with the
// shared index collapsing the common steps.
func TestFilterSetOverlappingPrefixes(t *testing.T) {
	s := NewFilterSet()
	srcs := map[string]string{}
	for i := 0; i < 250; i++ {
		id := fmt.Sprintf("lin%d", i)
		srcs[id] = fmt.Sprintf("//catalog/item/f%d", i%40)
		if err := s.Add(id, srcs[id]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 250; i++ {
		id := fmt.Sprintf("pred%d", i)
		srcs[id] = fmt.Sprintf("//catalog/item[priority > %d]/g%d", i%5, i%40)
		if err := s.Add(id, srcs[id]); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; j < 30; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f%d/><g%d/></item>", j%7, j, j+3)
	}
	b.WriteString("</catalog>")
	doc := b.String()

	got, err := s.MatchString(doc)
	if err != nil {
		t.Fatal(err)
	}
	inSet := map[string]bool{}
	for _, id := range got {
		inSet[id] = true
	}
	matches := 0
	for id, src := range srcs {
		f, err := MustCompile(src).NewFilter()
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.MatchString(doc)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceVerdict(t, src, doc)
		if inSet[id] != want || inSet[id] != ref {
			t.Errorf("%s (%s): set=%v standalone=%v core=%v", id, src, inSet[id], want, ref)
		}
		if want {
			matches++
		}
	}
	if matches == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}

	st := s.Stats()
	if st.SharedStates*3 > st.SpineSteps {
		t.Errorf("expected ≥3x prefix sharing: %d steps collapsed to only %d states (%s)",
			st.SpineSteps, st.SharedStates, st)
	}
}

// TestFilterSetEarlyExit: a definitively matched subscription stops
// consuming events — shared steps whose subscriptions have all matched
// are no longer offered candidates — without perturbing other
// subscriptions.
func TestFilterSetEarlyExit(t *testing.T) {
	tail := strings.Repeat("<item><x/><y/></item>", 300)

	s := NewFilterSet()
	if err := s.Add("early", "//item[y]/x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("late", "//finale"); err != nil {
		t.Fatal(err)
	}
	got, err := s.MatchString("<feed><item><x/><y/></item>" + tail + "<finale/></feed>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("matched %v, want both: early exit must not starve later subscriptions", got)
	}
	earlyWork := s.Stats().TupleVisits

	s2 := NewFilterSet()
	if err := s2.Add("early", "//item[y]/x"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add("late", "//finale"); err != nil {
		t.Fatal(err)
	}
	// Same document shape but the predicate never holds: no early exit.
	if _, err := s2.MatchString("<feed>" + strings.ReplaceAll(tail, "<y/>", "<z/>") + "<finale/></feed>"); err != nil {
		t.Fatal(err)
	}
	if fullWork := s2.Stats().TupleVisits; earlyWork*3 > fullWork {
		t.Errorf("definitive match did not stop event consumption: %d tuple visits (matched early) vs %d (never matched)",
			earlyWork, fullWork)
	}
}

// TestFilterSetAddAfterMatch: the standing workload may change between
// documents; a subscription added after a MatchReader call participates
// in the next document with fresh state.
func TestFilterSetAddAfterMatch(t *testing.T) {
	s := NewFilterSet()
	if err := s.Add("a", "//a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatchString("<a/>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", `//b[v > 3]`); err != nil {
		t.Fatalf("Add after MatchReader: %v", err)
	}
	got, err := s.MatchString("<a><b><v>5</v></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("after late Add: matched %v, want [a b]", got)
	}
	if !s.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	got, err = s.MatchString("<a><b><v>5</v></b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("after Remove: matched %v, want [b]", got)
	}
}

// TestFilterSetEquivalenceRandomized cross-checks the shared engine
// against both the standalone streaming filter and the buffer-everything
// naive evaluator on randomized subscription sets and documents.
func TestFilterSetEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	templates := []func() string{
		func() string { return fmt.Sprintf("//catalog/item/f%d", rng.Intn(6)) },
		func() string { return fmt.Sprintf("/catalog//item[priority > %d]", rng.Intn(8)) },
		func() string { return fmt.Sprintf(`//item[f%d = "v%d"]`, rng.Intn(4), rng.Intn(4)) },
		func() string {
			return fmt.Sprintf("//item[f%d and priority < %d]/f%d", rng.Intn(4), rng.Intn(8), rng.Intn(4))
		},
		func() string { return "//*[priority]" },
		func() string { return fmt.Sprintf(`//item[@id = "%d"]`, rng.Intn(5)) },
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
		var b strings.Builder
		b.WriteString("<catalog>")
		for j := 0; j < 1+rng.Intn(6); j++ {
			fmt.Fprintf(&b, `<item id="%d"><priority>%d</priority>`, rng.Intn(5), rng.Intn(10))
			for k := 0; k < rng.Intn(4); k++ {
				fmt.Fprintf(&b, "<f%d>v%d</f%d>", k, rng.Intn(4), k)
			}
			b.WriteString("</item>")
		}
		b.WriteString("</catalog>")
		doc := b.String()

		got, err := s.MatchString(doc)
		if err != nil {
			t.Fatal(err)
		}
		inSet := map[string]bool{}
		for _, id := range got {
			inSet[id] = true
		}
		events, err := sax.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		for id, src := range srcs {
			f, err := MustCompile(src).NewFilter()
			if err != nil {
				t.Fatal(err)
			}
			standalone, err := f.MatchString(doc)
			if err != nil {
				t.Fatal(err)
			}
			nv := naive.New(MustCompile(src).q)
			buffered, err := nv.ProcessAll(sax.ExpandAttributes(events))
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceVerdict(t, src, doc)
			if inSet[id] != standalone || inSet[id] != buffered || inSet[id] != ref {
				t.Fatalf("trial %d: %s (%s): set=%v standalone=%v naive=%v core=%v\ndoc: %s",
					trial, id, src, inSet[id], standalone, buffered, ref, doc)
			}
		}
	}
}
