package parallel

import (
	"bytes"

	"errors"
	"fmt"
	"reflect"
	"streamxpath/internal/engine"
	"strings"
	"sync"
	"testing"
)

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

// TestShardedPanicIsolation: an injected panic inside one shard worker
// must fail only the in-flight document with a typed *PanicError —
// draining the broadcast ring rather than deadlocking — and the next
// document must match correctly on a rebuilt shard.
func TestShardedPanicIsolation(t *testing.T) {
	doc := faultDoc()
	s := NewSharded(4)
	defer s.Close()
	mustAdd(t, s.Add, "names", "//item/name")
	mustAdd(t, s.Add, "prices", "//item/price")
	mustAdd(t, s.Add, "missing", "//zzz")

	want, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatalf("baseline MatchBytes: %v", err)
	}
	want = append([]string(nil), want...)

	s.shards[1].fault = func() { panic("injected shard fault") }
	if _, err := s.MatchBytes(doc, engine.CaptureOff); err == nil {
		t.Fatal("MatchBytes with faulty shard: want error, got nil")
	} else {
		wantPanicError(t, err)
	}

	// The failure is per-document: with the fault cleared the quarantined
	// shard rebuilds and verdicts are byte-identical to the baseline.
	s.shards[1].fault = nil
	for round := 0; round < 3; round++ {
		got, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
		if err != nil {
			t.Fatalf("round %d after recovery: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d after recovery: ids = %v, want %v", round, got, want)
		}
	}
}

// TestShardedPanicIsolationReader: same invariants on the streaming
// path, where the tokenizer goroutine feeds the ring concurrently.
func TestShardedPanicIsolationReader(t *testing.T) {
	doc := faultDoc()
	s := NewSharded(4)
	defer s.Close()
	mustAdd(t, s.Add, "names", "//item/name")
	mustAdd(t, s.Add, "missing", "//zzz")

	want, err := idsOf(s.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff))
	if err != nil {
		t.Fatalf("baseline MatchReader: %v", err)
	}
	want = append([]string(nil), want...)

	s.shards[2].fault = func() { panic("injected shard fault") }
	if _, err := s.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff); err == nil {
		t.Fatal("MatchReader with faulty shard: want error, got nil")
	} else {
		wantPanicError(t, err)
	}

	s.shards[2].fault = nil
	got, err := idsOf(s.MatchReader(bytes.NewReader(doc), 512, engine.CaptureOff))
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after recovery: ids = %v, want %v", got, want)
	}
}

// TestShardedPanicRingDrain: repeated faulty documents interleaved with
// clean ones, under concurrent callers. A leaked batch or WaitGroup
// count would wedge the ring within a few documents; the test passing
// at all is the assertion.
func TestShardedPanicRingDrain(t *testing.T) {
	doc := faultDoc()
	s := NewSharded(4)
	defer s.Close()
	mustAdd(t, s.Add, "names", "//item/name")

	s.shards[0].fault = func() { panic("permanent shard fault") }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.MatchBytes(doc, engine.CaptureOff); err == nil {
					t.Error("faulty shard: want error, got nil")
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	s.shards[0].fault = nil
	ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
	if err != nil || len(ids) != 1 {
		t.Fatalf("after clearing fault: ids=%v err=%v", ids, err)
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
