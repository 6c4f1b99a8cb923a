package parallel

import (
	"bytes"
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

// TestShardedBasic checks verdicts and insertion-order merging across
// shard counts, including shard counts exceeding the subscription count.
func TestShardedBasic(t *testing.T) {
	doc := []byte(`<news><item><keyword>go</keyword><priority>7</priority></item><other/></news>`)
	for _, shards := range []int{1, 2, 3, 8} {
		s := NewSharded(shards)
		mustAdd(t, s.Add, "a", `//item[keyword = "go"]`)
		mustAdd(t, s.Add, "b", `//item[priority > 8]`)
		mustAdd(t, s.Add, "c", `/news/other`)
		mustAdd(t, s.Add, "d", `//missing`)
		for round := 0; round < 3; round++ { // reuse across documents
			ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
			if err != nil {
				t.Fatalf("shards=%d round=%d: %v", shards, round, err)
			}
			if want := []string{"a", "c"}; !reflect.DeepEqual(ids, want) {
				t.Fatalf("shards=%d round=%d: got %v, want %v", shards, round, ids, want)
			}
		}
		if !s.Remove("a") || s.Remove("zz") {
			t.Fatalf("Remove verdicts wrong")
		}
		ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"c"}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("after Remove: got %v, want %v", ids, want)
		}
		s.Close()
		if _, err := s.MatchBytes(doc, engine.CaptureOff); err == nil {
			t.Fatal("MatchBytes after Close should fail")
		}
	}
}

// TestShardedLargeDocument pushes a document well past several batch
// boundaries so the ring recycles under backpressure.
func TestShardedLargeDocument(t *testing.T) {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < 3*batchCap; i++ {
		fmt.Fprintf(&b, "<item id=\"i%d\"><f%d/>some text %d</item>", i, i%50, i)
	}
	b.WriteString("</catalog>")
	doc := []byte(b.String())

	s := NewSharded(4)
	defer s.Close()
	var want []string
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("sub%02d", i)
		mustAdd(t, s.Add, id, fmt.Sprintf("//catalog/item/f%d", i))
		want = append(want, id)
	}
	mustAdd(t, s.Add, "never", "//nope")
	ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("got %d ids, want %d: %v", len(ids), len(want), ids)
	}
}

// TestShardedAbortRecovers feeds a malformed document and checks the
// engine recovers cleanly on the next well-formed one.
func TestShardedAbortRecovers(t *testing.T) {
	s := NewSharded(3)
	defer s.Close()
	mustAdd(t, s.Add, "a", "//item")
	if _, err := s.MatchBytes([]byte("<news><item></news>"), engine.CaptureOff); err == nil {
		t.Fatal("malformed document should error")
	}
	if _, err := s.MatchBytes([]byte("<news><item"), engine.CaptureOff); err == nil {
		t.Fatal("truncated document should error")
	}
	ids, err := idsOf(s.MatchBytes([]byte("<news><item/></news>"), engine.CaptureOff))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("after aborts: got %v, want %v", ids, want)
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

// TestShardedTextHeavyDocument forces the arena byte cap: big text nodes
// dispatch batches early (full() on batchTextCap), and a single text
// event larger than the cap still transports intact.
func TestShardedTextHeavyDocument(t *testing.T) {
	s := NewSharded(2)
	defer s.Close()
	mustAdd(t, s.Add, "big", `//item[contains(body, "needle")]`)
	mustAdd(t, s.Add, "miss", `//item[contains(body, "absent")]`)
	filler := strings.Repeat("x", batchTextCap/2)
	huge := strings.Repeat("y", batchTextCap+4096) + "needle"
	doc := []byte("<feed><item><body>" + filler + "</body></item>" +
		"<item><body>" + huge + "</body></item></feed>")
	for round := 0; round < 2; round++ { // round 2 runs on recycled batches
		ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"big"}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("round %d: got %v, want %v", round, ids, want)
		}
	}
}

// TestShardedLinearOnlySkipsText: with no value-restricted predicate
// leaf anywhere, text payloads are dropped from the transport (NeedsText
// false) — verdicts must be unaffected, and adding a value predicate
// later must restore payload shipping.
func TestShardedLinearOnlySkipsText(t *testing.T) {
	s := NewSharded(2)
	defer s.Close()
	mustAdd(t, s.Add, "lin", "//feed/item/body")
	mustAdd(t, s.Add, "exist", "//item[body]") // existence predicate: no text needed
	doc := []byte(`<feed><item><body>needle text here</body></item></feed>`)
	ids, err := idsOf(s.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lin", "exist"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("linear-only: got %v, want %v", ids, want)
	}
	// A value-restricted predicate flips NeedsText; text must now ship.
	mustAdd(t, s.Add, "val", `//item[contains(body, "needle")]`)
	ids, err = idsOf(s.MatchBytes(doc, engine.CaptureOff))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lin", "exist", "val"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("after value predicate: got %v, want %v", ids, want)
	}
}

// TestAutoRouting pins the adaptive policy against the route each call
// reports: a thin subscription set always runs on a pool replica, a dense
// one fans a large document out and keeps a small one on a replica — by
// both entry points, with the reader's own byte counts either way.
func TestAutoRouting(t *testing.T) {
	small := []byte(`<catalog><item><priority>5</priority><f1/></item></catalog>`)
	var b strings.Builder
	b.WriteString("<catalog>")
	for j := 0; b.Len() < 4*autoSizeThreshold; j++ {
		fmt.Fprintf(&b, "<item><priority>%d</priority><f1/></item>", j%8)
	}
	b.WriteString("</catalog>")
	large := []byte(b.String())

	thin, dense := NewAuto(3), NewAuto(3)
	defer thin.Close()
	defer dense.Close()
	mustAdd(t, thin.Add, "f1", "//catalog/item/f1")
	mustAdd(t, thin.Add, "x", "//x")
	for i := 0; i < autoMinSubs; i++ {
		mustAdd(t, dense.Add, fmt.Sprintf("d%d", i), fmt.Sprintf("//catalog/item/f%d", i%5))
	}
	for _, c := range []struct {
		name    string
		a       *Auto
		doc     []byte
		sharded bool
		matched int
	}{
		{"thin set, small document", thin, small, false, 1},
		{"thin set, large document", thin, large, false, 1},
		{"dense set, small document", dense, small, false, (autoMinSubs + 3) / 5},
		{"dense set, large document", dense, large, true, (autoMinSubs + 3) / 5},
	} {
		out, err := c.a.MatchBytes(c.doc, engine.CaptureOff)
		if err != nil || out.Sharded != c.sharded || len(out.IDs) != c.matched {
			t.Errorf("%s: MatchBytes sharded=%v matched %d, err %v; want sharded=%v matched %d",
				c.name, out.Sharded, len(out.IDs), err, c.sharded, c.matched)
		}
		// "//x" and the f0, f2… subscriptions stay undecided to the last
		// byte, so the reader is read whole on every route.
		out, err = c.a.MatchReader(bytes.NewReader(c.doc), 4096, engine.CaptureOff)
		if err != nil || out.Sharded != c.sharded || len(out.IDs) != c.matched {
			t.Errorf("%s: MatchReader sharded=%v matched %d, err %v; want sharded=%v matched %d",
				c.name, out.Sharded, len(out.IDs), err, c.sharded, c.matched)
		}
		if n := int64(len(c.doc)); out.Read.BytesRead != n || out.Read.BytesConsumed != n || out.Read.EarlyExit {
			t.Errorf("%s: MatchReader read %+v of %d bytes", c.name, out.Read, n)
		}
	}
}
