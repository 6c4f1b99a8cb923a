package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"streamxpath/internal/limits"
	"streamxpath/internal/query"
)

// TestMatchReaderEqualsMatchBytes: read in chunks of every size from 1 to
// 64 bytes, a document yields the ids and fragments — the document's own
// bytes — the buffered twin yields, the same read accounting wherever the reader
// delivers its EOF, and — unless the reader was abandoned at a decision
// point, which the buffered path skims past instead — the same depth for
// the memory accounting's log d.
func TestMatchReaderEqualsMatchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fullReads := 0
	for iter := 0; iter < 120; iter++ {
		subs, doc := randomSet(rng, iter)
		ref, e := New(), New()
		for _, s := range subs {
			if err := s.addTo(ref); err != nil {
				t.Fatal(err)
			}
			if err := s.addTo(e); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.MatchBytes(nil, []byte(doc), CaptureSlice)
		if err != nil {
			t.Fatalf("iter %d: the generator's own document %s: %v", iter, doc, err)
		}
		for chunk := 1; chunk <= 64; chunk++ {
			label := fmt.Sprintf("iter %d, doc %s, subscriptions %v, chunk size %d", iter, doc, subs, chunk)
			got, err := e.MatchReader(nil, strings.NewReader(doc), chunk, CaptureSlice)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.Equal(got.IDs, want.IDs) {
				t.Fatalf("%s: matched %v, buffered %v", label, got.IDs, want.IDs)
			}
			if !sameFragments(got.Frags, want.Frags) {
				t.Fatalf("%s: fragments %v, buffered %v", label, got.Frags, want.Frags)
			}
			// Where the reader delivers its EOF — with the last bytes or
			// after them — is the transport's business, not the outcome's.
			withEOF, err := e.MatchReader(nil, iotest.DataErrReader(strings.NewReader(doc)), chunk, CaptureSlice)
			if err != nil || withEOF.Read != got.Read {
				t.Fatalf("%s: read %+v when EOF comes with the last bytes, %+v when after them (err %v)", label, withEOF.Read, got.Read, err)
			}
			if got.Read.EarlyExit {
				if got.Read.DecidedNegative != (len(got.IDs) < len(subs)) {
					t.Fatalf("%s: DecidedNegative = %v with %d of %d matched", label, got.Read.DecidedNegative, len(got.IDs), len(subs))
				}
				continue
			}
			fullReads++
			if got.Read.BytesRead != int64(len(doc)) || got.Read.BytesConsumed != int64(len(doc)) {
				t.Fatalf("%s: read %+v of %d bytes", label, got.Read, len(doc))
			}
			if got.Mem.MaxDepth != want.Mem.MaxDepth || got.Mem.LowerBoundBits != want.Mem.LowerBoundBits {
				t.Fatalf("%s: MemStats %s, buffered %s", label, got.Mem, want.Mem)
			}
		}
	}
	if fullReads < 1000 {
		t.Errorf("only %d runs read their document to the end; the generators decide too early", fullReads)
	}
}

// TestMatchReaderEarlyExitLeavesEngineReusable: abandoning a reader at the
// decision point leaves elements open on the engine's side and bytes unread
// in the tokenizer's window; the next document, a mutation and the document
// after it must not notice.
func TestMatchReaderEarlyExitLeavesEngineReusable(t *testing.T) {
	e := New()
	mustAdd(t, e, "pad", "//item/pad")
	decidedEarly := "<r><item><pad/></item>" + strings.Repeat("<item><pad>x</pad></item>", 400) + "</r>"
	for round := 0; round < 2; round++ {
		out, err := e.MatchReader(nil, strings.NewReader(decidedEarly), 256, CaptureOff)
		if err != nil || !out.Read.EarlyExit || out.Read.DecidedNegative || len(out.IDs) != 1+round {
			t.Fatalf("round %d: ids %v, read %+v, err %v", round, out.IDs, out.Read, err)
		}
		if out.Read.BytesRead >= int64(len(decidedEarly))/2 {
			t.Fatalf("round %d: read %d of %d bytes", round, out.Read.BytesRead, len(decidedEarly))
		}
		out, err = e.MatchReader(nil, strings.NewReader("<r><other/></r>"), 4, CaptureOff)
		if err != nil || out.Read.EarlyExit || len(out.IDs) != 0 {
			t.Fatalf("round %d: document after an early exit: ids %v, read %+v, err %v", round, out.IDs, out.Read, err)
		}
		if got, err := e.MatchBytes(nil, []byte(decidedEarly), CaptureOff); err != nil || len(got.IDs) != 1+round {
			t.Fatalf("round %d: buffered document after an early exit: %v, %v", round, got.IDs, err)
		}
		if _, err := e.MatchReader(nil, strings.NewReader(decidedEarly), 256, CaptureOff); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, e, fmt.Sprintf("late%d", round), "/r/item") // matches at the first item
		if e.Decided() || e.MatchedCount() != 0 {
			t.Fatalf("round %d: a mutation after an abandoned document left its verdicts standing", round)
		}
	}
}

// failingReader yields data, then err.
type failingReader struct {
	data io.Reader
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if n, err := f.data.Read(p); err != io.EOF {
		return n, err
	}
	return 0, f.err
}

// TestMatchReaderErrorsKeepDecidedVerdicts: a read error mid-stream and a
// breached budget both come back with the verdicts decided before them —
// final, because matching is monotone — and leave the engine reusable.
func TestMatchReaderErrorsKeepDecidedVerdicts(t *testing.T) {
	e := New()
	mustAdd(t, e, "early", "/r/hit")
	mustAdd(t, e, "deep", "//a/b")
	errWire := errors.New("connection reset")
	head := "<r><hit/>" + strings.Repeat("<a>", 50)

	out, err := e.MatchReader(nil, &failingReader{data: strings.NewReader(head), err: errWire}, 16, CaptureOff)
	if !errors.Is(err, errWire) || !slices.Equal(out.IDs, []string{"early"}) {
		t.Fatalf("read error: ids %v, err %v", out.IDs, err)
	}
	if out.Read.BytesRead != int64(len(head)) {
		t.Fatalf("read error: BytesRead = %d, want %d", out.Read.BytesRead, len(head))
	}

	e.SetLimits(limits.Limits{MaxDepth: 20})
	whole := head + strings.Repeat("</a>", 50) + "</r>"
	out, err = e.MatchReader(nil, strings.NewReader(whole), 16, CaptureSlice) // a capture mode, for Mem
	var le *limits.Error
	if !errors.As(err, &le) || le.Resource != "depth" || !slices.Equal(out.IDs, []string{"early"}) {
		t.Fatalf("depth breach: ids %v, err %v", out.IDs, err)
	}
	if out.Mem.MaxDepth < 20 || out.Mem.MaxDepth > 22 {
		t.Fatalf("depth breach: MemStats.MaxDepth = %d, want the budget's", out.Mem.MaxDepth)
	}

	out, err = e.MatchReader(nil, bytes.NewReader([]byte("<r><hit/></r>")), 16, CaptureOff)
	if err != nil || !slices.Equal(out.IDs, []string{"early"}) {
		t.Fatalf("after the failures: ids %v, err %v", out.IDs, err)
	}
	if _, err := e.MatchReader(nil, strings.NewReader("<r><hit/>"), 16, CaptureOff); err == nil {
		t.Fatal("a truncated document was accepted")
	}
}

// TestMatchAppendsToDst: both drive loops append the matched ids to the
// caller's dst, keeping what it held, and a reader's DecidedNegative counts
// the document's verdicts, not dst's length.
func TestMatchAppendsToDst(t *testing.T) {
	e := New()
	mustAdd(t, e, "a", "/r/a")
	mustAdd(t, e, "dead", "/x/b") // decided negatively at <r>
	doc := "<r><a/>" + strings.Repeat("<p/>", 400) + "</r>"
	prefix := []string{"p0", "p1", "p2"}
	want := []string{"p0", "p1", "p2", "a"}
	out, err := e.MatchBytes(slices.Clone(prefix), []byte(doc), CaptureOff)
	if err != nil || !slices.Equal(out.IDs, want) {
		t.Fatalf("MatchBytes: ids %v, %v; want %v", out.IDs, err, want)
	}
	out, err = e.MatchReader(slices.Clone(prefix), strings.NewReader(doc), 16, CaptureOff)
	if err != nil || !slices.Equal(out.IDs, want) || !out.Read.EarlyExit || !out.Read.DecidedNegative {
		t.Fatalf("MatchReader: ids %v, read %+v, %v; want %v, a negative early exit", out.IDs, out.Read, err, want)
	}
}

// TestDecidedNegativeAfterRemove: a reader's DecidedNegative counts the
// standing subscriptions, not the result slots, which keep a removed
// subscription's record until a later Add takes it. With /r/b removed, an
// exit after <r><a/> decided every standing verdict positively, as on an
// engine that never held /r/b.
func TestDecidedNegativeAfterRemove(t *testing.T) {
	doc := "<r><a/>" + strings.Repeat("<p/>", 2000) + "</r>"
	removed := New()
	mustAdd(t, removed, "a", "/r/a")
	mustAdd(t, removed, "b", "/r/b")
	if !removed.Remove("b") {
		t.Fatal("b is not subscribed")
	}
	fresh := New()
	mustAdd(t, fresh, "a", "/r/a")
	for _, e := range []*Engine{removed, fresh} {
		out, err := e.MatchReader(nil, strings.NewReader(doc), 4096, CaptureOff)
		if err != nil || !slices.Equal(out.IDs, []string{"a"}) || !out.Read.EarlyExit || out.Read.DecidedNegative {
			t.Fatalf("ids %v, read %+v, %v; want [a] and an all-positive early exit", out.IDs, out.Read, err)
		}
	}
}

// TestOneTokenizerServesBothPaths: an engine reads its buffered and its
// chunked documents through one tokenizer, so nothing one path leaves in it
// may reach the next call on the other. One engine alternates MatchBytes —
// on documents decided early enough that their remainder skims in helper
// pieces — MatchReader at chunks of 1, 512 and 4096, and MatchBytes again,
// over well-formed and malformed documents, under no budget, budgets it
// breaches and the abstain policy, with extraction on and off; each call's
// Outcome and error must be, field by field, what a fresh engine over the
// same index gives for it. CI runs it under -race at -cpu 1,4: the skim
// helpers read the tokenizer's job on other cores, and that tokenizer then
// serves the reader path.
func TestOneTokenizerServesBothPaths(t *testing.T) {
	e := New()
	mustAdd(t, e, "a", "/r/a")
	mustAdd(t, e, "bc", "/r/b[c]")
	if err := e.AddExtract("k", query.MustParse(`//a[@k = "1"]`)); err != nil {
		t.Fatal(err)
	}
	var filler strings.Builder
	for i := 0; filler.Len() < 48<<10; i++ {
		fmt.Fprintf(&filler, `<p q="%d" k="v">text &amp; %d<s/></p>`, i%9, i)
	}
	var many strings.Builder // nine attributes, the last the first again
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&many, ` k%d="%d"`, i%8, i)
	}
	head := `<r><a k="1"/><b><c/></b>`
	docs := []string{
		head + filler.String() + "</r>",
		head + filler.String() + "<e" + many.String() + "/></r>", // the skim finds the duplicate
		"<r><e" + many.String() + "/><a k='1'/></r>",             // the tokenizer finds it
		`<r><a k="1"></b></r>`,
		`<r><a k="1" k="2"/></r>`,
		head + `<d><d><d><d><d><d/></d></d></d></d></d></r>`, // budgets the skim enforces
		head + `<t>` + strings.Repeat("x", 300) + `</t></r>`,
		`<r><d><d><d><d><d><d/></d></d></d></d></d><a k="1"/></r>`, // and the tokenizer
		`<r><t>` + strings.Repeat("x", 300) + `</t><a k="1"/></r>`,
		`<r><a k="1">`,
		"",
	}
	budgets := []limits.Limits{
		{},
		{MaxDepth: 5, MaxTokenBytes: 256},
		{MaxDepth: 5, MaxTokenBytes: 256, Policy: limits.Abstain},
	}
	type call struct {
		name  string
		match func(*Engine, []byte, CaptureMode) (Outcome, error)
	}
	byBytes := call{"MatchBytes", func(e *Engine, doc []byte, mode CaptureMode) (Outcome, error) {
		return e.MatchBytes(nil, doc, mode)
	}}
	calls := []call{byBytes}
	for _, chunk := range []int{1, 512, 4096} {
		calls = append(calls, call{fmt.Sprintf("MatchReader(%d)", chunk), func(e *Engine, doc []byte, mode CaptureMode) (Outcome, error) {
			return e.MatchReader(nil, bytes.NewReader(doc), chunk, mode)
		}})
	}
	calls = append(calls, byBytes)
	skims := 0
	for _, lim := range budgets {
		e.SetLimits(lim)
		for _, mode := range []CaptureMode{CaptureOff, CaptureSlice, CaptureValue} {
			for i, doc := range docs {
				for _, c := range calls {
					label := fmt.Sprintf("limits %+v, mode %d, doc %d, %s", lim, mode, i, c.name)
					got, err := c.match(e, []byte(doc), mode)
					fresh := e.Replica()
					fresh.SetLimits(lim)
					want, wantErr := c.match(fresh, []byte(doc), mode)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameFailure(err, wantErr) && !errors.Is(err, errTruncated) {
						t.Fatalf("%s: error %v, a fresh engine's %v", label, err, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: outcome\n%+v\na fresh engine's\n%+v", label, got, want)
					}
					if got.Skimmed > 32<<10 {
						skims++
					}
				}
			}
		}
	}
	if skims == 0 {
		t.Error("no remainder long enough for helper pieces was skimmed")
	}
}
