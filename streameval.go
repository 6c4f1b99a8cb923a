package streamxpath

import (
	"io"
	"strings"

	"streamxpath/internal/engine"
)

// StreamEvaluator performs full query evaluation in a single streaming
// pass: it emits the string values of the nodes the query selects, in
// document order. It is the dissemination engine holding the query as one
// every-match subscription, and each candidate element's value is buffered
// only until its fate is known. A predicate is decided the moment its last
// conjunct matches (matching is monotone), so a value is emitted as soon as
// its element has closed, its predicates hold, and every earlier candidate
// has been emitted or dropped — for /a[c]/b, each b that streams past
// before the c is held until the c starts, and each one after it leaves at
// its own close. Filtering needs no such buffering; full evaluation
// inherently does, and Stats exposes it.
type StreamEvaluator struct {
	e       *engine.Engine
	chunk   int
	rs      ReaderStats
	vals    []string
	onValue func(value string)
}

// NewStreamEvaluator compiles the streaming evaluator. The query must be
// within the streamable fragment.
func (q *Query) NewStreamEvaluator() (*StreamEvaluator, error) {
	s := &StreamEvaluator{e: engine.New()}
	if err := s.e.AddEvery(q.String(), q.q); err != nil {
		return nil, err
	}
	s.e.SetEmit(func(v []byte) {
		val := string(v)
		s.vals = append(s.vals, val)
		if s.onValue != nil {
			s.onValue(val)
		}
	})
	return s, nil
}

// OnValue registers a callback invoked with each selected value the moment
// it is emitted — before the document ends, whenever the predicates allow.
// Pass nil to unregister.
func (s *StreamEvaluator) OnValue(fn func(value string)) { s.onValue = fn }

// EvaluateReader streams a document and returns the selected values in
// document order. The document is read in chunks of at most the chunk
// size (SetChunkSize; DefaultChunkSize otherwise) through the resumable byte
// tokenizer, so the input is never buffered whole — only the candidate
// values awaiting their predicates (see Stats) and the tokenizer's
// unconsumed-tail window are held. Full evaluation can never exit early:
// every selected value must be read, so the stream is always consumed to
// the end.
func (s *StreamEvaluator) EvaluateReader(r io.Reader) ([]string, error) {
	s.vals = nil
	out, err := s.e.MatchReader(nil, r, s.chunk, engine.CaptureValue)
	s.rs = readerStats(out.Read)
	if err != nil {
		return nil, err
	}
	return s.vals, nil
}

// SetChunkSize sets the largest read EvaluateReader makes (n <= 0
// restores DefaultChunkSize); reads start at 4 KiB and grow to it as
// documents fill them.
func (s *StreamEvaluator) SetChunkSize(n int) { s.chunk = n }

// ReaderStats returns the input accounting of the last EvaluateReader
// call.
func (s *StreamEvaluator) ReaderStats() ReaderStats { return s.rs }

// EvaluateString is EvaluateReader over a string.
func (s *StreamEvaluator) EvaluateString(xml string) ([]string, error) {
	return s.EvaluateReader(strings.NewReader(xml))
}

// EvalStats reports the streaming evaluator's buffering on the last
// document.
type EvalStats struct {
	// Events is the number of SAX events processed.
	Events int
	// Emitted and Dropped count the decided output candidates.
	Emitted, Dropped int
	// PeakPendingValues is the maximum number of candidate values
	// simultaneously buffered: awaiting their predicates, or behind an
	// earlier candidate that is.
	PeakPendingValues int
	// PeakBufferedBytes is the maximum total buffered text.
	PeakBufferedBytes int
}

// Stats returns the buffering statistics of the last document.
func (s *StreamEvaluator) Stats() EvalStats {
	st := s.e.EmitStats()
	return EvalStats{
		Events:            s.e.MemStats().Events,
		Emitted:           st.Emitted,
		Dropped:           st.Dropped,
		PeakPendingValues: st.PeakPending,
		PeakBufferedBytes: st.PeakBufferedBytes,
	}
}
