package streamxpath

import (
	"fmt"
	"io"
	"strings"

	"streamxpath/internal/sax"
	"streamxpath/internal/streameval"
)

// StreamEvaluator performs full query evaluation in a single streaming
// pass: it emits the string values of the nodes the query selects, in
// document order, buffering each candidate only until its governing
// predicates resolve. (Filtering needs no buffering; full evaluation
// inherently does — the value of /a[c]/b's first b cannot be released
// until the c arrives. The evaluator's Stats expose that buffering.)
type StreamEvaluator struct {
	e *streameval.Evaluator
	// Chunked-reader state of EvaluateReader: resumable tokenizer, chunk
	// size (0 = DefaultChunkSize), last-call stats, cached event callback.
	stok   *sax.StreamTokenizer
	chunk  int
	rs     ReaderStats
	procFn func(ev sax.ByteEvent) error
}

// NewStreamEvaluator compiles the streaming evaluator. The query must be
// within the streamable fragment and must select element or attribute
// values (not the document root).
func (q *Query) NewStreamEvaluator() (*StreamEvaluator, error) {
	e, err := streameval.Compile(q.q)
	if err != nil {
		return nil, err
	}
	return &StreamEvaluator{e: e}, nil
}

// OnValue registers a callback invoked with each selected value as soon as
// its fate is decided — before the document ends, whenever the predicates
// allow. Pass nil to unregister.
func (s *StreamEvaluator) OnValue(fn func(value string)) { s.e.Emit = fn }

// EvaluateReader streams a document and returns the selected values in
// document order. The document is read in fixed-size chunks
// (SetChunkSize; DefaultChunkSize otherwise) through the resumable byte
// tokenizer, so the input is never buffered whole — only the evaluator's
// own candidate buffering (see Stats) and the tokenizer's
// unconsumed-tail window are held. Full evaluation can never exit early:
// every selected value must be read, so the stream is always consumed to
// the end.
func (s *StreamEvaluator) EvaluateReader(r io.Reader) ([]string, error) {
	s.e.Reset()
	if s.stok == nil {
		s.stok = sax.NewStreamTokenizer(nil)
		tab := s.stok.Table()
		s.procFn = func(ev sax.ByteEvent) error {
			// The evaluator buffers and emits string values, so its event
			// surface stays the string Event; symbol names resolve without
			// copying, text payloads are materialized per event.
			return s.e.Process(ev.Event(tab))
		}
	} else {
		s.stok.Reset()
	}
	var ss sax.StreamStats
	_, err := s.stok.Drive(r, s.chunk, &ss, s.procFn, nil, nil)
	s.rs = readerStats(ss)
	if err != nil {
		return nil, err
	}
	if res := s.e.Results(); res != nil {
		return res, nil
	}
	if s.e.Stats().Events == 0 {
		return nil, fmt.Errorf("streamxpath: empty document stream")
	}
	return nil, nil
}

// SetChunkSize sets the read granularity of EvaluateReader (n <= 0
// restores DefaultChunkSize).
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
	// PeakPendingValues is the maximum number of values simultaneously
	// buffered awaiting predicate resolution.
	PeakPendingValues int
	// PeakBufferedBytes is the maximum total buffered text.
	PeakBufferedBytes int
}

// Stats returns the buffering statistics of the last document.
func (s *StreamEvaluator) Stats() EvalStats {
	st := s.e.Stats()
	return EvalStats{
		Events:            st.Events,
		Emitted:           st.Emitted,
		Dropped:           st.Dropped,
		PeakPendingValues: st.PeakPendingCandidates,
		PeakBufferedBytes: st.PeakBufferedBytes,
	}
}
