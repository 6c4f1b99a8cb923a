package sax

import (
	"fmt"
	"io"

	"streamxpath/internal/limits"
	"streamxpath/internal/symtab"
)

// DefaultChunkSize is the largest read stream consumers make when the
// caller does not pick a chunk size: large enough that per-chunk overhead
// (one Read call, one tail compaction, one early-exit probe) amortizes to
// noise on a long document, small enough that peak memory stays a tiny
// fraction of any document worth streaming. A tokenizer reaches it only
// once its documents fill smaller reads (see FeedReader).
const DefaultChunkSize = 64 << 10

// firstGrant is the most a document's first Read asks for.
const firstGrant = 4 << 10

// StreamTokenizer is the chunked form of TokenizerBytes: the same
// zero-allocation interned-symbol event stream, produced from a document
// that arrives as arbitrary byte windows instead of one buffer. Feed (or
// FeedReader) appends a chunk, then Next drains events until it returns
// ErrNeedMoreData — the signal that the remaining bytes are a prefix of
// an incomplete construct. Internally the consumed prefix of the window
// is discarded before each refill, so the retained state is exactly the
// unconsumed tail plus the open-element stack: peak memory is bounded by
// the grant — the most one read asks for, at most the chunk size — plus
// the largest single token (a text run, tag, comment or CDATA section —
// the paper's text-width term w), never by document size, unless the
// consumer asks to keep more (DriveBatches's keep hook: a fragment being
// captured). Each document's grant starts at 4 KiB and doubles only when a
// read fills it, so a 5 KB document is read into an 8 KiB window, not the
// chunk size.
//
// The scan state crosses chunk boundaries anywhere — mid-tag, mid-name,
// mid-entity, mid-CDATA — because an incomplete construct is rewound to
// its first byte and rescanned when more data arrives. Events are
// byte-identical to running TokenizerBytes over the whole document in
// one buffer (text runs never split at chunk boundaries), which the
// differential split tests enforce at every offset.
//
// After the input ends, call Finish; Next then delivers the remaining
// events, EndDocument, and io.EOF (or the syntax error a truncated
// document deserves). A StreamTokenizer is reusable: Reset prepares it
// for the next document, keeping the symbol table and every scratch
// buffer, so steady-state streaming allocates only when the tail buffer
// must grow past its high-water mark.
//
// Contract: Feed/FeedReader may only be called before the first Next or
// after Next returned ErrNeedMoreData — pending events may alias the
// current window, and refilling slides it.
type StreamTokenizer struct {
	t     *TokenizerBytes
	buf   []byte
	batch []ByteEvent // the drive loops' NextBatch buffer (Batch)
	// grant caps what FeedReader asks one Read for, beside the chunk size:
	// 4 KiB at each document's start, doubled by each read that fills it.
	grant int
	// keep is the document offset compact keeps the window from, -1 for
	// none: what DriveBatches's keep hook last returned.
	keep int
}

// NewStreamTokenizer returns a chunked tokenizer interning names into
// tab. A nil tab allocates a fresh table (retrievable via Table).
func NewStreamTokenizer(tab *symtab.Table) *StreamTokenizer {
	s := &StreamTokenizer{t: NewTokenizerBytes(nil, tab), grant: firstGrant, keep: -1}
	s.t.streaming = true
	return s
}

// Table returns the symbol table names are interned into.
func (s *StreamTokenizer) Table() *symtab.Table { return s.t.tab }

// SetLimits configures the per-document resource budgets (the zero value
// disables them): token and depth budgets enforce inside the tokenizer,
// and MaxDocBytes bounds the total bytes DriveBatches will consume from a
// reader. Limits persist across Reset.
func (s *StreamTokenizer) SetLimits(l limits.Limits) { s.t.lim = l }

// Limits returns the configured budgets.
func (s *StreamTokenizer) Limits() limits.Limits { return s.t.lim }

// Reset prepares the tokenizer for the next document, keeping the symbol
// table and all scratch capacity. The grant starts over at 4 KiB, so how a
// document is read — and so where a reader's early exit falls — does not
// depend on the documents the tokenizer read before.
func (s *StreamTokenizer) Reset() {
	s.grant, s.keep = firstGrant, -1
	s.buf = s.buf[:0]
	s.t.Reset(s.buf)
	s.t.streaming = true
}

// Whole points the tokenizer at a document held whole in memory, keeping
// the symbol table, the limits and every scratch buffer, and returns the
// TokenizerBytes that reads it: one tokenizer then serves both a caller's
// buffered and its chunked documents. The returned tokenizer reads doc as
// NewTokenizerBytes(doc, s.Table()) under s's limits would, and is s's until
// the next Reset or Whole; doc is not copied.
func (s *StreamTokenizer) Whole(doc []byte) *TokenizerBytes {
	s.t.Reset(doc)
	s.t.streaming = false
	return s.t
}

// compact discards the consumed prefix of the window, sliding the
// unconsumed tail to the front of the scratch buffer. It keeps the bytes
// from the keep offset on, and those of a start tag suspended between
// attributes, whose StartElement, carrying the tag's offset, is still to
// come. Only valid between documents or after Next returned
// ErrNeedMoreData (the rewound position is then the start of the
// incomplete construct).
func (s *StreamTokenizer) compact() {
	t := s.t
	from := t.pos
	if t.tagActive {
		from = min(from, t.tagOff-t.base)
	}
	if s.keep >= 0 {
		from = min(from, s.keep-t.base)
	}
	if from <= 0 {
		return
	}
	tail := copy(s.buf, s.buf[from:])
	s.buf = s.buf[:tail]
	t.base += from
	t.pos -= from
	t.data = s.buf
}

// Window returns the document bytes [start, end): they must still be in the
// window — kept (DriveBatches's keep hook), or not yet consumed. The slice
// aliases the window, valid until the next Feed, FeedReader or Reset.
func (s *StreamTokenizer) Window(start, end int) []byte {
	return s.buf[start-s.t.base : end-s.t.base]
}

// Feed appends one chunk of the document. The chunk is copied into the
// internal buffer, so the caller may reuse its slice immediately.
func (s *StreamTokenizer) Feed(chunk []byte) {
	s.compact()
	s.buf = append(s.buf, chunk...)
	s.t.data = s.buf
}

// FeedReader refills the window with one Read of up to min(chunkSize,
// grant) bytes (chunkSize <= 0 selects DefaultChunkSize), taken directly
// into the internal buffer — no intermediate copy. The grant starts at
// 4 KiB and doubles, up to chunkSize, each time a read fills it; Reset
// starts it over, so a document's reads follow its own length, not the
// chunk size or the documents before it, and a chunk size of 4 KiB or less
// is every read's size. The window keeps its capacity across Reset. It
// returns the byte count and the reader's error verbatim; on io.EOF the
// caller calls Finish and drains. Like Feed it first discards the consumed
// prefix, so a steady stream of same-sized chunks reuses one buffer.
func (s *StreamTokenizer) FeedReader(r io.Reader, chunkSize int) (int, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	ask := min(chunkSize, s.grant)
	s.compact()
	need := len(s.buf) + ask
	if cap(s.buf) < need {
		// The window at least doubles what it holds: a construct, or a kept
		// capture, that spans k reads is copied O(log k) times, not k.
		grown := make([]byte, len(s.buf), max(need, 2*len(s.buf)))
		copy(grown, s.buf)
		s.buf = grown
	}
	n, err := r.Read(s.buf[len(s.buf):need])
	if n < 0 || n > need-len(s.buf) {
		// A reader violating the io.Reader contract must not corrupt (or
		// panic) the window; surface it as an error the caller can handle.
		return 0, fmt.Errorf("sax: reader returned invalid count %d", n)
	}
	s.buf = s.buf[:len(s.buf)+n]
	s.t.data = s.buf
	if n == ask && ask == s.grant && ask < chunkSize {
		s.grant = min(2*ask, chunkSize)
	}
	return n, err
}

// Finish marks the end of the input: no more chunks will be fed. Next
// then resolves the remaining bytes — completing the document or
// reporting the syntax error a truncated construct deserves.
func (s *StreamTokenizer) Finish() { s.t.final = true }

// Next returns the next event, ErrNeedMoreData when the window is
// exhausted mid-construct (feed another chunk, or Finish), or io.EOF
// after EndDocument. The Data slice of a Text event is only valid until
// the next Next, Feed or FeedReader call.
func (s *StreamTokenizer) Next() (ByteEvent, error) {
	return s.t.Next()
}

// Consumed returns the number of document bytes fully tokenized so far —
// the absolute offset of the scan position. On early exit this is how
// much of the document the consumer actually needed.
func (s *StreamTokenizer) Consumed() int { return s.t.base + s.t.pos }

// Rescanned reports the total input bytes re-examined after chunk
// boundary suspensions — the chunked parse's deviation from single-pass
// scanning. It stays O(document) regardless of where chunk boundaries
// fall; see TokenizerBytes.Rescanned.
func (s *StreamTokenizer) Rescanned() int { return s.t.Rescanned() }

// StreamStats is the input accounting of one DriveBatches call.
type StreamStats struct {
	// BytesRead is the number of bytes read from the io.Reader.
	BytesRead int64
	// BytesConsumed is the number of document bytes fully tokenized —
	// on early exit, how much of the document the verdict needed. When
	// process fails, it also counts the rest of the failing event's batch.
	BytesConsumed int64
	// Chunks is the number of non-empty reads.
	Chunks int
	// EarlyExit reports that reading stopped inside the document because
	// decided returned true. The unread remainder (and any unread suffix
	// of the last chunk) was not validated.
	EarlyExit bool
	// DecidedNegative refines EarlyExit: at least one verdict was decided
	// negatively. DriveBatches cannot know — it is left false for the consumer,
	// which holds the verdicts, to set.
	DecidedNegative bool
}

// Batch returns the tokenizer's batch buffer, BatchSize events long, made on
// first use: the slice DriveBatches has NextBatch fill, which a caller driving the
// whole-buffer form (Whole) may fill too, so that one tokenizer holds one.
func (s *StreamTokenizer) Batch() []ByteEvent {
	if s.batch == nil {
		s.batch = make([]ByteEvent, BatchSize)
	}
	return s.batch
}

// Drive is DriveBatches for a consumer that takes one event at a time.
func (s *StreamTokenizer) Drive(r io.Reader, chunkSize int, st *StreamStats, process func(ByteEvent) error, keep func() int, decided func() bool) (bool, error) {
	return s.DriveBatches(r, chunkSize, st, func(evs []ByteEvent) error {
		for _, ev := range evs {
			if err := process(ev); err != nil {
				return err
			}
		}
		return nil
	}, keep, decided)
}

// DriveBatches runs one document from r through the tokenizer: read a
// chunk (FeedReader's; chunkSize <= 0 selects DefaultChunkSize), hand its
// events to process a batch at a time (NextBatch; the batch is valid until
// process returns), ask keep at each chunk boundary (nil: never) for the
// document offset from which the window holds on to its bytes across the
// next refill, so that Window still returns them (negative: none), probe
// decided between chunks until the root closes (nil to never exit
// early), and stop at end of document, early decision, or error. Bytes
// returned alongside a non-EOF read error are drained (and may decide the
// verdict) before the error is surfaced. It returns whether EndDocument was
// processed; a truncated or malformed document surfaces as the tokenizer's
// (or process's) error. The caller resets the tokenizer and the consumer
// first. DriveBatches is the single implementation of the chunk loop every
// reader entry point shares.
func (s *StreamTokenizer) DriveBatches(r io.Reader, chunkSize int, st *StreamStats, process func([]ByteEvent) error, keep func() int, decided func() bool) (bool, error) {
	*st = StreamStats{}
	sawEnd := false
	batch := s.Batch()
	for {
		n, rerr := s.FeedReader(r, chunkSize)
		if n > 0 {
			st.BytesRead += int64(n)
			st.Chunks++
		}
		if ml := s.t.lim.MaxDocBytes; ml > 0 && st.BytesRead > ml {
			st.BytesConsumed = int64(s.Consumed())
			return false, &limits.Error{Resource: "doc-bytes", Limit: ml, Observed: st.BytesRead}
		}
		eof := rerr == io.EOF
		if eof {
			s.Finish()
		}
		for {
			n, err := s.t.NextBatch(batch)
			if n > 0 {
				if err := process(batch[:n]); err != nil {
					st.BytesConsumed = int64(s.Consumed())
					return false, err
				}
				// EndDocument is the last event of a document.
				sawEnd = batch[n-1].Kind == EndDocument
			}
			if err == ErrNeedMoreData || err == io.EOF {
				break
			}
			if err != nil {
				st.BytesConsumed = int64(s.Consumed())
				return false, err
			}
		}
		st.BytesConsumed = int64(s.Consumed())
		if sawEnd {
			return true, nil
		}
		if keep != nil {
			s.keep = keep()
		}
		// After the root has closed only comments and white space may
		// follow: they are read out, so that an early exit always stops
		// inside the document, wherever the reader delivers its EOF.
		if decided != nil && !(s.t.rootSeen && s.t.outside()) && decided() {
			st.EarlyExit = true
			return false, nil
		}
		if rerr != nil && !eof {
			return false, rerr
		}
		if eof {
			// Finish was processed and the stream still ended without
			// EndDocument or a tokenizer error: nothing was fed at all.
			return false, nil
		}
	}
}

// Buffered returns the size of the retained unconsumed tail — the
// incomplete-construct bytes carried to the next chunk.
func (s *StreamTokenizer) Buffered() int { return len(s.buf) - s.t.pos }
