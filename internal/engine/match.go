package engine

import (
	"errors"
	"fmt"
	"io"

	"streamxpath/internal/limits"
	"streamxpath/internal/sax"
)

// Outcome is everything one match call knows about its document, returned
// once. Its IDs are appended to the caller's buffer, but volatile fragments
// alias the engine's capture memory until its next document: a caller that
// hands the outcome past the engine's next match copies them first.
type Outcome struct {
	// IDs is the caller's dst with the matched subscription ids appended in
	// insertion order. Alongside an error they are the verdicts decided
	// before it, which are final because matching is monotone.
	IDs []string
	// Frags holds the fragments captured for matched extraction
	// subscriptions, in insertion order, and Mem the document's live-memory
	// accounting. Both are left zero under CaptureOff: that is the mode of
	// the boolean callers, who discard them, and whose per-document cost
	// they would add to.
	Frags []Fragment
	Mem   MemStats
	// Read is the input accounting of a MatchReader call, zero for
	// MatchBytes.
	Read sax.StreamStats
	// Skimmed is how many bytes MatchBytes validated without dispatching
	// them, zero for MatchReader.
	Skimmed int64
	// Abstained reports that the document breached a budget under
	// limits.Abstain: the call returned no error, and IDs and Frags are what
	// was decided and finalized before the breach.
	Abstained bool
}

// outcome reads the verdicts, fragments and accounting off the engine into
// out as the current document left them, and applies the breach policy to
// the document's error: under limits.Abstain a *limits.Error becomes
// Outcome.Abstained and a nil error. The policy is the one this document
// ran under, whatever the engine's owner sets next. The ids are appended to
// dst, grown once to hold them all; doc is the buffer slice-mode captures
// index, nil on the reader path.
func (e *Engine) outcome(out *Outcome, dst []string, doc []byte, mode CaptureMode, err error) error {
	if n := len(dst) + e.MatchedCount(); n > cap(dst) {
		dst = append(make([]string, 0, n), dst...)
	}
	out.IDs = e.appendMatchedIDs(dst)
	if mode != CaptureOff {
		out.Frags = e.AppendFragments(nil, doc)
		out.Mem = e.MemStats()
	}
	if err != nil && e.lim.Policy == limits.Abstain {
		// Declared here, not above: errors.As moves le to the heap, and a
		// document without an error allocates nothing.
		var le *limits.Error
		if errors.As(err, &le) {
			out.Abstained, err = true, nil
		}
	}
	return err
}

var errTruncated = errors.New("streamxpath: document ended prematurely")

// MatchBytes matches one document held whole in memory: the buffered
// drive loop every engine-backed matcher shares. It selects the capture
// mode, resets the engine, and dispatches the document's events a batch at
// a time (sax.TokenizerBytes.NextBatch), probing Decided after each batch
// as MatchReader probes it after each chunk. Once every verdict is final
// no event can change a result, so the remainder is only validated — the
// tokenizer skims it (sax.TokenizerBytes.Skim: every well-formedness and
// budget check, nothing materialized) and the engine sees no more of it
// than the deepest level it reached and the closing EndDocument. The
// verdicts, fragments and errors are those of dispatching every event;
// Stats.Events counts the dispatched ones, and the budgets on matching
// state (MaxLiveTuples, MaxBufferedBytes) cannot be breached by a
// remainder that creates none.
//
// The matched ids are appended to dst. Outcome.Skimmed is the number of
// bytes validated without dispatch: everything after the batch in which
// the document was decided, 0 for a document that never was. The error is
// ready for the public surface: the engine's own errors are prefixed
// "streamxpath: ", the tokenizer's pass through bare. A budget breach
// under limits.Abstain is no error but Outcome.Abstained.
func (e *Engine) MatchBytes(dst []string, doc []byte, mode CaptureMode) (out Outcome, err error) {
	e.SetCapture(mode)
	e.Reset() // also recovers from a document abandoned mid-stream
	if l := e.lim.MaxDocBytes; l > 0 && int64(len(doc)) > l {
		err = fmt.Errorf("streamxpath: %w",
			&limits.Error{Resource: "doc-bytes", Limit: l, Observed: int64(len(doc))})
		err = e.outcome(&out, dst, doc, mode, err)
		return out, err
	}
	tok, batch := e.tok.Whole(doc), e.batch
	written := 0 // the batch entries this document wrote
	for {
		n, terr := tok.NextBatch(batch)
		written = max(written, n)
		// The batch is read in place, where the tokenizer wrote it; an
		// EndDocument is its last event.
		if err = e.dispatch(batch[:n]); err != nil {
			err = fmt.Errorf("streamxpath: %w", err)
			break
		}
		if n > 0 && batch[n-1].Kind == sax.EndDocument {
			break
		}
		if terr != nil {
			if err = terr; err == io.EOF {
				err = errTruncated
			}
			break
		}
		if e.Decided() {
			from := tok.Offset()
			deepest, serr := tok.Skim()
			// The engine's level stopped rising with dispatch; the memory
			// accounting (log d) is owed the whole document's depth.
			e.maxLevel = max(e.maxLevel, deepest)
			if err = serr; err == nil {
				if err = e.endDocument(); err != nil {
					err = fmt.Errorf("streamxpath: %w", err)
				}
			}
			out.Skimmed, e.skimPieces = int64(tok.Offset()-from), tok.SkimPieces()
			break
		}
	}
	err = e.outcome(&out, dst, doc, mode, err)
	// The engine goes back to its owner idle: nothing it keeps may point
	// into the caller's document.
	clear(batch[:written])
	tok.Release()
	return out, err
}

// MatchReader is MatchBytes's twin for a document that arrives through a
// reader: the chunked drive loop every engine-backed matcher shares. The
// document is read at most chunkSize bytes at a time (<= 0 selects
// sax.DefaultChunkSize; sax.StreamTokenizer.FeedReader's grant keeps a
// read below what the engine's documents have filled) into the engine's
// tokenizer — MatchBytes's too —
// which holds only the unconsumed tail across chunk boundaries, and Decided
// is probed between chunks: once every verdict is final the reader is abandoned —
// Outcome.Read reports the early exit, how much input it took, and whether
// any verdict was decided negatively — and the remainder is neither read
// nor validated. Where MatchBytes skims, MatchReader stops. A warm call
// with room in dst allocates nothing. Errors and the breach policy follow
// MatchBytes's convention; the reader's own errors pass through bare.
func (e *Engine) MatchReader(dst []string, r io.Reader, chunkSize int, mode CaptureMode) (out Outcome, err error) {
	e.SetCapture(mode)
	e.Reset() // also recovers from a document abandoned mid-stream
	e.tok.Reset()
	read := &out.Read
	sawEnd, err := e.tok.DriveBatches(r, chunkSize, read, e.process, nil, e.decided)
	if err == nil && !sawEnd && !read.EarlyExit {
		err = errTruncated
	}
	err = e.outcome(&out, dst, nil, mode, err)
	read.DecidedNegative = read.EarlyExit && len(out.IDs)-len(dst) < len(e.results)
	return out, err
}
