package engine

import (
	"fmt"
	"io"

	"streamxpath/internal/limits"
	"streamxpath/internal/sax"
)

// firstProbe is the document offset of MatchBuffered's first Decided
// probe; each later probe sits at twice the offset of the one before. The
// trie side of Decided sweeps the open scopes' continuations — tens of
// microseconds on a thousand predicated subscriptions — so it cannot run
// per event or per kilobyte. On this schedule a document of n bytes pays
// at most ⌈log₂(n/firstProbe)⌉+1 probes, dispatches at most twice its
// decided prefix (plus firstProbe) in full, and pays nothing at all when
// it is shorter than firstProbe.
const firstProbe = 4 << 10

// MatchBuffered matches one document held whole in memory: the buffered
// drive loop every engine-backed matcher shares. It selects the capture
// mode, resets the engine, and dispatches the document's events until
// every verdict is final; from there no event can change a result, so the
// remainder is only validated — the tokenizer skims it (sax.TokenizerBytes.
// Skim: every well-formedness and budget check, nothing materialized) and
// the engine sees no more of it than the deepest level it reached and the
// closing EndDocument. The verdicts, fragments and errors are those of
// dispatching every event; Stats.Events counts the dispatched ones, and
// the budgets on matching state (MaxLiveTuples, MaxBufferedBytes) cannot
// be breached by a remainder that creates none.
//
// skimmed is the number of bytes validated without dispatch, 0 for a
// document that was never decided. The error is ready for the public
// surface: the engine's own errors are prefixed "streamxpath: ", the
// tokenizer's pass through bare.
func (e *Engine) MatchBuffered(doc []byte, mode CaptureMode) (skimmed int64, err error) {
	return e.matchBuffered(doc, mode, firstProbe)
}

// matchBuffered is MatchBuffered with the first probe at the given offset,
// so that tests can reach every skim entry point with small documents.
func (e *Engine) matchBuffered(doc []byte, mode CaptureMode, probe int) (skimmed int64, err error) {
	e.SetCapture(mode)
	e.Reset() // also recovers from a document abandoned mid-stream
	if l := e.lim.MaxDocBytes; l > 0 && int64(len(doc)) > l {
		return 0, fmt.Errorf("streamxpath: %w",
			&limits.Error{Resource: "doc-bytes", Limit: l, Observed: int64(len(doc))})
	}
	if e.tok == nil {
		e.tok = sax.NewTokenizerBytes(doc, e.tab)
		e.tok.SetLimits(e.lim)
	} else {
		e.tok.Reset(doc)
	}
	tok := e.tok
	for {
		ev, err := tok.Next()
		if err == io.EOF {
			return 0, fmt.Errorf("streamxpath: document ended prematurely")
		}
		if err != nil {
			return 0, err
		}
		if err := e.ProcessBytes(ev); err != nil {
			return 0, fmt.Errorf("streamxpath: %w", err)
		}
		if ev.Kind == sax.EndDocument {
			return 0, nil
		}
		from := tok.Offset()
		if from < probe {
			continue
		}
		for probe <= from {
			probe *= 2
		}
		if !e.Decided() {
			continue
		}
		deepest, err := tok.Skim()
		// The matcher's level stopped rising with dispatch; the memory
		// accounting (log d) is owed the whole document's depth.
		e.mt.stats.MaxLevel = max(e.mt.stats.MaxLevel, deepest)
		if err == nil {
			if err = e.endDocument(); err != nil {
				err = fmt.Errorf("streamxpath: %w", err)
			}
		}
		return int64(tok.Offset() - from), err
	}
}
