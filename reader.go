package streamxpath

import "streamxpath/internal/sax"

// DefaultChunkSize is the largest read of the chunked reader entry points
// (Filter.MatchReader, FilterSet.MatchReader, FilterPool.MatchReader,
// StreamEvaluator.EvaluateReader) when no chunk size has been set. Reads
// start at 4 KiB and double, up to it, only as documents fill them.
const DefaultChunkSize = sax.DefaultChunkSize

// ReaderStats describes one MatchReader/EvaluateReader call: how much
// input was pulled from the reader, how much of it the tokenizer consumed,
// and whether the call stopped early because the verdict was already
// decided.
type ReaderStats struct {
	// BytesRead is the number of bytes read from the io.Reader.
	BytesRead int64
	// BytesConsumed is the number of document bytes fully tokenized —
	// on early exit, how much of the document the verdict needed. Events
	// are tokenized in batches, so when matching fails or abstains on an
	// event it also counts the rest of that event's batch.
	BytesConsumed int64
	// Chunks is the number of non-empty reads.
	Chunks int
	// EarlyExit reports that reading stopped inside the document because
	// every verdict was decided. The unread remainder (and any unread
	// suffix of the last chunk) was not validated.
	EarlyExit bool
	// DecidedNegative refines EarlyExit: at least one verdict was decided
	// negatively — the dead-state analysis proved no continuation of the
	// document could match it. False on an all-positive exit (every
	// subscription, or the single query, had already matched) and
	// whenever EarlyExit is false.
	DecidedNegative bool
	// Abstained reports that the call hit a resource budget under
	// LimitAbstain and degraded to the verdicts decided before the
	// breach.
	Abstained bool
}

// readerStats is the public form of a drive's input accounting; the
// abstain flag is the caller's to add.
func readerStats(ss sax.StreamStats) ReaderStats {
	return ReaderStats{
		BytesRead:       ss.BytesRead,
		BytesConsumed:   ss.BytesConsumed,
		Chunks:          ss.Chunks,
		EarlyExit:       ss.EarlyExit,
		DecidedNegative: ss.DecidedNegative,
	}
}
