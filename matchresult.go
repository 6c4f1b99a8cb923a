package streamxpath

import "streamxpath/internal/engine"

// Fragment is one extracted match: the id of the subscription it
// belongs to and the matched node's content — the element's subtree as
// XML for element-selecting queries, or the decoded attribute value for
// attribute-selecting ones (//item/@id yields the value, not
// id="...").
//
// Ownership depends on the call that produced it. MatchBytesResult
// returns element subtrees as zero-copy subslices of the caller's
// document buffer wherever the match came from a contiguous region —
// the fragment is valid exactly as long as that buffer is. Everything
// else (reader-path captures, attribute values, fragments of a
// MatchStringResult call) is owned by the caller outright.
type Fragment struct {
	// ID is the subscription id the fragment was extracted for.
	ID string
	// Data is the extracted content.
	Data []byte
}

// MatchResult is the whole outcome of one Match*Result call: the matched
// subscription ids, the extracted fragments of extraction-enabled
// subscriptions (AddExtract), and the call's own accounting — nothing in
// it is another call's, however many run concurrently. Beside a non-nil
// error it holds no verdicts, only the accounting of the document that
// failed (how deep it got, how much of it was read).
type MatchResult struct {
	// MatchedIDs holds the matched subscription ids in insertion order
	// (for a single-query Filter: the query source when it matched).
	// Reuse follows the wrapped method's contract — e.g.
	// FilterSet.MatchBytesResult reuses the slice across calls.
	MatchedIDs []string
	// Fragments holds the extracted subtrees of the matched
	// extraction-enabled subscriptions, in subscription insertion order.
	// At most one fragment per subscription: the document-order-first
	// match. Nil when no extraction subscription matched or the call's
	// boolean sibling was used.
	Fragments []Fragment
	// Abstained reports that a resource budget was breached under
	// LimitAbstain and the result degraded to the verdicts (and
	// finalized fragments) decided before the breach.
	Abstained bool
	// ReaderStats is the call's input accounting; zero for whole-buffer
	// calls.
	ReaderStats ReaderStats
	// MemStats is the live-memory accounting of the call's document.
	MemStats MemStats
	// SkimmedBytes is how much of a whole-buffer document was validated
	// without being dispatched to the matcher: the bytes after the point
	// where every verdict was final (see FilterSet.MatchBytes). Zero when
	// the document was never decided before its last batch of events, or
	// came from a reader — a reader stops there instead, which ReaderStats
	// reports.
	SkimmedBytes int64
}

// Fragment returns the extracted content for a subscription id, nil if
// the call produced none for it.
func (r *MatchResult) Fragment(id string) []byte {
	for i := range r.Fragments {
		if r.Fragments[i].ID == id {
			return r.Fragments[i].Data
		}
	}
	return nil
}

// toFragments converts engine fragments to the public form. Volatile
// data — aliasing engine scratch the next document overwrites — is
// copied; zero-copy document subslices stay as they are.
func toFragments(fr []engine.Fragment) []Fragment {
	if len(fr) == 0 {
		return nil
	}
	out := make([]Fragment, len(fr))
	for i, f := range fr {
		d := f.Data
		if f.Volatile {
			d = append(make([]byte, 0, len(d)), d...)
		}
		out[i] = Fragment{ID: f.ID, Data: d}
	}
	return out
}
