// Package naive implements the buffer-everything baseline: the whole
// document stream is materialized into a tree and evaluated with the
// reference semantics. Its memory is Θ(|D|), the cost the streaming
// algorithms exist to avoid; benchmarks compare it against internal/core
// (experiment E20 of `go run ./cmd/xpexperiments`).
package naive

import (
	"fmt"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// Evaluator buffers a document stream and evaluates at endDocument.
type Evaluator struct {
	q        *query.Query
	events   []sax.Event
	bytes    int
	finished bool
	result   bool
}

// New returns an evaluator for q.
func New(q *query.Query) *Evaluator { return &Evaluator{q: q} }

// Reset prepares for another document.
func (e *Evaluator) Reset() {
	e.events = e.events[:0]
	e.bytes = 0
	e.finished = false
	e.result = false
}

// Process buffers one event; at endDocument the document is built and
// evaluated.
func (e *Evaluator) Process(ev sax.Event) error {
	e.events = append(e.events, ev)
	e.bytes += eventBytes(ev)
	if ev.Kind == sax.EndDocument {
		d, err := tree.FromEvents(e.events)
		if err != nil {
			return err
		}
		e.result = semantics.BoolEval(e.q, d)
		e.finished = true
	}
	return nil
}

// ProcessAll buffers a whole stream and returns the result.
func (e *Evaluator) ProcessAll(events []sax.Event) (bool, error) {
	for _, ev := range events {
		if err := e.Process(ev); err != nil {
			return false, err
		}
	}
	if !e.finished {
		return false, fmt.Errorf("naive: stream ended before endDocument")
	}
	return e.result, nil
}

// Matched reports the result after endDocument.
func (e *Evaluator) Matched() bool { return e.finished && e.result }

// BufferedBytes is the baseline's memory: the serialized size of everything
// it held.
func (e *Evaluator) BufferedBytes() int { return e.bytes }

// BufferedEvents is the number of buffered events.
func (e *Evaluator) BufferedEvents() int { return len(e.events) }

// eventBytes approximates an event's serialized size.
func eventBytes(ev sax.Event) int {
	n := 2 + len(ev.Name) + len(ev.Data)
	for _, a := range ev.Attrs {
		n += len(a.Name) + len(a.Value) + 4
	}
	return n
}
