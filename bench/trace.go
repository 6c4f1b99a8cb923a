package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// counts are the work counters recorded at a span's boundary.
type counts struct {
	Bytes     int64 `json:"bytes,omitempty"`
	Events    int64 `json:"events,omitempty"`
	Matched   int64 `json:"matched,omitempty"`
	Fragments int64 `json:"fragments,omitempty"`
}

// span is one timed call into a layer. Spans of one document's replay share
// Trace; Parent is the span of the next-outer arm (0 for the outermost).
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Counts counts `json:"counts"`
}

// tracer keeps spans in memory and writes them out when the workload ends.
// A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	traces int64
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id.
func (t *tracer) newTrace() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// spanIDs of one trace are trace*spanStride + the arm's index + 1, so a
// span can name its parent before the parent has run.
const spanStride = 64

func (t *tracer) record(trace int64, arm, parentArm int, layer string, start, end time.Time, c counts) {
	if t == nil {
		return
	}
	s := span{
		Trace: trace, Span: trace*spanStride + int64(arm) + 1,
		Layer: layer, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Counts: c,
	}
	if parentArm >= 0 {
		s.Parent = trace*spanStride + int64(parentArm) + 1
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recordOp records one end-to-end operation of a traced round as a trace of
// its own.
func (t *tracer) recordOp(start, end time.Time, c counts) {
	if t == nil {
		return
	}
	t.record(t.newTrace(), 0, -1, "e2e", start, end, c)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
