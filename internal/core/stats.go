package core

import (
	"fmt"

	"streamxpath/internal/fragment"
	"streamxpath/internal/query"
)

// Stats instruments the filter's space usage, in the units of Theorem 8.8:
// frontier tuples (each costing O(log|Q| + log d + log w) bits) plus the
// text buffer (w bytes).
type Stats struct {
	// Events is the number of SAX events processed.
	Events int
	// PeakTuples is the maximum simultaneous number of frontier tuples
	// (including tuples parked in open candidate scopes).
	PeakTuples int
	// PeakFrontier is the maximum size of the frontier table alone.
	PeakFrontier int
	// PeakScopes is the maximum number of simultaneously open candidate
	// scopes.
	PeakScopes int
	// PeakPendings is the maximum number of simultaneously buffering
	// leaf candidates.
	PeakPendings int
	// PeakBufferBytes is the maximum text buffer size.
	PeakBufferBytes int
	// MaxLevel is the maximum document level reached (the depth d).
	MaxLevel int
}

// noteStats updates the peaks after an event.
func (f *Filter) noteStats() {
	tuples := len(f.frontier)
	for _, sc := range f.scopes {
		// A child-axis scope owner is parked outside the frontier while
		// its candidate is open; count it as live state. (Descendant-
		// axis owners remain in the frontier and are already counted.)
		if sc.Tup.Ref.Axis == query.AxisChild && !sc.Tup.Ref.IsRoot() {
			tuples++
		}
	}
	if tuples > f.stats.PeakTuples {
		f.stats.PeakTuples = tuples
	}
	if len(f.frontier) > f.stats.PeakFrontier {
		f.stats.PeakFrontier = len(f.frontier)
	}
	if len(f.scopes) > f.stats.PeakScopes {
		f.stats.PeakScopes = len(f.scopes)
	}
	if len(f.pendings) > f.stats.PeakPendings {
		f.stats.PeakPendings = len(f.pendings)
	}
	if len(f.buf) > f.stats.PeakBufferBytes {
		f.stats.PeakBufferBytes = len(f.buf)
	}
	if f.level > f.stats.MaxLevel {
		f.stats.MaxLevel = f.level
	}
}

// Stats returns the statistics collected since the last Reset.
func (f *Filter) Stats() Stats { return f.stats }

// EstimatedBits prices the collected peaks, for a query of querySize nodes,
// by the paper's cost model (fragment.EstimatedBits).
func (s Stats) EstimatedBits(querySize int) int {
	return fragment.EstimatedBits(querySize, s.PeakTuples, s.PeakBufferBytes, s.MaxLevel)
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("events=%d peakTuples=%d peakFrontier=%d peakScopes=%d peakPendings=%d peakBuffer=%dB maxLevel=%d",
		s.Events, s.PeakTuples, s.PeakFrontier, s.PeakScopes, s.PeakPendings, s.PeakBufferBytes, s.MaxLevel)
}
