package engine

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// stretchSubs are the subscriptions of TestRunStretchAccounting: runs below
// the group of //catalog/item[priority > k] whose satisfied stretches take
// each route a run has. l0–l2 are leaves of one terminal (the stretch's
// one-pass latch); dupA and dupB are one query under two ids, a leaf of two
// terminals; ext and every are an extracting and an every-match leaf in the
// f1 run, which route node by node while the document captures; own is a
// run node with a predicate of its own; g3 makes f1 below member 3 an
// internal node, which opens a scope of its own; m6a and m6b are the only
// continuations of member 6, which latches all it needs once both have; and
// gate's run is gated by its predicated ancestor //x[y] until a <y> decides
// it.
var stretchSubs = []stretchSub{
	{id: "l0", src: "//catalog/item[priority > 0]/f1"},
	{id: "l1", src: "//catalog/item[priority > 1]/f1"},
	{id: "l2", src: "//catalog/item[priority > 2]/f3"},
	{id: "dupA", src: "//catalog/item[priority > 2]/f2"},
	{id: "dupB", src: "//catalog/item[priority > 2]/f2"},
	{id: "ext", src: "//catalog/item[priority > 4]/f1", extract: true},
	{id: "every", src: "//catalog/item[priority > 5]/f1", every: true},
	{id: "own", src: "//catalog/item[priority > 1]/f1[g]"},
	{id: "g3", src: "//catalog/item[priority > 3]/f1/g"},
	{id: "l3", src: "//catalog/item[priority > 3]/f1"},
	{id: "m6a", src: "//catalog/item[priority > 6]/f2"},
	{id: "m6b", src: "//catalog/item[priority > 6]/f3"},
	{id: "gate", src: "//x[y]//item[priority > 2]/f1"},
}

type stretchSub struct {
	id, src string
	extract bool
	every   bool
}

// stretchDocs are TestRunStretchAccounting's documents, each with the
// readings of the engine that latched a run's nodes one by one, by
// subscription set and capture mode: the event after which Decided first
// holds (-1: not before the document's end), and the engine's MemStats and
// Stats after the document — their live counts, and the bits priced off
// them, less the tuples a scope of one obligation no longer holds.
var stretchDocs = []struct {
	xml  string
	want [2][2]string
}{
	// A value, then continuations: the satisfied stretch is delivered as
	// each element starts.
	{xml: "<catalog><item><priority>5</priority><f1/><f2/><f3/></item></catalog>", want: [2][2]string{
		{
			"decided@-1 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:7 DFATransitions:6 DFAMaterialized:6 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
			"decided@-1 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:7 DFATransitions:6 DFAMaterialized:6 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
		}, {
			"decided@13 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:7 DFATransitions:6 DFAMaterialized:6 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
			"decided@13 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:7 DFATransitions:6 DFAMaterialized:6 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
		},
	}},
	// Continuations before the value wait in the group scope as range
	// commits, released as the value moves the boundary; then a second f1
	// with a <g>.
	{xml: "<catalog><item><f1/><f3/><priority>3</priority><f1><g/></f1></item></catalog>", want: [2][2]string{
		{
			"decided@-1 {Events:17 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:17 TupleVisits:7 FrontierInserts:8 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
			"decided@-1 {Events:17 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:17 TupleVisits:7 FrontierInserts:8 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
		}, {
			"decided@15 {Events:17 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:17 TupleVisits:7 FrontierInserts:8 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
			"decided@15 {Events:17 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:17 TupleVisits:7 FrontierInserts:8 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
		},
	}},
	// A second <priority> after the continuations moves the boundary again:
	// the range commits release a further stretch.
	{xml: "<catalog><item><priority>1</priority><f1/><f2/><f3/><priority>7</priority></item><item><priority>0</priority><f1/></item></catalog>", want: [2][2]string{
		{
			"decided@-1 {Events:25 GroupProbes:3 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:25 TupleVisits:9 FrontierInserts:10 GroupProbes:3 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
			"decided@-1 {Events:25 GroupProbes:3 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:25 TupleVisits:9 FrontierInserts:10 GroupProbes:3 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
		}, {
			"decided@23 {Events:25 GroupProbes:3 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:25 TupleVisits:9 FrontierInserts:10 GroupProbes:3 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
			"decided@23 {Events:25 GroupProbes:3 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:3 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:25 TupleVisits:9 FrontierInserts:10 GroupProbes:3 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:3}",
		},
	}},
	// Member 6 latches all it needs (f2 and f3 below one item of priority
	// 7); the every-match leaf never stops.
	{xml: "<catalog><item><priority>7</priority><f2/><f3/><f1><g/></f1></item><item><priority>9</priority><f1/><f2/></item></catalog>", want: [2][2]string{
		{
			"decided@-1 {Events:26 GroupProbes:2 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:26 TupleVisits:10 FrontierInserts:7 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
			"decided@-1 {Events:26 GroupProbes:2 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:26 TupleVisits:10 FrontierInserts:7 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
		}, {
			"decided@11 {Events:26 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:26 TupleVisits:7 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
			"decided@13 {Events:26 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:3 PeakScopes:3 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:40 LowerBoundBits:6 OptimalityRatio:6.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:8 DFATransitions:7 DFAMaterialized:7 Rebuilds:0 Events:26 TupleVisits:7 FrontierInserts:5 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:3 PeakBufferBytes:1 MaxLevel:4}",
		},
	}},
	// The gate: undecided while the run delivers, decided by the <y>
	// after; then decided before the run delivers.
	{xml: "<x><catalog><item><priority>4</priority><f1/></item></catalog><y/></x>", want: [2][2]string{
		{
			"decided@-1 {Events:15 GroupProbes:2 PeakLiveTuples:5 PeakGroupBits:4 PeakScopes:5 PeakPendings:2 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:59 LowerBoundBits:6 OptimalityRatio:9.833333333333334} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:14 DFATransitions:13 DFAMaterialized:13 Rebuilds:0 Events:15 TupleVisits:8 FrontierInserts:9 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:5 PeakBufferBytes:1 MaxLevel:4}",
			"decided@-1 {Events:15 GroupProbes:2 PeakLiveTuples:5 PeakGroupBits:4 PeakScopes:5 PeakPendings:2 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:59 LowerBoundBits:6 OptimalityRatio:9.833333333333334} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:14 DFATransitions:13 DFAMaterialized:13 Rebuilds:0 Events:15 TupleVisits:8 FrontierInserts:9 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:5 PeakBufferBytes:1 MaxLevel:4}",
		}, {
			"decided@11 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:1 PeakScopes:2 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:38 LowerBoundBits:6 OptimalityRatio:6.333333333333333} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:14 DFATransitions:13 DFAMaterialized:13 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:4 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:2 PeakBufferBytes:1 MaxLevel:4}",
			"decided@11 {Events:15 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:1 PeakScopes:2 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:4 CapturedBytes:0 EstimatedBits:38 LowerBoundBits:6 OptimalityRatio:6.333333333333333} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:14 DFATransitions:13 DFAMaterialized:13 Rebuilds:0 Events:15 TupleVisits:5 FrontierInserts:4 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:2 PeakBufferBytes:1 MaxLevel:4}",
		},
	}},
	{xml: "<x><y/><item><priority>4</priority><f1/><f2/></item><catalog><item><priority>8</priority><f1><g/></f1><f2/><f3/></item></catalog></x>", want: [2][2]string{
		{
			"decided@-1 {Events:30 GroupProbes:2 PeakLiveTuples:4 PeakGroupBits:3 PeakScopes:4 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:5 CapturedBytes:0 EstimatedBits:54 LowerBoundBits:9 OptimalityRatio:6} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:21 DFATransitions:20 DFAMaterialized:20 Rebuilds:0 Events:30 TupleVisits:12 FrontierInserts:9 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:4 PeakBufferBytes:1 MaxLevel:5}",
			"decided@-1 {Events:30 GroupProbes:2 PeakLiveTuples:4 PeakGroupBits:3 PeakScopes:4 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:5 CapturedBytes:0 EstimatedBits:54 LowerBoundBits:9 OptimalityRatio:6} {Subscriptions:13 NFARouted:0 TrieRouted:13 SpineSteps:40 SharedStates:21 PredNodes:4 PredGroups:2 LargestGroup:7 DFAStates:21 DFATransitions:20 DFAMaterialized:20 Rebuilds:0 Events:30 TupleVisits:12 FrontierInserts:9 GroupProbes:2 SkimPieces:0 PeakTuples:0 PeakScopes:4 PeakBufferBytes:1 MaxLevel:5}",
		}, {
			"decided@8 {Events:30 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:1 PeakScopes:2 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:5 CapturedBytes:0 EstimatedBits:42 LowerBoundBits:9 OptimalityRatio:4.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:14 DFATransitions:17 DFAMaterialized:17 Rebuilds:0 Events:30 TupleVisits:5 FrontierInserts:4 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:2 PeakBufferBytes:1 MaxLevel:5}",
			"decided@8 {Events:30 GroupProbes:1 PeakLiveTuples:3 PeakGroupBits:1 PeakScopes:2 PeakPendings:1 PeakBufferedBytes:1 MaxDepth:5 CapturedBytes:0 EstimatedBits:42 LowerBoundBits:9 OptimalityRatio:4.666666666666667} {Subscriptions:12 NFARouted:0 TrieRouted:12 SpineSteps:37 SharedStates:19 PredNodes:4 PredGroups:2 LargestGroup:6 DFAStates:14 DFATransitions:17 DFAMaterialized:17 Rebuilds:0 Events:30 TupleVisits:5 FrontierInserts:4 GroupProbes:1 SkimPieces:0 PeakTuples:0 PeakScopes:2 PeakBufferBytes:1 MaxLevel:5}",
		},
	}},
}

// TestRunStretchAccounting holds the run paths — a satisfied stretch
// latched in one pass, and the routes node by node beside it — to the tree
// evaluator's verdicts, and to the readings of the engine that latched
// node by node: the event at which Decided first holds, every MemStats field
// and Stats, on one engine over the documents in order, under CaptureOff and
// CaptureSlice. It does so for stretchSubs, which an every-match
// subscription keeps undecided to the end, and for the set without it and
// rooted at the document's root element, which the documents decide early
// or at their root's start.
func TestRunStretchAccounting(t *testing.T) {
	rooted := slices.DeleteFunc(slices.Clone(stretchSubs), func(s stretchSub) bool { return s.every })
	for i := range rooted {
		rooted[i].src = "/" + strings.TrimPrefix(rooted[i].src, "//")
	}
	for set, subs := range [][]stretchSub{stretchSubs, rooted} {
		for mode := range 2 {
			for d, got := range stretchReadings(t, subs, []CaptureMode{CaptureOff, CaptureSlice}[mode]) {
				if want := stretchDocs[d].want[set][mode]; got != want {
					t.Errorf("set %d, doc %d, mode %d:\n  got  %s\n  want %s", set, d, mode, got, want)
				}
			}
		}
	}
}

// stretchReadings matches stretchDocs in order on one engine holding subs,
// checks the verdicts, whole and event by event, against the tree
// evaluator, and returns each document's readings.
func stretchReadings(t *testing.T, subs []stretchSub, mode CaptureMode) []string {
	t.Helper()
	type memPlain MemStats // %+v prints every field, not String's digest
	type statsPlain Stats
	e := New()
	for _, s := range subs {
		q := query.MustParse(s.src)
		var err error
		switch {
		case s.every:
			err = e.AddEvery(s.id, q)
		case s.extract:
			err = e.AddExtract(s.id, q)
		default:
			err = e.Add(s.id, q)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var readings []string
	for d, doc := range stretchDocs {
		root := tree.MustParse(doc.xml)
		var want []string
		for _, s := range subs {
			if semantics.BoolEval(query.MustParse(s.src), root) {
				want = append(want, s.id)
			}
		}
		out, err := e.MatchBytes(nil, []byte(doc.xml), mode)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.IDs, want) {
			t.Errorf("doc %d, mode %d: MatchBytes matched %v, the tree evaluator %v", d, mode, out.IDs, want)
		}
		// Event by event, probing Decided after each.
		e.SetCapture(mode)
		e.Reset()
		tok := sax.NewTokenizerBytes([]byte(doc.xml), e.Symbols())
		decided := -1
		for k := 0; ; k++ {
			ev, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ProcessBytes(ev); err != nil {
				t.Fatal(err)
			}
			if decided < 0 && e.Decided() {
				decided = k
			}
		}
		if got := e.MatchedIDs(); !slices.Equal(got, want) {
			t.Errorf("doc %d, mode %d: event by event matched %v, the tree evaluator %v", d, mode, got, want)
		}
		readings = append(readings, fmt.Sprintf("decided@%d %+v %+v", decided, memPlain(e.MemStats()), statsPlain(e.Stats())))
	}
	return readings
}
