package main

import (
	"io"
	"slices"
	"testing"

	"streamxpath/internal/commcc"
)

// TestExperiments runs the whole reproduction: every experiment of the
// index, each held to the paper's claim by its check.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// with returns a copy of rows whose i-th row is r.
func with[T any](rows []T, i int, r T) []T {
	rows = slices.Clone(rows)
	rows[i] = r
	return rows
}

// TestChecksRejectBrokenRow gives every check rows the experiment prints,
// which it must accept, and then those rows with one broken against each
// clause of the claim, which it must reject — so no check can pass
// vacuously.
func TestChecksRejectBrokenRow(t *testing.T) {
	report := func(kind string, param, family, proven, states, bits int) *commcc.Report {
		return &commcc.Report{Kind: kind, Parameter: param, FamilySize: family,
			LowerBoundBits: proven, DistinctStates: states, MaxMessageBits: bits}
	}
	reports := []*commcc.Report{
		report("frontier", 3, 8, 2, 8, 344),
		report("recursion", 8, 256, 7, 256, 984),
		report("depth", 126, 126, 3, 126, 208),
	}
	e14 := []spaceRow{{1, 3, 3, 16}, {8, 17, 17, 140}, {64, 129, 129, 1426}}
	e15 := []spaceRow{{1, 2, 1, 11}, {4, 5, 4, 31}, {32, 33, 32, 298}}
	e16 := []spaceRow{{n: 4, tuples: 2, bits: 17}, {n: 64, tuples: 2, bits: 29}, {n: 1024, tuples: 2, bits: 41}}
	e18 := []dfaRow{{2, 12, 1, true}, {6, 192, 12, true}, {12, 12288, 50, true}}
	e19 := []protoRow{{2, 249, 248, []int{248}}, {3, 497, 248, []int{248, 248}}}
	e20 := []naiveRow{{10, 1367, 13}, {100, 14079, 11}, {1000, 142851, 13}}
	e21 := []evalRow{{1, 1, 2}, {10, 10, 20}, {100, 100, 290}, {1000, 1000, 3890}}
	for name, err := range map[string]error{
		"reports": holds(reports, "", certified),
		"E14":     holds(e14, "", e14Holds),
		"E15":     holds(e15, "", e15Holds),
		"E16":     holds(e16, "", e16Holds),
		"E18":     holds(e18, "", e18Holds),
		"E19":     holds(e19, "", e19Holds),
		"E20":     holds(e20, "", e20Holds),
		"E21":     holds(e21, "", e21Holds),
	} {
		if err != nil {
			t.Errorf("%s: the printed rows are rejected: %v", name, err)
		}
	}
	for name, err := range map[string]error{
		"reports/states": holds(with(reports, 1, report("recursion", 8, 256, 7, 255, 984)), "", certified),
		"reports/bound":  holds(with(reports, 2, report("depth", 126, 126, 3, 126, 2)), "", certified),
		"reports/family": holds(with(reports, 1, report("recursion", 8, 255, 7, 255, 984)), "", certified),
		"E14/tuples":     holds(with(e14, 1, spaceRow{8, 16, 16, 140}), "", e14Holds),
		"E14/band":       holds(with(e14, 2, spaceRow{64, 129, 129, 1500}), "", e14Holds),
		"E15/frontier":   holds(with(e15, 1, spaceRow{4, 5, 5, 31}), "", e15Holds),
		"E15/band":       holds(with(e15, 0, spaceRow{1, 2, 1, 13}), "", e15Holds),
		"E16/tuples":     holds(with(e16, 1, spaceRow{n: 64, tuples: 3, bits: 29}), "", e16Holds),
		"E16/bits":       holds(with(e16, 2, spaceRow{n: 1024, tuples: 2, bits: 42}), "", e16Holds),
		"E18/complete":   holds(with(e18, 2, dfaRow{12, 12288, 50, false}), "", e18Holds),
		"E18/states":     holds(with(e18, 1, dfaRow{6, 96, 12, true}), "", e18Holds),
		"E18/tuples":     holds(with(e18, 0, dfaRow{2, 12, 5, true}), "", e18Holds),
		"E19/messages":   holds(with(e19, 1, protoRow{3, 249, 248, []int{248}}), "", e19Holds),
		"E19/total":      holds(with(e19, 1, protoRow{3, 496, 248, []int{248, 248}}), "", e19Holds),
		"E19/max":        holds(with(e19, 1, protoRow{3, 505, 256, []int{248, 256}}), "", e19Holds),
		"E20/naive":      holds(with(e20, 2, naiveRow{1000, 100000, 13}), "", e20Holds),
		"E20/filter":     holds(with(e20, 0, naiveRow{10, 1367, 17}), "", e20Holds),
		"E21/pending":    holds(with(e21, 2, evalRow{100, 99, 290}), "", e21Holds),
		"E21/buffered":   holds(with(e21, 3, evalRow{1000, 1000, 3889}), "", e21Holds),
	} {
		if err == nil {
			t.Errorf("%s: the broken row is accepted", name)
		}
	}
}
