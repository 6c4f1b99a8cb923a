package fragment

import "testing"

// TestCostModelExact pins the Theorem 8.8 arithmetic value by value: the
// engine's state_bits and every MemStats ratio are these numbers, so a
// change that keeps them positive but moves them is a change of the model.
func TestCostModelExact(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	} {
		if got := log2ceil(c.n); got != c.want {
			t.Errorf("log2ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		name                                  string
		querySize, tuples, bufferBytes, depth int
		want                                  int
	}{
		// Floors: d < 2, w < 2 and |Q| ≤ 2 each cost one bit.
		{"d=0", 4, 1, 0, 0, 2 + 1 + 1 + 1 + 1},
		{"d=1", 4, 1, 0, 1, 2 + 1 + 1 + 1 + 1},
		{"d=2", 4, 1, 0, 2, 2 + 1 + 1 + 1 + 1},
		{"w=1", 4, 1, 1, 2, (2 + 1 + 1 + 1) + 8 + 1},
		{"|Q|=1", 1, 3, 0, 2, 3*(1+1+1+1) + 1},
		{"|Q|=2", 2, 3, 0, 2, 3*(1+1+1+1) + 1},
		{"no tuples", 9, 0, 0, 9, 4},
		// /a[c[.//e and f] and b > 5] on <a><c><e/><f/></c><b>6</b></a>
		// (the quickstart): the engine holds 5 live entries at once over
		// its 5 shared nodes, the reference filter 5 tuples over |Q| = 6;
		// both buffer "6" at depth 3.
		{"quickstart engine", 5, 5, 1, 3, 45},
		{"quickstart core", 6, 5, 1, 3, 45},
		{"wide", 1000, 10, 300, 40, 10*(10+6+9+1) + 300*8 + 6},
	} {
		if got := EstimatedBits(c.querySize, c.tuples, c.bufferBytes, c.depth); got != c.want {
			t.Errorf("%s: EstimatedBits(%d, %d, %d, %d) = %d, want %d",
				c.name, c.querySize, c.tuples, c.bufferBytes, c.depth, got, c.want)
		}
	}
	for _, c := range []struct{ fs, depth, want int }{
		// Floors: FS < 1 counts as 1, d < 2 as 2.
		{0, 0, 1},
		{-3, 1, 1},
		{1, 2, 1},
		{3, 3, 6}, // the quickstart's 6-bit floor
		{3, 9, 12},
		{1000, 1025, 11000},
	} {
		if got := LowerBoundBits(c.fs, c.depth); got != c.want {
			t.Errorf("LowerBoundBits(%d, %d) = %d, want %d", c.fs, c.depth, got, c.want)
		}
	}
}
