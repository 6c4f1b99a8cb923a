//go:build !race

package streamxpath

import (
	"fmt"
	"runtime"
	"testing"
)

// TestAddAllocs pins what FilterSet.Add allocates on the accept path, on the
// benchmark's shapes: fanout-pred's 1,000 thresholds × leaf names and
// churn's one leaf name per subscription. The allocations are the query's
// parse, the index entries a new step makes and the record; the checks an
// accepted query passes build nothing they throw away (69.3 and 15.3 per
// Add while the linear test built an error per predicated query, the
// frontier size a slice per query node, the streamable check four node
// slices, and a step key was built afresh per step).
func TestAddAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query func(i int) string
		limit float64 // allocations per Add
	}{
		{"fanout-pred", func(i int) string { return fmt.Sprintf("//catalog/item[priority > %d]/f%d", i%10, i/10) }, 28},
		{"churn", func(i int) string { return fmt.Sprintf("//catalog/item/f%d", i) }, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 1000
			ids, texts := make([]string, n), make([]string, n)
			for i := range ids {
				ids[i], texts[i] = fmt.Sprintf("s%d", i), tc.query(i)
			}
			set := NewFilterSet()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range ids {
				if err := set.Add(ids[i], texts[i]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%s: %.1f allocations per Add", tc.name, per)
			if per > tc.limit {
				t.Errorf("%s: Add allocates %.1f times, want at most %.0f", tc.name, per, tc.limit)
			}
		})
	}
}
