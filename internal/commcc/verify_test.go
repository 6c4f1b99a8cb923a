package commcc

import (
	"testing"

	"streamxpath/internal/query"
)

func TestVerifyFrontierLowerBound(t *testing.T) {
	rep, err := VerifyFrontier(query.MustParse("/a[c[.//e and f] and b > 5]"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parameter != 3 || rep.FamilySize != 8 {
		t.Errorf("report = %+v", rep)
	}
	if rep.DistinctStates != 8 {
		t.Errorf("distinct states = %d, want 8", rep.DistinctStates)
	}
	if rep.MaxMessageBits < rep.LowerBoundBits {
		t.Errorf("filter state %d bits below the proven bound %d", rep.MaxMessageBits, rep.LowerBoundBits)
	}
	if rep.String() == "" {
		t.Error("String broken")
	}
	if _, err := VerifyFrontier(query.MustParse("/a[b or c]"), 0); err == nil {
		t.Error("non-RF query: want error")
	}
}

func TestVerifyRecursionLowerBound(t *testing.T) {
	rep, err := VerifyRecursion(query.MustParse("//a[b and c]"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parameter != 3 || rep.FamilySize != 8 || rep.DistinctStates != 8 {
		t.Errorf("report = %+v", rep)
	}
	if _, err := VerifyRecursion(query.MustParse("/a/b"), 3, 0); err == nil {
		t.Error("non-recursive query: want error")
	}
}

func TestVerifyDepthLowerBound(t *testing.T) {
	rep, err := VerifyDepth(query.MustParse("/a/b"), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FamilySize < 8 || rep.DistinctStates != rep.FamilySize {
		t.Errorf("report = %+v", rep)
	}
	if _, err := VerifyDepth(query.MustParse("//a"), 12, 0); err == nil {
		t.Error("ineligible query: want error")
	}
}
