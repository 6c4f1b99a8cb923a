package commcc

import (
	"fmt"
	"math/bits"

	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// Report summarizes one executable lower-bound experiment: the document
// family was generated, its fooling/reduction properties were
// machine-verified against the reference evaluator, and the streaming
// filter's states at the cut points were counted.
type Report struct {
	// Kind names the bound: "frontier", "recursion", or "depth".
	Kind string
	// Parameter is the bound's quantity: FS(Q), r, or the family size t
	// (≈ d).
	Parameter int
	// FamilySize is the number of inputs in the family.
	FamilySize int
	// LowerBoundBits is the proven minimum memory in bits for any
	// streaming algorithm on this family (via Lemma 3.7).
	LowerBoundBits int
	// DistinctStates is the number of distinct states our filter reached
	// across the family's prefixes — it must be at least FamilySize for
	// the filter to be correct, certifying the bound empirically.
	DistinctStates int
	// MaxMessageBits is the largest state the filter carried across a
	// cut (the filter's actual memory at the adversarial boundary).
	MaxMessageBits int
}

func (r Report) String() string {
	return fmt.Sprintf("%s bound: parameter=%d family=%d proven>=%d bits, filter: states=%d, state size=%d bits",
		r.Kind, r.Parameter, r.FamilySize, r.LowerBoundBits, r.DistinctStates, r.MaxMessageBits)
}

// VerifyFrontier runs the Theorem 7.1 experiment on a redundancy-free
// query: it builds the 2^FS(Q) fooling documents from the query's canonical
// document, machine-checks the fooling conditions (verifying up to maxPairs
// crossover pairs; 0 = all), and measures the filter's states at the cut.
func VerifyFrontier(q *query.Query, maxPairs int) (*Report, error) {
	fam, err := NewFrontierFamily(q)
	if err != nil {
		return nil, err
	}
	if err := fam.VerifyFoolingSet(maxPairs); err != nil {
		return nil, err
	}
	states, err := fam.DistinctStates()
	if err != nil {
		return nil, err
	}
	maxBits := 0
	for _, t := range fam.Subsets {
		a, b := fam.Split(t)
		run, err := RunProtocol(q, [][]sax.Event{a, b})
		if err != nil {
			return nil, err
		}
		maxBits = max(maxBits, run.MaxMessageBits())
	}
	return &Report{
		Kind:           "frontier",
		Parameter:      fam.FS(),
		FamilySize:     fam.Size(),
		LowerBoundBits: SpaceLowerBound(fam.FS(), 2),
		DistinctStates: states,
		MaxMessageBits: maxBits,
	}, nil
}

// VerifyRecursion runs the Theorem 7.4 experiment on a query in Recursive
// XPath with recursion budget r: every DISJ input pair maps to a document
// matching iff the sets intersect (up to maxInputs pairs checked; 0 = all
// 4^r), and the filter's states over the 2^r characteristic vectors are
// counted.
func VerifyRecursion(q *query.Query, r, maxInputs int) (*Report, error) {
	fam, err := NewDisjFamily(q, r)
	if err != nil {
		return nil, err
	}
	if err := fam.VerifyReduction(maxInputs); err != nil {
		return nil, err
	}
	states, err := fam.DistinctStates(0)
	if err != nil {
		return nil, err
	}
	ones := bitsOf(1<<r-1, r)
	run, err := fam.RunDisjProtocol(ones, ones)
	if err != nil {
		return nil, err
	}
	return &Report{
		Kind:           "recursion",
		Parameter:      r,
		FamilySize:     1 << r,
		LowerBoundBits: SpaceLowerBound(r, 2),
		DistinctStates: states,
		MaxMessageBits: run.MaxMessageBits(),
	}, nil
}

// VerifyDepth runs the Theorem 7.14 experiment with depth budget d: the
// padded documents D_i all match, crossovers D_{i,j} fail (up to maxI
// family members verified; 0 = all), and the filter's states over the
// depths are counted.
func VerifyDepth(q *query.Query, d, maxI int) (*Report, error) {
	fam, err := NewDepthFamily(q, d)
	if err != nil {
		return nil, err
	}
	if err := fam.VerifyFoolingSet(maxI); err != nil {
		return nil, err
	}
	states, err := fam.DistinctStates(0)
	if err != nil {
		return nil, err
	}
	run, err := fam.RunDepthProtocol(fam.T - 1)
	if err != nil {
		return nil, err
	}
	return &Report{
		Kind:           "depth",
		Parameter:      fam.T,
		FamilySize:     fam.T,
		LowerBoundBits: SpaceLowerBound(bits.Len(uint(fam.T-1)), 3), // ⌈log₂ t⌉
		DistinctStates: states,
		MaxMessageBits: run.MaxMessageBits(),
	}, nil
}
