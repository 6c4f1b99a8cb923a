package streamxpath

import "streamxpath/internal/fragment"

// Analysis classifies a query against the paper's fragments and reports
// the quantities its theorems are stated in.
type Analysis struct {
	// Size is |Q|, the query node count.
	Size int
	// FrontierSize is FS(Q) (Definition 4.1) — the paper's headline
	// space lower bound for redundancy-free queries.
	FrontierSize int
	// RedundancyFree reports membership in Redundancy-free XPath
	// (Definition 5.1), the fragment the lower bounds quantify over.
	RedundancyFree bool
	// Issues explains failed fragment conditions (empty when
	// RedundancyFree).
	Issues []string
	// Streamable reports whether the Section 8 filter supports the
	// query (leaf-only-value-restricted univariate conjunctive): whether
	// NewFilter and FilterSet.Add accept it.
	Streamable bool
	// StreamableReason explains why not, when Streamable is false: the
	// text of the error NewFilter returns.
	StreamableReason string
	// Recursive reports membership in Recursive XPath (Section 7.2.1):
	// the recursion-depth lower bound Ω(r) applies.
	Recursive bool
	// DepthSensitive reports whether the document-depth lower bound
	// Ω(log d) applies (Theorem 7.14's hypothesis).
	DepthSensitive bool
	// ClosureFree reports that no node uses the descendant axis
	// (Definition 8.7).
	ClosureFree bool
	// PathConsistencyFree reports that no two query nodes can be path
	// matched by one document node (Definition 8.6). Together with
	// ClosureFree it puts the filter in its O(FS(Q)·log) regime
	// (Theorem 8.8).
	PathConsistencyFree bool
	// Redundancies lists conjuncts provably implied by siblings
	// (Definition 5.12's subsumption, decided by a sound embedding
	// check); removing them does not change the query's semantics.
	Redundancies []string
}

// Analyze classifies the query.
func (q *Query) Analyze() Analysis {
	rep, streamable := fragment.Classify(q.q), fragment.Streamable(q.q)
	a := Analysis{
		Size:                q.q.Size(),
		FrontierSize:        fragment.FrontierSize(q.q),
		RedundancyFree:      rep.RedundancyFree(),
		Issues:              rep.Issues(),
		Streamable:          streamable.OK,
		ClosureFree:         fragment.ClosureFree(q.q),
		PathConsistencyFree: fragment.PathConsistencyFree(q.q),
	}
	if err := streamable.Err(); err != nil {
		a.StreamableReason = err.Error()
	}
	_, a.Recursive = fragment.RecursiveNode(q.q)
	_, a.DepthSensitive = fragment.DepthEligibleNode(q.q)
	if reds, err := fragment.RedundantNodes(q.q); err == nil {
		for _, r := range reds {
			a.Redundancies = append(a.Redundancies, r.String())
		}
	}
	return a
}

// FrontierSize is shorthand for Analyze().FrontierSize.
func (q *Query) FrontierSize() int { return fragment.FrontierSize(q.q) }

// IsRedundancyFree is shorthand for Analyze().RedundancyFree.
func (q *Query) IsRedundancyFree() bool { return fragment.IsRedundancyFree(q.q) }
