package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"streamxpath/internal/query"
	"streamxpath/internal/semantics"
	"streamxpath/internal/tree"
)

// oracle holds the reference answers: every distinct query evaluated on the
// tree of every distinct document by internal/semantics, the paper's
// definition of the result. Every timed operation is compared with it.
type oracle struct {
	// truth[doc][query] is BOOLEVAL.
	truth [][]bool
	// frag[doc][query] is the first node FULLEVAL selects, kept for the
	// queries some subscription extracts; nil elsewhere.
	frag [][]*tree.Node
	// elapsed is the time the reference evaluation took; it is reported as
	// oracle.check_s and is no part of setup_s.
	elapsed time.Duration

	// checked caches the fragments already validated, as the strings they
	// arrived as; serve's connections share it.
	mu      sync.Mutex
	checked map[fragKey]string
}

type fragKey struct {
	doc, q  int
	chunked bool
}

// buildOracle evaluates the reference. corrupt flips one verdict afterwards;
// the smoke test uses it to see a wrong verdict turn into a failure.
func buildOracle(sp *spec, corrupt bool) (*oracle, error) {
	start := time.Now()
	qs := make([]*query.Query, len(sp.queries))
	for i, src := range sp.queries {
		q, err := query.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("oracle: query %q: %w", src, err)
		}
		qs[i] = q
	}
	extracted := make([]bool, len(qs))
	for _, s := range sp.subs {
		extracted[s.q] = extracted[s.q] || s.extract
	}
	o := &oracle{checked: make(map[fragKey]string)}
	for _, doc := range sp.docs {
		d, err := tree.Parse(string(doc))
		if err != nil {
			return nil, fmt.Errorf("oracle: document: %w", err)
		}
		row, frags := make([]bool, len(qs)), make([]*tree.Node, len(qs))
		for i, q := range qs {
			row[i] = semantics.BoolEval(q, d)
			if row[i] && extracted[i] {
				if sel := semantics.FullEval(q, d); len(sel) > 0 {
					frags[i] = sel[0].Clone()
				}
			}
		}
		o.truth = append(o.truth, row)
		o.frag = append(o.frag, frags)
	}
	if corrupt {
		o.truth[0][0] = !o.truth[0][0]
	}
	o.elapsed = time.Since(start)
	return o, nil
}

// fragmentOK checks an extracted fragment against the reference: it is
// well-formed and equal, as a tree, to the first node the query selects
// (hence rooted at the query's last step). A fragment already validated for
// the same document, query and body framing is compared as a string.
func (o *oracle) fragmentOK(doc, q int, chunked bool, frag string) bool {
	key := fragKey{doc, q, chunked}
	o.mu.Lock()
	seen, ok := o.checked[key]
	o.mu.Unlock()
	if ok {
		return seen == frag
	}
	want := o.frag[doc][q]
	got, err := tree.Parse(frag)
	if err != nil || want == nil || len(got.Children) != 1 || !got.Children[0].Equal(want) {
		return false
	}
	o.mu.Lock()
	o.checked[key] = frag
	o.mu.Unlock()
	return true
}

// ring is the subscription set in force, oldest first from head. A mutation
// replaces the oldest subscription by a new id with the same query, so the
// set's content, and with it the cost of every round, stays the same.
type ring struct {
	subs []sub
	head int
	seq  int
}

func newRing(subs []sub) *ring {
	return &ring{subs: append([]sub(nil), subs...)}
}

// rotate replaces the oldest subscription and returns the removed id and
// its replacement, which is now the newest.
func (r *ring) rotate() (old string, fresh sub) {
	s := &r.subs[r.head]
	old = s.id
	r.seq++
	s.id = "m" + strconv.Itoa(r.seq)
	r.head = (r.head + 1) % len(r.subs)
	return old, *s
}

// each visits the set oldest first, which is the insertion order the
// matchers report ids in.
func (r *ring) each(f func(s *sub) bool) {
	n := len(r.subs)
	for i := 0; i < n; i++ {
		if !f(&r.subs[(r.head+i)%n]) {
			return
		}
	}
}

// matches reports whether matched is exactly the ids of the subscriptions
// in force whose query the reference says the document satisfies, in
// insertion order.
func (r *ring) matches(truth []bool, matched []string) bool {
	p, ok := 0, true
	r.each(func(s *sub) bool {
		if truth[s.q] {
			if p >= len(matched) || matched[p] != s.id {
				ok = false
				return false
			}
			p++
		}
		return true
	})
	return ok && p == len(matched)
}
