// Package canonical implements the canonical-document construction of
// Section 6.4 (Fig. 8): for every redundancy-free query Q, a document Dc
// that matches Q via a unique "canonical matching" mapping each query node
// to its shadow node.
//
// The construction mirrors the query tree, with three differences:
//
//  1. node tests become node names (wildcards get a fresh auxiliary name);
//  2. descendant-axis nodes are separated from their parents by a chain of
//     h+1 artificial nodes bearing the auxiliary name, where h is the length
//     of the longest chain of wildcard nodes in Q;
//  3. shadow nodes receive text values that belong "uniquely" to their truth
//     sets: leaves get a sunflower witness (a member of TRUTH(u) outside the
//     dominated leaves' truth sets), internal nodes with a non-empty
//     dominated-leaf set get a leading prefix-sunflower witness (a string
//     that is not a prefix of any dominated truth-set member).
//
// Lemma 6.11 (the canonical matching is a matching) and Lemma 6.15 (it is
// the only matching) are verified as executable checks; the lower-bound
// constructions of Section 7 build their document families by cutting and
// splicing the canonical document's event stream.
package canonical

import (
	"fmt"

	"streamxpath/internal/fragment"
	"streamxpath/internal/match"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
	"streamxpath/internal/tree"
)

// Canonical is a canonical document together with the bookkeeping the
// Section 7 constructions need.
type Canonical struct {
	Query *query.Query
	// Doc is the canonical document root.
	Doc *tree.Node
	// Shadow maps every query node to its shadow; the query root maps to
	// the document root. This is the canonical matching φc.
	Shadow map[*query.Node]*tree.Node
	// ShadowInv is the inverse of Shadow (shadows are distinct).
	ShadowInv map[*tree.Node]*query.Node
	// Artificial marks the artificial chain nodes.
	Artificial map[*tree.Node]bool
	// ChainHead maps each descendant-axis query node to the first
	// artificial node of the chain preceding its shadow (the node y in
	// the proof of Theorem 7.4).
	ChainHead map[*query.Node]*tree.Node
	// AuxName is the auxiliary name (a name not occurring in Q).
	AuxName string
	// H is the length of the longest wildcard chain in Q.
	H int
	// Values records the text value assigned to each shadow (if any).
	Values map[*query.Node]string
}

// AuxiliaryName returns a node name that does not occur as a node test in
// Q (the paper's getAuxiliaryName).
func AuxiliaryName(q *query.Query) string {
	used := map[string]bool{}
	for _, u := range q.Nodes() {
		used[u.NTest] = true
	}
	if !used["Z"] {
		return "Z"
	}
	for i := 0; ; i++ {
		cand := fmt.Sprintf("Z%d", i)
		if !used[cand] {
			return cand
		}
	}
}

// LongestWildcardChain returns h: the length of the longest path segment of
// Q all of whose nodes have the wildcard node test.
func LongestWildcardChain(q *query.Query) int {
	best := 0
	var rec func(u *query.Node, run int)
	rec = func(u *query.Node, run int) {
		if !u.IsRoot() && u.IsWildcard() {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
		for _, c := range u.Children {
			rec(c, run)
		}
	}
	rec(q.Root, 0)
	return best
}

// Build constructs the canonical document of q with text values
// (createCanonicalDocument of Fig. 8). It returns an error if a required
// sunflower witness cannot be found — which, for queries in Redundancy-free
// XPath with recognized truth-set shapes, cannot happen.
func Build(q *query.Query) (*Canonical, error) {
	c, err := build(q)
	if err != nil {
		return nil, err
	}
	if err := c.assignValues(); err != nil {
		return nil, err
	}
	return c, nil
}

// BuildStructural constructs the structurally canonical document: the same
// tree without any text nodes (used by the structural-subsumption
// machinery, Lemma 6.9's proof).
func BuildStructural(q *query.Query) (*Canonical, error) {
	return build(q)
}

func build(q *query.Query) (*Canonical, error) {
	c := &Canonical{
		Query:      q,
		Doc:        tree.NewRoot(),
		Shadow:     make(map[*query.Node]*tree.Node),
		ShadowInv:  make(map[*tree.Node]*query.Node),
		Artificial: make(map[*tree.Node]bool),
		ChainHead:  make(map[*query.Node]*tree.Node),
		AuxName:    AuxiliaryName(q),
		H:          LongestWildcardChain(q),
		Values:     make(map[*query.Node]string),
	}
	c.Shadow[q.Root] = c.Doc
	c.ShadowInv[c.Doc] = q.Root
	var rec func(u *query.Node) error
	rec = func(u *query.Node) error {
		for _, v := range u.Children {
			attach := c.Shadow[u]
			if v.Axis == query.AxisDescendant {
				for i := 0; i <= c.H; i++ {
					z := attach.AppendElement(c.AuxName)
					c.Artificial[z] = true
					if i == 0 {
						c.ChainHead[v] = z
					}
					attach = z
				}
			}
			name := v.NTest
			if v.IsWildcard() {
				name = c.AuxName
			}
			var sh *tree.Node
			if v.Axis == query.AxisAttribute {
				if !v.IsLeaf() {
					return fmt.Errorf("canonical: attribute-axis node @%s has children; no document realizes it", v.NTest)
				}
				sh = attach.Append(&tree.Node{Kind: tree.KindAttribute, Name: name})
			} else {
				sh = attach.AppendElement(name)
			}
			c.Shadow[v] = sh
			c.ShadowInv[sh] = v
			if err := rec(v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(q.Root); err != nil {
		return nil, err
	}
	return c, nil
}

// assignValues implements getUniqueValue (line 10 of Fig. 8) for every
// shadow node.
func (c *Canonical) assignValues() error {
	q := c.Query
	for _, u := range q.Nodes() {
		if u.IsRoot() {
			continue
		}
		domLeaves := fragment.SDomLeaves(q, u)
		var domSets []query.Set
		for _, v := range domLeaves {
			s, err := query.TruthSetOf(v)
			if err != nil {
				return err
			}
			domSets = append(domSets, s)
		}
		sh := c.Shadow[u]
		if u.IsLeaf() {
			set, err := query.TruthSetOf(u)
			if err != nil {
				return err
			}
			var w string
			var ok bool
			if len(domSets) == 0 {
				w, ok = set.Witness()
			} else {
				w, ok = query.WitnessOutside(set, domSets)
			}
			if !ok {
				return fmt.Errorf("canonical: no sunflower witness for leaf %s (truth set %s); query is not strongly subsumption-free", u.NTest, set)
			}
			sh.AppendText(w)
			c.Values[u] = w
			continue
		}
		if len(domSets) == 0 {
			continue // no text needed (matches the Fig. 9 example)
		}
		w, ok := query.NonPrefixWitness(domSets)
		if !ok {
			return fmt.Errorf("canonical: no prefix-sunflower witness for internal node %s; query is not strongly subsumption-free", u.NTest)
		}
		// Prepend the text node before all other children.
		txt := tree.NewText(w)
		txt.Parent = sh
		sh.Children = append([]*tree.Node{txt}, sh.Children...)
		c.Values[u] = w
	}
	return nil
}

// Matching returns the canonical matching φc as a match.Matching.
func (c *Canonical) Matching() match.Matching {
	phi := make(match.Matching, len(c.Shadow))
	for u, x := range c.Shadow {
		phi[u] = x
	}
	return phi
}

// Events returns the SAX stream of the canonical document.
func (c *Canonical) Events() []sax.Event { return c.Doc.Events() }

// VerifyCanonicalMatching checks Lemma 6.11: φc is a (full) matching of Dc
// with Q.
func (c *Canonical) VerifyCanonicalMatching() error {
	sets, err := match.TruthSets(c.Query)
	if err != nil {
		return err
	}
	return match.Verify(c.Matching(), c.Query.Root, c.Doc, match.Options{Kind: match.Full, Sets: sets})
}

// VerifyUnique checks Lemma 6.15: φc is the only matching of Dc and Q. It
// enumerates matchings (up to 2) and confirms exactly the canonical one
// exists.
func (c *Canonical) VerifyUnique() error {
	sets, err := match.TruthSets(c.Query)
	if err != nil {
		return err
	}
	all := match.FindAll(c.Query.Root, c.Doc, match.Options{Kind: match.Full, Sets: sets}, 3)
	if len(all) == 0 {
		return fmt.Errorf("canonical: no matching at all (Lemma 6.11 violated)")
	}
	if len(all) > 1 {
		return fmt.Errorf("canonical: %d matchings found; canonical matching not unique (Lemma 6.15 violated)", len(all))
	}
	phi := all[0]
	for u, want := range c.Shadow {
		if phi[u] != want {
			return fmt.Errorf("canonical: unique matching maps %s elsewhere than its shadow", u.NTest)
		}
	}
	return nil
}

// NoDescendantMatch checks Proposition 6.16 for a given query node: no
// proper descendant of SHADOW(u) has a matching with u.
func (c *Canonical) NoDescendantMatch(u *query.Node) error {
	sets, err := match.TruthSets(c.Query)
	if err != nil {
		return err
	}
	sh := c.Shadow[u]
	var bad *tree.Node
	sh.Walk(func(y *tree.Node) bool {
		if y == sh || y.Kind == tree.KindText {
			return true
		}
		if _, ok := match.Find(u, y, match.Options{Kind: match.Full, Sets: sets}); ok {
			bad = y
			return false
		}
		return true
	})
	if bad != nil {
		return fmt.Errorf("canonical: descendant %s of SHADOW(%s) matches %s (Proposition 6.16 violated)", bad.Name, u.NTest, u.NTest)
	}
	return nil
}
