package fragment

import (
	"testing"

	"streamxpath/internal/query"
)

func TestAutomorphismPaperExample(t *testing.T) {
	// The example after Definition 6.8: /a[b and .//b] has a non-trivial
	// automorphism mapping both b nodes to the left (child-axis) b.
	q := query.MustParse("/a[b and .//b]")
	a := q.Root.Children[0]
	bLeft, bRight := a.Children[0], a.Children[1]
	autos := AllAutomorphisms(q, 0)
	var nontrivial []Automorphism
	for _, psi := range autos {
		if !VerifyAutomorphism(q, psi) {
			t.Errorf("enumerated automorphism fails verification")
		}
		if !psi.IsTrivial() {
			nontrivial = append(nontrivial, psi)
		}
	}
	if len(nontrivial) != 1 {
		t.Fatalf("non-trivial automorphisms = %d, want 1", len(nontrivial))
	}
	psi := nontrivial[0]
	if psi[bRight] != bLeft || psi[bLeft] != bLeft {
		t.Error("the automorphism must map both b nodes to the left b")
	}
	// Lemma 6.9: the left b structurally subsumes the right b, not vice
	// versa (the right b has a descendant axis; a child is also a
	// descendant but not the other way).
	if !StructurallySubsumes(q, bLeft, bRight) {
		t.Error("left b subsumes right b")
	}
	if StructurallySubsumes(q, bRight, bLeft) {
		t.Error("right b must not subsume left b (child axis is strict)")
	}
}

func TestSDom(t *testing.T) {
	// Fig. 9's query: the second b structurally subsumes the first b
	// (leaf) and the first d subsumes the second d (leaf).
	q := query.MustParse("/a[*/b > 5 and c/b//d > 12 and .//d < 30]")
	a := q.Root.Children[0]
	star := a.Children[0]
	b1 := star.Successor
	c := a.Children[1]
	b2 := c.Successor
	d1 := b2.Successor
	d2 := a.Children[2]

	sd := SDomLeaves(q, b2)
	if len(sd) != 1 || sd[0] != b1 {
		t.Errorf("SDomLeaves(second b) = %v, want {first b}", names(sd))
	}
	sd2 := SDomLeaves(q, d1)
	if len(sd2) != 1 || sd2[0] != d2 {
		t.Errorf("SDomLeaves(first d) = %v, want {second d}", names(sd2))
	}
	// Leaves dominate nothing here.
	if len(SDomLeaves(q, b1)) != 0 {
		t.Error("first b dominates nothing")
	}
}

func names(ns []*query.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.NTest
	}
	return out
}

func TestProposition610(t *testing.T) {
	// Proposition 6.10: DEPTH(u) <= DEPTH(psi(u)) for every structural
	// query automorphism — automorphisms map nodes weakly deeper (a
	// descendant-axis node can map to a deeper descendant, never to a
	// shallower one).
	for _, src := range []string{
		"/a[b and .//b]",
		"/a[*/b > 5 and c/b//d > 12 and .//d < 30]",
		"//a[b and c and .//b]",
	} {
		q := query.MustParse(src)
		for _, psi := range AllAutomorphisms(q, 0) {
			for u, img := range psi {
				if u.Depth() > img.Depth() {
					t.Errorf("%s: DEPTH(%s)=%d > DEPTH(ψ(u)=%s)=%d",
						src, u.NTest, u.Depth(), img.NTest, img.Depth())
				}
			}
		}
	}
}

// TestAutomorphismPinned: FindAutomorphism honors multiple pins.
func TestAutomorphismPinned(t *testing.T) {
	q := query.MustParse("/a[b and .//b and c]")
	a := q.Root.Children[0]
	bChild, bDesc, c := a.Children[0], a.Children[1], a.Children[2]
	// Pin both b nodes onto the child-axis b: satisfiable.
	psi, ok := FindAutomorphism(q, map[*query.Node]*query.Node{bDesc: bChild, bChild: bChild})
	if !ok || psi[c] != c {
		t.Error("pinned automorphism should exist and fix c")
	}
	// Pin the child-axis b onto the descendant one: unsatisfiable (a
	// child-axis node must map to a child-axis node).
	if _, ok := FindAutomorphism(q, map[*query.Node]*query.Node{bChild: bDesc}); ok {
		t.Error("child-axis node cannot map to a descendant-axis node")
	}
	// Pin c onto b: node test preservation fails.
	if _, ok := FindAutomorphism(q, map[*query.Node]*query.Node{c: bChild}); ok {
		t.Error("c cannot map to b")
	}
}
