package fragment

import (
	"testing"

	"streamxpath/internal/query"
)

func TestPathConsistent(t *testing.T) {
	// Definition 8.5's example: in /a[.//b/c and b//c], the two c nodes
	// are path consistent (witness <a><b><c/></b></a>).
	q := query.MustParse("/a[.//b/c and b//c]")
	a := q.Root.Children[0]
	c1 := a.Children[0].Successor
	c2 := a.Children[1].Successor
	if c1.NTest != "c" || c2.NTest != "c" {
		t.Fatal("test setup: expected two c succession leaves")
	}
	if !PathConsistent(c1, c2) {
		t.Error("the two c nodes are path consistent")
	}
	if PathConsistencyFree(q) {
		t.Error("query is not path consistency-free")
	}
	// Disjoint names are not path consistent.
	q2 := query.MustParse("/a[b and c]")
	a2 := q2.Root.Children[0]
	if PathConsistent(a2.Children[0], a2.Children[1]) {
		t.Error("b and c are not path consistent")
	}
	if !PathConsistencyFree(q2) {
		t.Error("/a[b and c] is path consistency-free")
	}
	// A node is never tested against itself; different depths with same
	// names under child axes are inconsistent.
	q3 := query.MustParse("/a[b/b]")
	a3 := q3.Root.Children[0]
	bTop := a3.Children[0]
	bBot := bTop.Successor
	if PathConsistent(bTop, bBot) {
		t.Error("/a/b vs /a/b/b end at different depths")
	}
}
