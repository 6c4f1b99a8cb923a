package query

import "testing"

func TestStepKeyUnifiesEquivalentSpellings(t *testing.T) {
	cases := [][2]string{
		{`//catalog/item[priority > 5]/name`, `//catalog/item[priority>5]/name`},
		{`/a/b`, `/a/b`},
		{`//a[b = "x" and c]`, `//a[ b = "x"   and c ]`},
	}
	for _, c := range cases {
		q1, q2 := MustParse(c[0]), MustParse(c[1])
		if q1.Key() != q2.Key() {
			t.Errorf("Key(%q) = %q != Key(%q) = %q", c[0], q1.Key(), c[1], q2.Key())
		}
	}
}

func TestStepKeyDistinguishes(t *testing.T) {
	cases := [][2]string{
		{`/a/b`, `/a//b`},
		{`/a/b`, `/a/@b`},
		{`/a[b]`, `/a/b`},
		{`/a[b > 5]`, `/a[b > 6]`},
		{`/a[b and c]`, `/a[c and b]`}, // order-sensitive: unification is an optimization, not semantics
		{`/a/*`, `/a/b`},
		// A key is a rendering, so the rendering keeps the source's grouping:
		// these compute different values and must not share a trie step.
		{`/a[(b + 2) * 3 = 9]`, `/a[b + 2 * 3 = 9]`},
		{`/a[b - (c - 1) = 0]`, `/a[b - c - 1 = 0]`},
		{`/a[-(b + 1) = 0]`, `/a[-b + 1 = 0]`},
		{`/a[b = 'x" and c = "y']`, `/a[b = "x" and c = "y"]`},
	}
	for _, c := range cases {
		q1, q2 := MustParse(c[0]), MustParse(c[1])
		if q1.Key() == q2.Key() {
			t.Errorf("Key(%q) == Key(%q) = %q; want distinct", c[0], c[1], q1.Key())
		}
	}
}

func TestSpineKeySharedPrefix(t *testing.T) {
	q1 := MustParse(`//catalog/item[priority > 5]/name`)
	q2 := MustParse(`//catalog/item[priority > 5]/id`)
	k1, k2 := q1.SpineKey(), q2.SpineKey()
	if len(k1) != 3 || len(k2) != 3 {
		t.Fatalf("spine lengths = %d, %d; want 3, 3", len(k1), len(k2))
	}
	for i := 0; i < 2; i++ {
		if k1[i] != k2[i] {
			t.Errorf("spine step %d differs: %q vs %q", i, k1[i], k2[i])
		}
	}
	if k1[2] == k2[2] {
		t.Errorf("final steps should differ, both %q", k1[2])
	}
}
