package query

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"streamxpath/internal/value"
)

// truthOf parses a query and returns the truth set of the named leaf.
func truthOf(t *testing.T, src, leafName string) Set {
	t.Helper()
	q := MustParse(src)
	var target *Node
	q.Root.Walk(func(n *Node) bool {
		if n.NTest == leafName && n.Successor == nil {
			target = n
			return false
		}
		return true
	})
	if target == nil {
		t.Fatalf("no succession leaf named %q in %s", leafName, src)
	}
	s, err := TruthSetOf(target)
	if err != nil {
		t.Fatalf("TruthSetOf(%s in %s): %v", leafName, src, err)
	}
	return s
}

// TestTruthSetPaperExample reproduces the example after Definition 5.6:
// in /a[b/c > 5 and d], the truth set of a, b, d is S and of c is (5, ∞).
func TestTruthSetPaperExample(t *testing.T) {
	q := MustParse("/a[b/c > 5 and d]")
	a := q.Root.Children[0]
	b := a.Children[0]
	c := b.Successor
	d := a.Children[1]

	for _, n := range []*Node{a, b, d} {
		s, err := TruthSetOf(n)
		if err != nil {
			t.Fatalf("TruthSetOf(%s): %v", n.NTest, err)
		}
		if !s.IsAll() {
			t.Errorf("TRUTH(%s) = %s, want S", n.NTest, s)
		}
	}
	s, err := TruthSetOf(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.IsAll() {
		t.Fatal("TRUTH(c) should be restricted")
	}
	for _, member := range []string{"6", "5.5", "100"} {
		if !s.Contains(member) {
			t.Errorf("TRUTH(c) should contain %q", member)
		}
	}
	for _, non := range []string{"5", "4", "hello", "", "-6"} {
		if s.Contains(non) {
			t.Errorf("TRUTH(c) should not contain %q", non)
		}
	}
}

func TestNumSetOps(t *testing.T) {
	cases := []struct {
		src     string
		members []string
		nons    []string
	}{
		{"/a[b > 5]", []string{"6", "5.1", "99"}, []string{"5", "4", "x", ""}},
		{"/a[b >= 5]", []string{"5", "5.0", "05"}, []string{"4.9", "x"}},
		{"/a[b < 5]", []string{"4", "-10", "4.9"}, []string{"5", "6", "x"}},
		{"/a[b <= 5]", []string{"5", "-10"}, []string{"5.1", "x"}},
		{"/a[b = 5]", []string{"5", "5.0", "05", " 5 "}, []string{"6", "x", ""}},
		{"/a[b != 5]", []string{"6", "-5"}, []string{"5", "5.0", "x", ""}},
		{"/a[5 < b]", []string{"6"}, []string{"5", "4"}},
	}
	for _, c := range cases {
		s := truthOf(t, c.src, "b")
		for _, m := range c.members {
			if !s.Contains(m) {
				t.Errorf("%s: %q should be a member of %s", c.src, m, s)
			}
		}
		for _, n := range c.nons {
			if s.Contains(n) {
				t.Errorf("%s: %q should not be a member of %s", c.src, n, s)
			}
		}
		if w, ok := s.Witness(); !ok || !s.Contains(w) {
			t.Errorf("%s: witness %q invalid", c.src, w)
		}
	}
}

// TestComparisonOf: the comparison form of a truth set is its operator and
// constant after normalization (operands flipped, linear arithmetic folded),
// and only single comparisons have one.
func TestComparisonOf(t *testing.T) {
	for _, c := range []struct {
		src  string
		want Comparison
		ok   bool
	}{
		{"/a[b > 5]", Comparison{Op: value.OpGt, Numeric: true, Num: 5}, true},
		{"/a[5 >= b]", Comparison{Op: value.OpLe, Numeric: true, Num: 5}, true},
		{"/a[b + 1 = 3]", Comparison{Op: value.OpEq, Numeric: true, Num: 2}, true},
		{`/a[b != "5"]`, Comparison{Op: value.OpNe, Numeric: true, Num: 5}, true},
		{`/a[b = "x"]`, Comparison{Op: value.OpEq, Str: "x"}, true},
		{`/a[b != "x"]`, Comparison{Op: value.OpNe, Str: "x"}, true},
		{"/a[b]", Comparison{}, false},
		{`/a[b > "x"]`, Comparison{}, false},
		{`/a[contains(b, "x")]`, Comparison{}, false},
		{"/a[string-length(b) > 2]", Comparison{}, false},
		{"/a[b * 0 = 0]", Comparison{}, false},
	} {
		if got, ok := ComparisonOf(truthOf(t, c.src, "b")); got != c.want || ok != c.ok {
			t.Errorf("%s: ComparisonOf = %+v, %v; want %+v, %v", c.src, got, ok, c.want, c.ok)
		}
	}
	if _, ok := ComparisonOf(NumSet(value.OpGt, math.NaN())); ok {
		t.Error("a NaN constant is the empty set, not a comparison")
	}
}

func TestLinearNormalization(t *testing.T) {
	// b + 2 = 5  <=>  b = 3
	s := truthOf(t, "/a[b + 2 = 5]", "b")
	if !s.Contains("3") || s.Contains("5") || s.Contains("x") {
		t.Errorf("b+2=5: %s", s)
	}
	// 2 * b > 6  <=>  b > 3
	s2 := truthOf(t, "/a[2 * b > 6]", "b")
	if !s2.Contains("4") || s2.Contains("3") || s2.Contains("2") {
		t.Errorf("2*b>6: %s", s2)
	}
	// 10 - b < 4  <=>  b > 6 (sign flip)
	s3 := truthOf(t, "/a[10 - b < 4]", "b")
	if !s3.Contains("7") || s3.Contains("6") || s3.Contains("5") {
		t.Errorf("10-b<4: %s", s3)
	}
	// -b < -5  <=>  b > 5
	s4 := truthOf(t, "/a[-b < -5]", "b")
	if !s4.Contains("6") || s4.Contains("5") {
		t.Errorf("-b<-5: %s", s4)
	}
	// b div 2 >= 3  <=>  b >= 6
	s5 := truthOf(t, "/a[b div 2 >= 3]", "b")
	if !s5.Contains("6") || s5.Contains("5.9") {
		t.Errorf("b div 2 >= 3: %s", s5)
	}
}

func TestStringSets(t *testing.T) {
	s := truthOf(t, `/a[b = "hello"]`, "b")
	if !s.Contains("hello") || s.Contains("hello ") || s.Contains("") {
		t.Errorf("string eq: %s", s)
	}
	if !s.ExtendsToMember("hel") || s.ExtendsToMember("x") {
		t.Error("string eq prefix behavior")
	}
	s2 := truthOf(t, `/a[b != "hello"]`, "b")
	if s2.Contains("hello") || !s2.Contains("x") || !s2.Contains("") {
		t.Errorf("string ne: %s", s2)
	}
	if !s2.ExtendsToMember("hel") {
		t.Error("string ne: every prefix extends")
	}
}

func TestStrFuncSets(t *testing.T) {
	s := truthOf(t, `/a[contains(b, "AB")]`, "b")
	if !s.Contains("xABy") || s.Contains("AxB") {
		t.Errorf("contains: %s", s)
	}
	if !s.ExtendsToMember("anything") {
		t.Error("contains: every prefix extends (append AB)")
	}
	s2 := truthOf(t, `/a[starts-with(b, "AB")]`, "b")
	if !s2.Contains("ABx") || s2.Contains("xAB") {
		t.Errorf("starts-with: %s", s2)
	}
	if !s2.ExtendsToMember("A") || !s2.ExtendsToMember("ABxy") || s2.ExtendsToMember("x") {
		t.Error("starts-with prefix behavior")
	}
	s3 := truthOf(t, `/a[ends-with(b, "AB")]`, "b")
	if !s3.Contains("xAB") || s3.Contains("ABx") {
		t.Errorf("ends-with: %s", s3)
	}
	if !s3.ExtendsToMember("zz") {
		t.Error("ends-with: every prefix extends")
	}
	// fn: prefix accepted, as in the paper's examples.
	s4 := truthOf(t, `/a[fn:ends-with(b, "B")]`, "b")
	if !s4.Contains("xB") {
		t.Error("fn:ends-with")
	}
}

func TestLenSets(t *testing.T) {
	s := truthOf(t, "/a[string-length(b) = 3]", "b")
	if !s.Contains("abc") || s.Contains("ab") || s.Contains("abcd") {
		t.Errorf("len=3: %s", s)
	}
	if !s.ExtendsToMember("ab") || s.ExtendsToMember("abcd") {
		t.Error("len=3 prefix behavior")
	}
	s2 := truthOf(t, "/a[string-length(b) < 2]", "b")
	if !s2.Contains("") || !s2.Contains("a") || s2.Contains("ab") {
		t.Errorf("len<2: %s", s2)
	}
	if s2.ExtendsToMember("abc") || !s2.ExtendsToMember("a") {
		t.Error("len<2 prefix behavior")
	}
	s3 := truthOf(t, "/a[string-length(b) > 2]", "b")
	if !s3.ExtendsToMember("") || !s3.ExtendsToMember("abcdef") {
		t.Error("len>2: every prefix extends")
	}
	// Empty set: length < 0.
	s4 := truthOf(t, "/a[string-length(b) < 0]", "b")
	if _, ok := s4.Witness(); ok {
		t.Error("len<0 must be empty")
	}
}

func TestExistenceTruthSet(t *testing.T) {
	s := truthOf(t, "/a[b]", "b")
	if !s.IsAll() {
		t.Errorf("bare existence: %s, want S", s)
	}
	// Node on the main succession: TRUTH = S.
	q := MustParse("/a/b")
	b := q.Out()
	s2, err := TruthSetOf(b)
	if err != nil || !s2.IsAll() {
		t.Errorf("main-path leaf: %v %v", s2, err)
	}
	// Non-succession-leaf (has successor): TRUTH = S.
	q2 := MustParse("/a[b/c > 5]")
	bNode := q2.Root.Children[0].Children[0]
	s3, err := TruthSetOf(bNode)
	if err != nil || !s3.IsAll() {
		t.Errorf("non-leaf: %v %v", s3, err)
	}
}

func TestUnsatisfiableSets(t *testing.T) {
	// Numeric comparison against a non-numeric constant.
	s := truthOf(t, `/a[b > "x"]`, "b")
	if _, ok := s.Witness(); ok {
		t.Errorf("b > \"x\" should be empty: %s", s)
	}
	if s.Contains("5") || s.Contains("x") {
		t.Error("b > \"x\" contains nothing")
	}
	// Ordering against non-numeric string via recognized path.
	s2 := truthOf(t, `/a[b < "hello"]`, "b")
	if s2.Contains("abc") {
		t.Error("ordering vs non-numeric is empty")
	}
}

func TestValueRestricted(t *testing.T) {
	// The paper's leaf-only-value-restricted examples (Definition 5.7):
	// /a[b[c] > 5] has internal b value-restricted.
	q := MustParse("/a[b[c] > 5]")
	b := q.Root.Children[0].Children[0]
	vr, err := ValueRestricted(b)
	if err != nil || !vr {
		t.Errorf("b in /a[b[c] > 5]: restricted=%v err=%v, want true", vr, err)
	}
	// /a[b[c > 5]] has only the leaf c restricted.
	q2 := MustParse("/a[b[c > 5]]")
	b2 := q2.Root.Children[0].Children[0]
	vr2, err := ValueRestricted(b2)
	if err != nil || vr2 {
		t.Errorf("b in /a[b[c > 5]]: restricted=%v err=%v, want false", vr2, err)
	}
	c2 := b2.Children[0]
	vr3, _ := ValueRestricted(c2)
	if !vr3 {
		t.Error("c should be value-restricted")
	}
}

func TestNonUnivariateError(t *testing.T) {
	q := MustParse("/a[b = c]")
	b := q.Root.Children[0].Children[0]
	if _, err := TruthSetOf(b); err == nil {
		t.Error("two-variable atomic predicate: want error")
	}
}

func TestGenericSetFallback(t *testing.T) {
	// concat is not a recognized shape; falls back to GenericSet with
	// exact Contains.
	s := truthOf(t, `/a[concat(b, "y") = "xy"]`, "b")
	if !s.Contains("x") || s.Contains("xy") || s.Contains("") {
		t.Errorf("generic concat: %s", s)
	}
	if w, ok := s.Witness(); ok && !s.Contains(w) {
		t.Errorf("generic witness %q not a member", w)
	}
}

func TestNumSetExtendsToMember(t *testing.T) {
	gt5 := NumSet(value.OpGt, 5)
	for _, p := range []string{"", "6", "4", "5", "12."} {
		if !gt5.ExtendsToMember(p) {
			t.Errorf("(5,∞): prefix %q should extend (e.g. %q00...)", p, p)
		}
	}
	// The canonical-document example: "hello" is not a prefix of any
	// number > 5; nor is "-" (every "-"-prefixed number is ≤ 0).
	for _, p := range []string{"hello", "x", "5x", "-"} {
		if gt5.ExtendsToMember(p) {
			t.Errorf("(5,∞): prefix %q must not extend", p)
		}
	}
	lt0 := NumSet(value.OpLt, 0)
	if !lt0.ExtendsToMember("-") || !lt0.ExtendsToMember("-3") {
		t.Error("(-∞,0): '-' prefixes extend")
	}
	if lt0.ExtendsToMember("3") {
		t.Error("(-∞,0): positive digit prefixes do not extend")
	}
	eq5 := NumSet(value.OpEq, 5)
	if !eq5.ExtendsToMember("5") || !eq5.ExtendsToMember("0") || !eq5.ExtendsToMember("5.0") {
		t.Error("{5}: 5, 0(05), 5.0 prefixes extend")
	}
	if eq5.ExtendsToMember("6") || eq5.ExtendsToMember("4") {
		t.Error("{5}: other digit prefixes do not extend")
	}
	eqHalf := NumSet(value.OpEq, 12.5)
	if !eqHalf.ExtendsToMember("12") || !eqHalf.ExtendsToMember("1") {
		t.Error("{12.5}: prefixes of 12.5 extend")
	}
}

func TestWitnessOutside(t *testing.T) {
	// The Fig. 9 scenario: value in (12,∞) but not in (-∞,30) means > 30
	// — wait, the actual construction wants a member of d1's set (12,∞)
	// outside d2's set (-∞,30): any number > 30 works, e.g. 31.
	in := NumSet(value.OpGt, 12)
	out := []Set{NumSet(value.OpLt, 30)}
	w, ok := WitnessOutside(in, out)
	if !ok {
		t.Fatal("witness should exist (e.g. 31)")
	}
	if !in.Contains(w) || out[0].Contains(w) {
		t.Errorf("witness %q violates constraints", w)
	}
	// Impossible case: member of {5} outside (4,6).
	if _, ok := WitnessOutside(NumSet(value.OpEq, 5), []Set{NumSet(value.OpGt, 4)}); ok {
		t.Error("witness cannot exist: {5} ⊆ (4,∞)")
	}
	// Sunflower failure from the paper: ^A.*B-style overlapping string
	// sets modeled with contains/prefix/suffix: member of
	// starts-with("A")∧ends-with("B")... approximated: member of
	// contains("AB") outside ends-with("B")? e.g. "ABx".
	w2, ok := WitnessOutside(StrFuncSet(StrContains, "AB"), []Set{StrFuncSet(StrSuffix, "B")})
	if !ok || !strings.Contains(w2, "AB") || strings.HasSuffix(w2, "B") {
		t.Errorf("witness %q, ok=%v", w2, ok)
	}
}

func TestNonPrefixWitness(t *testing.T) {
	// Against numeric sets a letter-initial string works.
	w, ok := NonPrefixWitness([]Set{NumSet(value.OpGt, 5), NumSet(value.OpLt, 30)})
	if !ok {
		t.Fatal("non-prefix witness should exist")
	}
	for _, s := range []Set{NumSet(value.OpGt, 5), NumSet(value.OpLt, 30)} {
		if s.ExtendsToMember(w) {
			t.Errorf("witness %q extends into %s", w, s)
		}
	}
	// Against ends-with("B") no witness exists: every string is a prefix
	// of some member (the paper's strong-subsumption-freeness
	// counterexample).
	if _, ok := NonPrefixWitness([]Set{StrFuncSet(StrSuffix, "B")}); ok {
		t.Error("ends-with: every string extends to a member; no witness")
	}
	// Against contains sets likewise.
	if _, ok := NonPrefixWitness([]Set{StrFuncSet(StrContains, "AB")}); ok {
		t.Error("contains: no witness")
	}
	// Against a singleton string set almost anything works.
	if _, ok := NonPrefixWitness([]Set{StrEqSet("hello")}); !ok {
		t.Error("singleton: witness exists")
	}
}

func TestSetWitnessProperty(t *testing.T) {
	// Property: for random thresholds and ops, Witness is a member.
	f := func(c int16, opIdx uint8) bool {
		ops := []value.CompOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
		s := NumSet(ops[int(opIdx)%len(ops)], float64(c))
		w, ok := s.Witness()
		return ok && s.Contains(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetExtendsConsistency(t *testing.T) {
	// Property: if Contains(s), then every prefix of s satisfies
	// ExtendsToMember.
	sets := []Set{
		NumSet(value.OpGt, 5), NumSet(value.OpLe, -3), NumSet(value.OpEq, 12.5),
		StrEqSet("hello"), StrNeSet("x"), StrFuncSet(StrContains, "AB"),
		StrFuncSet(StrPrefix, "AB"), StrFuncSet(StrSuffix, "AB"),
		LenSet(value.OpEq, 3), LenSet(value.OpGt, 2), All,
	}
	samples := []string{"6", "5", "-3", "-4", "12.5", "hello", "x", "xABy", "AB", "ABz", "zAB", "abc", "ab", "abcd", "", "0"}
	for _, s := range sets {
		for _, sample := range samples {
			if !s.Contains(sample) {
				continue
			}
			for i := 0; i <= len(sample); i++ {
				if !s.ExtendsToMember(sample[:i]) {
					t.Errorf("%s: member %q has prefix %q that claims not to extend", s, sample, sample[:i])
				}
			}
		}
	}
}

func TestSetStringDescriptions(t *testing.T) {
	for _, s := range []Set{
		All, EmptySet, NumSet(value.OpGt, 5), NumAnySet(), StrEqSet("x"),
		StrNeSet("x"), StrFuncSet(StrContains, "y"), LenSet(value.OpEq, 2),
		GenericSet("odd", func(string) bool { return false }, nil),
	} {
		if s.String() == "" {
			t.Errorf("%T: empty description", s)
		}
	}
}
