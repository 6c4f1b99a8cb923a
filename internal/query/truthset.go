package query

import (
	"fmt"
	"math"
	"strings"

	"streamxpath/internal/value"
)

// Set is the truth set TRUTH(P) of a univariate atomic predicate
// (Definition 5.6): the set of string values that satisfy the predicate
// after proper casting. Beyond membership, sets expose the operations the
// sunflower machinery needs:
//
//   - Witness finds a member (for canonical-document text values);
//   - ExtendsToMember decides whether a given string is a prefix of some
//     member (the PREFIX(TRUTH(·)) queries of Definition 5.17);
//   - Candidates yields a small pool of members and near-misses used when
//     searching for values inside one set but outside others (the sunflower
//     property, Definition 5.16).
//
// All concrete sets answer Contains exactly. Witness/ExtendsToMember are
// exact for the recognized predicate shapes (numeric comparisons, string
// equality, contains/starts-with/ends-with, string-length bounds) and
// heuristic for the generic fallback, which is documented on genericSet.
type Set interface {
	// Contains reports whether s belongs to the set.
	Contains(s string) bool
	// IsAll reports whether the set is all of S (so the node is not
	// value-restricted, Definition 5.7).
	IsAll() bool
	// Witness returns some member, preferring short simple ones; ok is
	// false if the set is empty (or no member could be found).
	Witness() (s string, ok bool)
	// ExtendsToMember reports whether some member has p as a prefix.
	ExtendsToMember(p string) bool
	// Candidates returns a finite pool of strings near the set's
	// boundary: members and near-non-members. Used for witness searches
	// across several sets.
	Candidates() []string
	// String describes the set for diagnostics.
	String() string
}

// All is the truth set S of all strings.
var All Set = allSet{}

type allSet struct{}

func (allSet) Contains(string) bool        { return true }
func (allSet) IsAll() bool                 { return true }
func (allSet) Witness() (string, bool)     { return "v", true }
func (allSet) ExtendsToMember(string) bool { return true }
func (allSet) Candidates() []string        { return []string{"v", "", "0", "x"} }
func (allSet) String() string              { return "S" }

// numAny is the pseudo-operator for "any numeric string".
const numAny value.CompOp = "num"

// NumSet returns the truth set {s : number(s) op c} of a numeric comparison.
// A NaN constant yields the empty set (NaN poisons every comparison).
func NumSet(op value.CompOp, c float64) Set { return numSet{op: op, c: c} }

// NumAnySet returns the set of all numeric strings.
func NumAnySet() Set { return numSet{op: numAny} }

type numSet struct {
	op value.CompOp
	c  float64
}

func (n numSet) Contains(s string) bool {
	f, ok := value.ParseNumber(s)
	if !ok {
		return false
	}
	if n.op == numAny {
		return true
	}
	return value.Compare(n.op, value.Number(f), value.Number(n.c))
}

func (n numSet) IsAll() bool { return false }

func (n numSet) Witness() (string, bool) {
	if n.op != numAny && math.IsNaN(n.c) {
		return "", false
	}
	var f float64
	switch n.op {
	case numAny, value.OpEq, value.OpLe, value.OpGe:
		f = n.c
	case value.OpNe, value.OpGt:
		f = n.c + 1
	case value.OpLt:
		f = n.c - 1
	}
	if n.op == numAny {
		f = 0
	}
	s := value.FormatNumber(f)
	if n.Contains(s) {
		return s, true
	}
	return "", false
}

// ExtendsToMember tests completion candidates of p: appending digits scales
// the value or pads fractions, which reaches past any finite threshold. The
// candidate pool is exhaustive for thresholds below 1e25 (far beyond
// anything the test corpus or a sane query uses).
func (n numSet) ExtendsToMember(p string) bool {
	if !value.IsNumericPrefix(p) {
		return false
	}
	for _, cand := range n.completions(p) {
		if n.Contains(cand) {
			return true
		}
	}
	return false
}

func (n numSet) completions(p string) []string {
	out := []string{p}
	fmtc := value.FormatNumber(n.c)
	if !math.IsNaN(n.c) {
		if strings.HasPrefix(fmtc, p) {
			out = append(out, fmtc)
		}
		// All-zero prefixes can be followed by the constant itself.
		if strings.Trim(p, "0") == "" && !strings.HasPrefix(fmtc, "-") {
			out = append(out, p+fmtc)
		}
		if p == "-" && strings.HasPrefix(fmtc, "-") {
			out = append(out, fmtc)
		}
		// Fractional continuation after a final digit or dot.
		tail := strings.TrimPrefix(fmtc, "-")
		if i := strings.IndexByte(tail, '.'); i >= 0 {
			out = append(out, p+tail[i:], p+tail[i+1:])
		}
	}
	for k := 1; k <= 25; k++ {
		out = append(out, p+strings.Repeat("0", k), p+strings.Repeat("9", k))
	}
	out = append(out, p+"5", p+"1", p+".5", p+".0")
	if p == "" || p == "-" {
		out = append(out, p+"0.5", p+"1", p+"0")
	}
	return out
}

func (n numSet) Candidates() []string {
	if n.op == numAny {
		return []string{"0", "7", "-1", "0.5"}
	}
	out := []string{}
	for _, d := range []float64{-2, -1, -0.5, 0, 0.5, 1, 2} {
		out = append(out, value.FormatNumber(n.c+d))
	}
	return append(out, "0", "1", "-1")
}

func (n numSet) String() string {
	if n.op == numAny {
		return "{s : s is numeric}"
	}
	return fmt.Sprintf("{s : number(s) %s %s}", n.op, value.FormatNumber(n.c))
}

// StrEqSet returns the singleton truth set {c} of a textual equality.
func StrEqSet(c string) Set { return strEqSet{c} }

type strEqSet struct{ c string }

func (s strEqSet) Contains(x string) bool { return x == s.c }
func (s strEqSet) IsAll() bool            { return false }
func (s strEqSet) Witness() (string, bool) {
	return s.c, true
}
func (s strEqSet) ExtendsToMember(p string) bool { return strings.HasPrefix(s.c, p) }
func (s strEqSet) Candidates() []string          { return []string{s.c, s.c + "x", "x" + s.c} }
func (s strEqSet) String() string                { return fmt.Sprintf("{%q}", s.c) }

// StrNeSet returns the truth set of a textual inequality: all strings
// except c.
func StrNeSet(c string) Set { return strNeSet{c} }

type strNeSet struct{ c string }

func (s strNeSet) Contains(x string) bool { return x != s.c }
func (s strNeSet) IsAll() bool            { return false }
func (s strNeSet) Witness() (string, bool) {
	return s.c + "x", true
}

// ExtendsToMember is always true: every prefix has at least two extensions,
// and at most one of them is the excluded string.
func (s strNeSet) ExtendsToMember(string) bool { return true }
func (s strNeSet) Candidates() []string        { return []string{s.c + "x", "zz", s.c} }
func (s strNeSet) String() string              { return fmt.Sprintf("{s : s != %q}", s.c) }

// Comparison is the comparison form {s : s Op constant} of a truth set: a
// numeric comparison of number(s) against Num, or a textual (in)equality of
// s against Str. It is what an index over many such sets keys on — the
// constant — where Contains can only be asked one set at a time.
type Comparison struct {
	Op      value.CompOp
	Numeric bool
	Num     float64
	Str     string
}

// ComparisonOf returns the comparison form of s; ok is false for every set
// that is not one comparison against one constant (S, the empty set, the
// numeric strings, string functions, length bounds, generic sets).
func ComparisonOf(s Set) (c Comparison, ok bool) {
	switch s := s.(type) {
	case numSet:
		if s.op == numAny || math.IsNaN(s.c) {
			return Comparison{}, false // a NaN constant makes the set empty
		}
		return Comparison{Op: s.op, Numeric: true, Num: s.c}, true
	case strEqSet:
		return Comparison{Op: value.OpEq, Str: s.c}, true
	case strNeSet:
		return Comparison{Op: value.OpNe, Str: s.c}, true
	}
	return Comparison{}, false
}

// StrFuncKind selects which string-predicate truth set to build.
type StrFuncKind uint8

// The three string predicates with exact truth sets.
const (
	StrContains StrFuncKind = iota
	StrPrefix               // starts-with
	StrSuffix               // ends-with
)

// StrFuncSet returns the truth set of contains/starts-with/ends-with with a
// constant second argument. An empty constant makes the predicate a
// tautology, so All is returned.
func StrFuncSet(kind StrFuncKind, c string) Set {
	if c == "" {
		return All
	}
	return strFuncSet{kind: kind, c: c}
}

type strFuncSet struct {
	kind StrFuncKind
	c    string
}

func (s strFuncSet) Contains(x string) bool {
	switch s.kind {
	case StrContains:
		return strings.Contains(x, s.c)
	case StrPrefix:
		return strings.HasPrefix(x, s.c)
	default:
		return strings.HasSuffix(x, s.c)
	}
}

func (s strFuncSet) IsAll() bool { return false }

func (s strFuncSet) Witness() (string, bool) { return s.c, true }

func (s strFuncSet) ExtendsToMember(p string) bool {
	switch s.kind {
	case StrPrefix:
		// Members start with c: p extends to one iff p and c are
		// prefix-compatible.
		return strings.HasPrefix(s.c, p) || strings.HasPrefix(p, s.c)
	default:
		// contains / ends-with: p + c is always a member.
		return true
	}
}

func (s strFuncSet) Candidates() []string {
	return []string{s.c, "x" + s.c + "y", s.c + s.c, "zz", s.c[:len(s.c)-1]}
}

func (s strFuncSet) String() string {
	names := map[StrFuncKind]string{StrContains: "contains", StrPrefix: "starts-with", StrSuffix: "ends-with"}
	return fmt.Sprintf("{s : %s(s, %q)}", names[s.kind], s.c)
}

// LenSet returns the truth set {s : string-length(s) op n}.
func LenSet(op value.CompOp, n float64) Set { return lenSet{op: op, n: n} }

type lenSet struct {
	op value.CompOp
	n  float64
}

func (l lenSet) Contains(x string) bool {
	return value.Compare(l.op, value.Number(float64(len([]rune(x)))), value.Number(l.n))
}

func (l lenSet) IsAll() bool { return false }

func (l lenSet) Witness() (string, bool) {
	for _, k := range l.lengthProbes(0) {
		if l.Contains(strings.Repeat("w", k)) {
			return strings.Repeat("w", k), true
		}
	}
	return "", false
}

func (l lenSet) ExtendsToMember(p string) bool {
	base := len([]rune(p))
	for _, k := range l.lengthProbes(base) {
		if k < base {
			continue
		}
		if l.Contains(strings.Repeat("w", k)) {
			return true
		}
	}
	return false
}

// lengthProbes enumerates candidate member lengths at or above base: the
// boundary region around n plus a far point. Length sets are unions of at
// most two intervals over the integers, so probing the boundary suffices.
func (l lenSet) lengthProbes(base int) []int {
	out := []int{base, base + 1, base + 2}
	n := int(math.Ceil(l.n))
	for d := -2; d <= 2; d++ {
		if n+d >= base {
			out = append(out, n+d)
		}
	}
	out = append(out, base+n+10, base+1000)
	return out
}

func (l lenSet) Candidates() []string {
	n := int(l.n)
	if n < 0 {
		n = 0
	}
	out := []string{strings.Repeat("w", n), strings.Repeat("w", n+1)}
	if n > 0 {
		out = append(out, strings.Repeat("w", n-1))
	}
	return append(out, "")
}

func (l lenSet) String() string {
	return fmt.Sprintf("{s : string-length(s) %s %s}", l.op, value.FormatNumber(l.n))
}

// EmptySet is the empty truth set (an unsatisfiable atomic predicate, e.g. a
// numeric comparison against a non-numeric constant).
var EmptySet Set = emptySet{}

type emptySet struct{}

func (emptySet) Contains(string) bool        { return false }
func (emptySet) IsAll() bool                 { return false }
func (emptySet) Witness() (string, bool)     { return "", false }
func (emptySet) ExtendsToMember(string) bool { return false }
func (emptySet) Candidates() []string        { return nil }
func (emptySet) String() string              { return "∅" }

// GenericSet wraps an arbitrary membership predicate. Contains is exact;
// Witness and ExtendsToMember probe the provided candidate pool (plus
// digit paddings), so they may miss members of adversarial predicates.
// The query analyzer only falls back to GenericSet for atomic predicates
// outside the recognized shapes, and the fragment checker reports such
// queries as "unverified" rather than silently misclassifying them.
func GenericSet(desc string, contains func(string) bool, pool []string) Set {
	return genericSet{desc: desc, contains: contains, pool: pool}
}

type genericSet struct {
	desc     string
	contains func(string) bool
	pool     []string
}

func (g genericSet) Contains(s string) bool { return g.contains(s) }
func (g genericSet) IsAll() bool            { return false }

func (g genericSet) Witness() (string, bool) {
	for _, c := range g.allCandidates() {
		if g.contains(c) {
			return c, true
		}
	}
	return "", false
}

func (g genericSet) ExtendsToMember(p string) bool {
	if g.contains(p) {
		return true
	}
	for _, c := range g.allCandidates() {
		if g.contains(p + c) {
			return true
		}
	}
	for k := 1; k <= 25; k++ {
		if g.contains(p+strings.Repeat("0", k)) || g.contains(p+strings.Repeat("9", k)) {
			return true
		}
	}
	return false
}

func (g genericSet) allCandidates() []string {
	out := append([]string{}, g.pool...)
	return append(out, "", "0", "1", "-1", "5", "v", "x", "0.5", "10", "100")
}

func (g genericSet) Candidates() []string { return g.allCandidates() }
func (g genericSet) String() string       { return "{s : " + g.desc + "}" }

// WitnessOutside searches for a member of in that belongs to none of the out
// sets — the value the sunflower property (Definition 5.16) promises. The
// search tries in's own candidates, every out set's boundary candidates, and
// a family of fresh unique strings.
func WitnessOutside(in Set, out []Set) (string, bool) {
	try := func(s string) bool {
		if !in.Contains(s) {
			return false
		}
		for _, o := range out {
			if o.Contains(s) {
				return false
			}
		}
		return true
	}
	var cands []string
	cands = append(cands, in.Candidates()...)
	for _, o := range out {
		cands = append(cands, o.Candidates()...)
	}
	// Perturbations: numeric neighbors and string paddings of every
	// candidate widen the pool beyond each set's own boundary.
	base := len(cands)
	for _, c := range cands[:base] {
		if f, ok := value.ParseNumber(c); ok {
			for _, d := range []float64{-1.5, -1, -0.25, 0.25, 1, 1.5, 3} {
				cands = append(cands, value.FormatNumber(f+d))
			}
		}
		cands = append(cands, c+"q", "q"+c)
	}
	for i := 0; i < 40; i++ {
		cands = append(cands, fmt.Sprintf("uqv%d", i), fmt.Sprintf("%d", 1000+37*i))
	}
	for _, c := range cands {
		if try(c) {
			return c, true
		}
	}
	return "", false
}

// NonPrefixWitness searches for a string that is not a prefix of any member
// of any of the given sets — the value the prefix sunflower property
// (Definition 5.17) promises for internal nodes. Candidates start with
// letter-initial unique strings (which no numeric set member extends) and
// fall back to variations derived from the sets' own candidates.
func NonPrefixWitness(sets []Set) (string, bool) {
	try := func(s string) bool {
		for _, o := range sets {
			if o.ExtendsToMember(s) {
				return false
			}
		}
		return true
	}
	var cands []string
	for i := 0; i < 40; i++ {
		cands = append(cands, fmt.Sprintf("hello%d", i), fmt.Sprintf("npw%dq", i))
	}
	for _, o := range sets {
		for _, c := range o.Candidates() {
			cands = append(cands, c+"~q", "~"+c)
		}
	}
	for _, c := range cands {
		if try(c) {
			return c, true
		}
	}
	return "", false
}
