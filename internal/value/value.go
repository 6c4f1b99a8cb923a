// Package value implements the atomic value domain V of the paper's data
// model (Section 3.1.1) together with the conversion and operator semantics
// used by predicate evaluation (Definition 3.5).
//
// XPath values in this reproduction are untyped atomics of three kinds:
// numbers (IEEE float64), strings, and booleans. DATAVAL(x) in the paper is
// derived from STRVAL(x) using the document's XML schema; we have no schema,
// so values start life as strings and are cast on demand by the operator that
// consumes them, following the XPath 1.0 conversion rules. This matches how
// the paper's proofs use values: truth sets (Definition 5.6) are sets of
// *strings* that satisfy a predicate "after proper casting to the required
// type".
//
// Deviations from W3C XPath, documented here once:
//
//   - Numeric literals follow the XPath 1.0 Number production
//     (Digits ('.' Digits?)? | '.' Digits), optionally signed; scientific
//     notation is rejected. This keeps truth-set prefix queries (the prefix
//     sunflower property, Definition 5.17) decidable.
//   - A comparison whose operand fails the numeric cast (NaN) is false for
//     every operator including !=. The paper never relies on NaN != NaN.
package value

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"streamxpath/internal/bytestr"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The three atomic kinds of V.
const (
	KindNumber Kind = iota
	KindString
	KindBoolean
)

// String returns the XPath name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBoolean:
		return "boolean"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single atomic value from V.
// The zero Value is the number 0.
type Value struct {
	kind Kind
	num  float64
	str  string
	b    bool
}

// Number returns a numeric value.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// String_ returns a string value. (Named with a trailing underscore because
// String is reserved for fmt.Stringer.)
func String_(s string) Value { return Value{kind: KindString, str: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBoolean, b: b} }

// True and False are the two boolean values.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNumber reports whether v is a number.
func (v Value) IsNumber() bool { return v.kind == KindNumber }

// IsString reports whether v is a string.
func (v Value) IsString() bool { return v.kind == KindString }

// IsBool reports whether v is a boolean.
func (v Value) IsBool() bool { return v.kind == KindBoolean }

// Num returns the numeric payload (only meaningful when IsNumber).
func (v Value) Num() float64 { return v.num }

// Str returns the string payload (only meaningful when IsString).
func (v Value) Str() string { return v.str }

// B returns the boolean payload (only meaningful when IsBool).
func (v Value) B() bool { return v.b }

// String implements fmt.Stringer using the XPath string() cast.
func (v Value) String() string { return ToString(v) }

// Equal reports whether two values are identical (same kind and payload).
// This is Go-level identity, not XPath comparison; use Compare for the
// latter.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNumber:
		return v.num == w.num || (math.IsNaN(v.num) && math.IsNaN(w.num))
	case KindString:
		return v.str == w.str
	default:
		return v.b == w.b
	}
}

// ParseNumber parses s as an XPath 1.0 number: optional leading/trailing
// XML white space (bytestr.IsSpace), optional '-', then Digits ('.'
// Digits?)? | '.' Digits. It reports ok=false (value NaN) if s is not a
// number. A numeral beyond float64's range is ±Infinity, the nearest IEEE
// 754 value (XPath 1.0 §4.4), not NaN. An integer of at most 15 digits —
// exact in a float64, and what numeric predicates mostly compare — is read
// digit by digit; everything else goes to strconv.ParseFloat.
func ParseNumber(s string) (f float64, ok bool) {
	t := trimSpace(s)
	if t == "" {
		return math.NaN(), false
	}
	body := t
	if body[0] == '-' {
		body = body[1:]
	}
	if f, ok := parseInt(body); ok {
		if body != t {
			f = -f // "-0" is negative zero, as ParseFloat reads it
		}
		return f, true
	}
	if !isNumberBody(body) {
		return math.NaN(), false
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return math.NaN(), false
	}
	return f, true // out of range, f is ParseFloat's ±Inf
}

// parseInt reads s when it is 1 to 15 decimal digits, every such integer
// being exact in a float64.
func parseInt(s string) (float64, bool) {
	if len(s) == 0 || len(s) > 15 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int64(c)
	}
	return float64(n), true
}

// trimSpace returns s without its leading and trailing XML white space.
func trimSpace(s string) string {
	i, j := 0, len(s)
	for i < j && bytestr.IsSpace(s[i]) {
		i++
	}
	for j > i && bytestr.IsSpace(s[j-1]) {
		j--
	}
	return s[i:j]
}

// isNumberBody reports whether s matches Digits ('.' Digits?)? | '.' Digits.
func isNumberBody(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		digits++
	}
	if i == len(s) {
		return digits > 0
	}
	if s[i] != '.' {
		return false
	}
	i++
	frac := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		frac++
	}
	if i != len(s) {
		return false
	}
	return digits > 0 || frac > 0
}

// IsNumericPrefix reports whether p is a (possibly empty) proper prefix of
// some string accepted by ParseNumber. Used by the prefix sunflower
// machinery: a numeric truth set has a member extending p only if p is a
// numeric prefix.
func IsNumericPrefix(p string) bool {
	if p == "" {
		return true
	}
	body := p
	if body[0] == '-' {
		body = body[1:]
		if body == "" {
			return true // "-" extends to "-1"
		}
	}
	dot := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return true
}

// ToNumber casts v to a number per XPath 1.0 number(): numbers pass through,
// booleans map to 0/1, strings are parsed (NaN on failure).
func ToNumber(v Value) float64 {
	switch v.kind {
	case KindNumber:
		return v.num
	case KindBoolean:
		if v.b {
			return 1
		}
		return 0
	default:
		f, ok := ParseNumber(v.str)
		if !ok {
			return math.NaN()
		}
		return f
	}
}

// ToString casts v to a string per XPath 1.0 string().
func ToString(v Value) string {
	switch v.kind {
	case KindString:
		return v.str
	case KindBoolean:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return FormatNumber(v.num)
	}
}

// FormatNumber renders f per XPath 1.0 string(): integers without a decimal
// point, NaN as "NaN", infinities as "Infinity"/"-Infinity".
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// EBV is the Effective Boolean Value function for atomic values
// (Section 3.1.3). Booleans are themselves; numbers are true unless zero or
// NaN; strings are true unless empty.
func EBV(v Value) bool {
	switch v.kind {
	case KindBoolean:
		return v.b
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	default:
		return v.str != ""
	}
}

// Sequence is a sequence of atomic values, the non-atomic type of the
// paper's predicate evaluation (Definition 3.5).
type Sequence []Value

// EBVSeq is the Effective Boolean Value of a sequence: true iff non-empty.
// "When the operand of EBV is a sequence, it returns true if the sequence is
// not empty, giving most XPath expressions an existential semantics."
func EBVSeq(s Sequence) bool { return len(s) > 0 }

// Strings returns the sequence's members cast to strings.
func (s Sequence) Strings() []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = ToString(v)
	}
	return out
}

// Equal reports element-wise equality of two sequences.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if !s[i].Equal(t[i]) {
			return false
		}
	}
	return true
}
