package value

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParseNumber is ParseNumber read without its integer path: XML white
// space trimmed, the XPath grammar checked, and the rest left to
// strconv.ParseFloat, whose ±Inf for a numeral past float64's range is the
// value (XPath 1.0 §4.4 rounds to the nearest IEEE 754 number).
func refParseNumber(s string) (float64, bool) {
	t := strings.Trim(s, " \t\r\n")
	if t == "" || !isNumberBody(strings.TrimPrefix(t, "-")) {
		return math.NaN(), false
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return math.NaN(), false
	}
	return f, true
}

// sameNumber reports whether ParseNumber's answer for s is want's, bit for
// bit: the sign of a zero counts, and a NaN equals a NaN.
func sameNumber(s string, want float64, wantOK bool) bool {
	got, ok := ParseNumber(s)
	if ok != wantOK {
		return false
	}
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestParseNumberIntegersMatchParseFloat: every string of one to four
// digits, with and without a '-' and inside XML white space, parses to
// strconv.ParseFloat's value bit for bit — "-0" and "-0000" to negative
// zero — and so do the integers at the edge of the direct path.
func TestParseNumberIntegersMatchParseFloat(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []string{s, " " + s, s + "\t", "\r\n" + s + "\n "} {
			if !sameNumber(in, want, true) {
				got, ok := ParseNumber(in)
				t.Fatalf("ParseNumber(%q) = %v, %v; want %v (bits %x, got %x)", in, got, ok, want, math.Float64bits(want), math.Float64bits(got))
			}
		}
	}
	for width, end := 1, 10; width <= 4; width, end = width+1, end*10 {
		for v := 0; v < end; v++ {
			s := strconv.Itoa(v)
			s = strings.Repeat("0", width-len(s)) + s
			check(s)
			check("-" + s)
		}
	}
	for _, s := range []string{"999999999999999", "-999999999999999", "100000000000000", "000000000000001",
		"9007199254740993", "99999999999999999999", "-0", "-000000000000000"} {
		check(s)
	}
}

// TestParseNumberEdges holds ParseNumber to the grammar-and-ParseFloat
// reading on the strings around its integer path: signs, points,
// exponents, lengths either side of 15 digits, and white space that is
// not XML's.
func TestParseNumberEdges(t *testing.T) {
	for _, s := range []string{
		"", " ", "-", "--1", "+1", "- 1", "1-", "1 2", "1.", ".5", "-.5", "-1.", "1.5.", "..5",
		"1e3", "1E3", "0x1F", "Inf", "NaN", "١٢", "5\x00", "0", "00", "-00",
		"123456789012345", "1234567890123456", "-1234567890123456", "12345678901234.5",
		"\u00a05", "5\u00a0", "\v5", "\f5", "5\u0085", " 5", "\t5\r", "\n-0\n",
	} {
		want, ok := refParseNumber(s)
		if !sameNumber(s, want, ok) {
			got, gotOK := ParseNumber(s)
			t.Errorf("ParseNumber(%q) = %v, %v; want %v, %v", s, got, gotOK, want, ok)
		}
	}
	// Only #x20, #x9, #xD and #xA are white space around a number.
	for _, s := range []string{"\u00a05", "\v5", "5\u0085", "\f5", "5\u3000"} {
		if _, ok := ParseNumber(s); ok {
			t.Errorf("ParseNumber(%q) took a non-XML space for white space", s)
		}
	}
}

// TestParseNumberOutOfRange: a numeral past float64's range is ±Infinity,
// not NaN, and one below its least subnormal is a zero of its sign.
func TestParseNumberOutOfRange(t *testing.T) {
	big := "1" + strings.Repeat("0", 400)
	tiny := "0." + strings.Repeat("0", 400) + "1"
	for _, c := range []struct {
		s    string
		want float64
	}{
		{big, math.Inf(1)}, {"-" + big, math.Inf(-1)}, {" " + big + ".5\n", math.Inf(1)},
		{tiny, 0}, {"-" + tiny, math.Copysign(0, -1)},
	} {
		if !sameNumber(c.s, c.want, true) {
			got, ok := ParseNumber(c.s)
			t.Errorf("ParseNumber(%.12q…) = %v (bits %x), %v; want %v (bits %x), true",
				c.s, got, math.Float64bits(got), ok, c.want, math.Float64bits(c.want))
		}
	}
}

// FuzzParseNumber holds ParseNumber to refParseNumber on any string.
//
// Run with: go test -fuzz FuzzParseNumber ./internal/value
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{"0", "-0", "42", " 7 ", "-999999999999999", "1234567890123456", "3.25", ".5", "1e3", "\u00a05", "\v5",
		"1" + strings.Repeat("0", 400), "-1" + strings.Repeat("0", 400), "0." + strings.Repeat("0", 400) + "1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, ok := refParseNumber(s)
		if !sameNumber(s, want, ok) {
			got, gotOK := ParseNumber(s)
			t.Fatalf("ParseNumber(%q) = %v (bits %x), %v; want %v (bits %x), %v",
				s, got, math.Float64bits(got), gotOK, want, math.Float64bits(want), ok)
		}
	})
}

// TestNormalizeSpaceIsXMLSpace: normalize-space strips and collapses XML
// white space only; other Unicode spaces are characters like any other.
func TestNormalizeSpaceIsXMLSpace(t *testing.T) {
	for in, want := range map[string]string{
		"  a  b ":               "a b",
		"\t\r\na\n\n b\r":       "a b",
		"":                      "",
		" \t ":                  "",
		"a\u00a0b":              "a\u00a0b",
		"\u00a0a b\u00a0":       "\u00a0a b\u00a0",
		"\va\v":                 "\va\v",
		"x\u0085 y":             "x\u0085 y",
		"\u2003lead and trail ": "\u2003lead and trail",
	} {
		got, err := Call("normalize-space", []Value{String_(in)})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Errorf("normalize-space(%q) = %q, want %q", in, got.String(), want)
		}
	}
}
