package value

import (
	"fmt"
	"math"
	"strings"

	"streamxpath/internal/bytestr"
)

// CompOp is one of the six XPath comparison operators.
type CompOp string

// The comparison operators of the Fig. 1 grammar.
const (
	OpEq CompOp = "="
	OpNe CompOp = "!="
	OpLt CompOp = "<"
	OpLe CompOp = "<="
	OpGt CompOp = ">"
	OpGe CompOp = ">="
)

// Negate returns the complementary comparison operator (e.g. < becomes >=).
func (op CompOp) Negate() CompOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Flip returns the operator with swapped operands (e.g. a < b iff b > a).
func (op CompOp) Flip() CompOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Compare applies a comparison operator to two atomic values, following the
// XPath 1.0 type-promotion rules: if either operand is a boolean and the
// operator is = or !=, compare as booleans; otherwise if either operand is a
// number, or the operator is an ordering operator, compare as numbers;
// otherwise compare as strings. Comparisons involving NaN are false
// (including !=; see the package comment for this deviation).
func Compare(op CompOp, a, b Value) bool {
	switch op {
	case OpEq, OpNe:
		if a.IsBool() || b.IsBool() {
			eq := EBV(a) == EBV(b)
			if op == OpEq {
				return eq
			}
			return !eq
		}
		if a.IsNumber() || b.IsNumber() {
			x, y := ToNumber(a), ToNumber(b)
			if math.IsNaN(x) || math.IsNaN(y) {
				return false
			}
			if op == OpEq {
				return x == y
			}
			return x != y
		}
		eq := ToString(a) == ToString(b)
		if op == OpEq {
			return eq
		}
		return !eq
	default:
		x, y := ToNumber(a), ToNumber(b)
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		switch op {
		case OpLt:
			return x < y
		case OpLe:
			return x <= y
		case OpGt:
			return x > y
		case OpGe:
			return x >= y
		}
	}
	return false
}

// ArithOp is one of the XPath arithmetic operators of the Fig. 1 grammar.
type ArithOp string

// The arithmetic operators.
const (
	OpAdd  ArithOp = "+"
	OpSub  ArithOp = "-"
	OpMul  ArithOp = "*"
	OpDiv  ArithOp = "div"
	OpIDiv ArithOp = "idiv"
	OpMod  ArithOp = "mod"
)

// Arith applies an arithmetic operator to two atomic values after casting
// both to numbers. Division by zero follows IEEE semantics for div and
// yields NaN for idiv/mod.
func Arith(op ArithOp, a, b Value) Value {
	x, y := ToNumber(a), ToNumber(b)
	switch op {
	case OpAdd:
		return Number(x + y)
	case OpSub:
		return Number(x - y)
	case OpMul:
		return Number(x * y)
	case OpDiv:
		return Number(x / y)
	case OpIDiv:
		if y == 0 || math.IsNaN(x) || math.IsNaN(y) {
			return Number(math.NaN())
		}
		return Number(math.Trunc(x / y))
	case OpMod:
		if y == 0 || math.IsNaN(x) || math.IsNaN(y) {
			return Number(math.NaN())
		}
		return Number(math.Mod(x, y))
	}
	return Number(math.NaN())
}

// Neg returns the arithmetic negation of a.
func Neg(a Value) Value { return Number(-ToNumber(a)) }

// FuncSig describes a function from the basic XPath function library
// supported by this reproduction (the funcop production of Fig. 1, minus
// position() and last() which the grammar excludes, and minus regular
// expressions: the string predicates provided are those of the paper's
// examples — contains, starts-with, ends-with — which is all the
// experiments of `go run ./cmd/xpexperiments` use).
type FuncSig struct {
	Name string
	// Arity is the required argument count; -1 means variadic (min 1).
	Arity int
	// BoolOutput reports whether the function's output type is boolean.
	// Functions with boolean output but non-boolean arguments get the
	// existential evaluation rule of Definition 3.5 part 4.
	BoolOutput bool
}

// funcs is the registry of supported functions.
var funcs = map[string]FuncSig{
	"string-length":   {Name: "string-length", Arity: 1},
	"contains":        {Name: "contains", Arity: 2, BoolOutput: true},
	"starts-with":     {Name: "starts-with", Arity: 2, BoolOutput: true},
	"ends-with":       {Name: "ends-with", Arity: 2, BoolOutput: true},
	"concat":          {Name: "concat", Arity: -1},
	"substring":       {Name: "substring", Arity: 3},
	"normalize-space": {Name: "normalize-space", Arity: 1},
	"number":          {Name: "number", Arity: 1},
	"string":          {Name: "string", Arity: 1},
	"floor":           {Name: "floor", Arity: 1},
	"ceiling":         {Name: "ceiling", Arity: 1},
	"round":           {Name: "round", Arity: 1},
}

// LookupFunc returns the signature for the named function. The "fn:" prefix
// used by the paper's examples (e.g. fn:ends-with) is accepted and stripped.
func LookupFunc(name string) (FuncSig, bool) {
	sig, ok := funcs[strings.TrimPrefix(name, "fn:")]
	return sig, ok
}

// normalizeSpace is XPath's normalize-space: s with its leading and
// trailing XML white space removed and every other run of it replaced by
// one space.
func normalizeSpace(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		if !bytestr.IsSpace(s[i]) {
			out = append(out, s[i])
			i++
			continue
		}
		for i < len(s) && bytestr.IsSpace(s[i]) {
			i++
		}
		if len(out) > 0 && i < len(s) {
			out = append(out, ' ')
		}
	}
	return string(out)
}

// Call applies a basic XPath function to atomic arguments. It returns an
// error for unknown functions or arity mismatches; these are caught at query
// compile time, so evaluation-time errors indicate a compiler bug.
func Call(name string, args []Value) (Value, error) {
	sig, ok := LookupFunc(name)
	if !ok {
		return Value{}, fmt.Errorf("value: unknown function %q", name)
	}
	if sig.Arity >= 0 && len(args) != sig.Arity {
		return Value{}, fmt.Errorf("value: %s expects %d arguments, got %d", sig.Name, sig.Arity, len(args))
	}
	if sig.Arity == -1 && len(args) == 0 {
		return Value{}, fmt.Errorf("value: %s expects at least 1 argument", sig.Name)
	}
	switch sig.Name {
	case "string-length":
		return Number(float64(len([]rune(ToString(args[0]))))), nil
	case "contains":
		return Bool(strings.Contains(ToString(args[0]), ToString(args[1]))), nil
	case "starts-with":
		return Bool(strings.HasPrefix(ToString(args[0]), ToString(args[1]))), nil
	case "ends-with":
		return Bool(strings.HasSuffix(ToString(args[0]), ToString(args[1]))), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(ToString(a))
		}
		return String_(b.String()), nil
	case "substring":
		return String_(substring(ToString(args[0]), ToNumber(args[1]), ToNumber(args[2]))), nil
	case "normalize-space":
		return String_(normalizeSpace(ToString(args[0]))), nil
	case "number":
		return Number(ToNumber(args[0])), nil
	case "string":
		return String_(ToString(args[0])), nil
	case "floor":
		return Number(math.Floor(ToNumber(args[0]))), nil
	case "ceiling":
		return Number(math.Ceil(ToNumber(args[0]))), nil
	case "round":
		return Number(math.Round(ToNumber(args[0]))), nil
	}
	return Value{}, fmt.Errorf("value: unimplemented function %q", name)
}

// substring implements XPath 1.0 substring(s, start, length) with 1-based
// rounding semantics.
func substring(s string, start, length float64) string {
	runes := []rune(s)
	if math.IsNaN(start) || math.IsNaN(length) {
		return ""
	}
	from := int(math.Round(start))
	to := from + int(math.Round(length))
	from-- // 1-based to 0-based
	if from < 0 {
		from = 0
	}
	to--
	if to > len(runes) {
		to = len(runes)
	}
	if from >= to || from >= len(runes) {
		return ""
	}
	return string(runes[from:to])
}
