package query

import (
	"fmt"
	"math"

	"streamxpath/internal/value"
)

// Result is the outcome of evaluating a predicate expression node: either an
// atomic value or a sequence, per Definition 3.5.
type Result struct {
	IsSeq  bool
	Atomic value.Value
	Seq    value.Sequence
}

// AtomicResult wraps an atomic value.
func AtomicResult(v value.Value) Result { return Result{Atomic: v} }

// SeqResult wraps a sequence.
func SeqResult(s value.Sequence) Result { return Result{IsSeq: true, Seq: s} }

// EBV is the Effective Boolean Value of the result: for sequences, true iff
// non-empty; for atomics, the atomic EBV.
func (r Result) EBV() bool {
	if r.IsSeq {
		return value.EBVSeq(r.Seq)
	}
	return value.EBV(r.Atomic)
}

// asSequence returns the result as a sequence P_i in the sense of
// Definition 3.5 parts 4-5: atomics become length-1 sequences.
func (r Result) asSequence() value.Sequence {
	if r.IsSeq {
		return r.Seq
	}
	return value.Sequence{r.Atomic}
}

// Binding supplies the value of a path leaf during predicate evaluation:
// given a predicate child v of the owning query node, it returns the
// sequence of data values of the nodes in SELECT(LEAF(v) | u = x)
// (Definition 3.5 part 2). The reference evaluator computes this with the
// full selection semantics; truth-set analysis substitutes a single
// candidate value.
type Binding func(child *Node) value.Sequence

// EvalExpr implements PEVAL (Definition 3.5) on an expression tree:
//
//  1. constants are atomic values;
//  2. path leaves evaluate to the bound sequence;
//  3. operators on boolean arguments (and/or/not) cast operands with EBV;
//  4. boolean-output operators with non-boolean arguments (comparisons,
//     string predicates) are existential over the operand sequences;
//  5. non-boolean operators (arithmetic, string functions) produce the
//     sequence of results over the cartesian product of operand sequences,
//     in lexicographical order.
//
// Rule 5 follows the paper's definition exactly, which deviates from the
// W3C specification: the result is a sequence even when all arguments are
// atomic, so e.g. the predicate [2 - 2] has EBV true (non-empty sequence)
// rather than false (zero). The paper's remark in Section 3.1.3 discusses
// this deviation.
func EvalExpr(e *Expr, bind Binding) Result {
	switch e.Kind {
	case ExprConst:
		return AtomicResult(e.Const)
	case ExprPath:
		return SeqResult(bind(e.Child))
	case ExprLogic:
		switch e.Op {
		case "not":
			return AtomicResult(value.Bool(!EvalExpr(e.Args[0], bind).EBV()))
		case "and":
			for _, a := range e.Args {
				if !EvalExpr(a, bind).EBV() {
					return AtomicResult(value.False)
				}
			}
			return AtomicResult(value.True)
		default: // or
			for _, a := range e.Args {
				if EvalExpr(a, bind).EBV() {
					return AtomicResult(value.True)
				}
			}
			return AtomicResult(value.False)
		}
	case ExprCompare:
		// Rule 4: existential over the operand sequences.
		left := EvalExpr(e.Args[0], bind).asSequence()
		right := EvalExpr(e.Args[1], bind).asSequence()
		op := value.CompOp(e.Op)
		for _, a := range left {
			for _, b := range right {
				if value.Compare(op, a, b) {
					return AtomicResult(value.True)
				}
			}
		}
		return AtomicResult(value.False)
	case ExprNeg:
		arg := EvalExpr(e.Args[0], bind).asSequence()
		out := make(value.Sequence, len(arg))
		for i, a := range arg {
			out[i] = value.Neg(a)
		}
		return SeqResult(out)
	case ExprArith:
		left := EvalExpr(e.Args[0], bind).asSequence()
		right := EvalExpr(e.Args[1], bind).asSequence()
		out := make(value.Sequence, 0, len(left)*len(right))
		for _, a := range left {
			for _, b := range right {
				out = append(out, value.Arith(value.ArithOp(e.Op), a, b))
			}
		}
		return SeqResult(out)
	case ExprFunc:
		sig, _ := value.LookupFunc(e.Op)
		args := make([]value.Sequence, len(e.Args))
		for i, a := range e.Args {
			args[i] = EvalExpr(a, bind).asSequence()
		}
		if sig.BoolOutput {
			// Rule 4, applied (per the paper's generalization) to
			// every boolean-output function.
			found := false
			forEachChoice(args, func(choice []value.Value) bool {
				v, err := value.Call(e.Op, choice)
				if err == nil && value.EBV(v) {
					found = true
					return false
				}
				return true
			})
			return AtomicResult(value.Bool(found))
		}
		// Rule 5: cartesian sequence.
		var out value.Sequence
		forEachChoice(args, func(choice []value.Value) bool {
			v, err := value.Call(e.Op, choice)
			if err == nil {
				out = append(out, v)
			}
			return true
		})
		return SeqResult(out)
	}
	return AtomicResult(value.False)
}

// forEachChoice enumerates the cartesian product of the argument sequences
// in lexicographical order, calling f with each combination until f returns
// false. Empty argument sequences yield no combinations.
func forEachChoice(args []value.Sequence, f func([]value.Value) bool) {
	for _, a := range args {
		if len(a) == 0 {
			return
		}
	}
	choice := make([]value.Value, len(args))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(args) {
			return f(choice)
		}
		for _, v := range args[i] {
			choice[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// ConstFold evaluates an expression containing no path leaves to a single
// atomic value. ok is false if the expression has variables or does not
// reduce to one value.
func ConstFold(e *Expr) (value.Value, bool) {
	if len(e.PathLeaves()) != 0 {
		return value.Value{}, false
	}
	r := EvalExpr(e, func(*Node) value.Sequence { return nil })
	if !r.IsSeq {
		return r.Atomic, true
	}
	if len(r.Seq) == 1 {
		return r.Seq[0], true
	}
	return value.Value{}, false
}

// linear is the normal form coef*x + off of a numeric expression in one
// path variable x.
type linear struct {
	coef, off float64
	leaf      *Expr
}

// linearize attempts to put e in linear normal form. It handles the
// arithmetic operators +, -, *, div with constant co-operands, unary minus,
// and the identity cast number(x).
func linearize(e *Expr) (linear, bool) {
	switch e.Kind {
	case ExprPath:
		return linear{coef: 1, off: 0, leaf: e}, true
	case ExprNeg:
		l, ok := linearize(e.Args[0])
		if !ok {
			return linear{}, false
		}
		l.coef, l.off = -l.coef, -l.off
		return l, true
	case ExprFunc:
		if e.Op == "number" || e.Op == "fn:number" {
			return linearize(e.Args[0])
		}
		return linear{}, false
	case ExprArith:
		lvar := len(e.Args[0].PathLeaves()) > 0
		rvar := len(e.Args[1].PathLeaves()) > 0
		if lvar == rvar {
			return linear{}, false // both-variable or both-constant
		}
		varSide, constSide := e.Args[0], e.Args[1]
		if rvar {
			varSide, constSide = e.Args[1], e.Args[0]
		}
		l, ok := linearize(varSide)
		if !ok {
			return linear{}, false
		}
		cv, ok := ConstFold(constSide)
		if !ok {
			return linear{}, false
		}
		c := value.ToNumber(cv)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			// Infinity times 0, or less Infinity, is NaN, which no
			// threshold on x stands for.
			return linear{}, false
		}
		switch value.ArithOp(e.Op) {
		case value.OpAdd:
			l.off += c
		case value.OpSub:
			if rvar { // c - (coef*x + off)
				l.coef, l.off = -l.coef, c-l.off
			} else { // (coef*x + off) - c
				l.off -= c
			}
		case value.OpMul:
			l.coef *= c
			l.off *= c
		case value.OpDiv:
			if rvar || c == 0 {
				return linear{}, false // c div x is nonlinear; div by 0
			}
			l.coef /= c
			l.off /= c
		default:
			return linear{}, false
		}
		return l, true
	}
	return linear{}, false
}

// AnalyzeAtomic computes the truth set TRUTH(P) of a univariate atomic
// predicate (Definition 5.6). It recognizes the exact shapes
//
//	path                                  -> S (existence test)
//	linear(path) op constant              -> numeric set
//	path = / != string-constant           -> string (in)equality set
//	contains/starts-with/ends-with(path, const) -> string predicate set
//	string-length(path) op constant       -> length set
//
// and falls back to a GenericSet (exact membership, heuristic witnesses)
// for anything else. It returns an error if P is not univariate.
func AnalyzeAtomic(p *Expr) (Set, error) {
	leaves := p.PathLeaves()
	if len(leaves) != 1 {
		return nil, fmt.Errorf("query: atomic predicate %s has %d variables, want 1", p, len(leaves))
	}
	if s, ok := recognize(p); ok {
		return s, nil
	}
	pool := collectConstants(p)
	eval := func(alpha string) bool {
		bind := func(*Node) value.Sequence {
			return value.Sequence{value.String_(alpha)}
		}
		return EvalExpr(p, bind).EBV()
	}
	return GenericSet(p.String(), eval, pool), nil
}

// recognize matches the exact truth-set shapes.
func recognize(p *Expr) (Set, bool) {
	switch p.Kind {
	case ExprPath:
		return All, true
	case ExprCompare:
		op := value.CompOp(p.Op)
		lvar := len(p.Args[0].PathLeaves()) > 0
		varSide, constSide := p.Args[0], p.Args[1]
		if !lvar {
			varSide, constSide = p.Args[1], p.Args[0]
			op = op.Flip()
		}
		cv, ok := ConstFold(constSide)
		if !ok {
			return nil, false
		}
		// string-length(path) op c
		if varSide.Kind == ExprFunc && (varSide.Op == "string-length" || varSide.Op == "fn:string-length") &&
			len(varSide.Args) == 1 && varSide.Args[0].Kind == ExprPath {
			n := value.ToNumber(cv)
			if math.IsNaN(n) {
				return EmptySet, true
			}
			return LenSet(op, n), true
		}
		// bare path = / != string constant: textual comparison
		if varSide.Kind == ExprPath && cv.IsString() {
			if _, numeric := value.ParseNumber(cv.Str()); !numeric {
				switch op {
				case value.OpEq:
					return StrEqSet(cv.Str()), true
				case value.OpNe:
					return StrNeSet(cv.Str()), true
				default:
					return EmptySet, true // ordering vs non-numeric is unsatisfiable
				}
			}
		}
		// linear(path) op numeric constant
		l, ok := linearize(varSide)
		if !ok {
			return nil, false
		}
		c := value.ToNumber(cv)
		if math.IsNaN(c) {
			return EmptySet, true
		}
		thr := (c - l.off) / l.coef
		if l.coef == 0 || !finite(l.coef) || !finite(l.off) || !finite(thr) {
			// A threshold on x stands for the comparison only where
			// coef*x + off is a number for every numeric x: not with a
			// zero coef (0 times an infinite x is NaN), an infinite coef
			// or off (times 0, or less Infinity, is NaN), or an infinite
			// threshold. The exact evaluation (GenericSet) decides those.
			return nil, false
		}
		if l.coef < 0 {
			op = op.Flip()
		}
		return NumSet(op, thr), true
	case ExprFunc:
		var kind StrFuncKind
		switch p.Op {
		case "contains", "fn:contains":
			kind = StrContains
		case "starts-with", "fn:starts-with":
			kind = StrPrefix
		case "ends-with", "fn:ends-with":
			kind = StrSuffix
		default:
			return nil, false
		}
		if len(p.Args) != 2 || p.Args[0].Kind != ExprPath {
			return nil, false
		}
		cv, ok := ConstFold(p.Args[1])
		if !ok {
			return nil, false
		}
		return StrFuncSet(kind, value.ToString(cv)), true
	}
	return nil, false
}

// finite reports whether f is neither NaN nor ±Infinity.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// collectConstants gathers string renderings of every constant in the
// expression, with numeric neighbors, as a candidate pool for GenericSet.
func collectConstants(p *Expr) []string {
	var out []string
	p.Walk(func(e *Expr) bool {
		if e.Kind == ExprConst {
			s := value.ToString(e.Const)
			out = append(out, s)
			if f, ok := value.ParseNumber(s); ok {
				for _, d := range []float64{-2, -1, 1, 2} {
					out = append(out, value.FormatNumber(f+d))
				}
			} else {
				out = append(out, s+"x", "x"+s)
			}
		}
		return true
	})
	return out
}

// TruthSetOf computes TRUTH(u) per Definition 5.6: S for non-succession
// leaves and for successions rooted at the query root; otherwise the truth
// set of the atomic predicate in which u's succession root occurs as the
// variable. It returns an error for nodes governed by non-univariate
// predicates.
func TruthSetOf(u *Node) (Set, error) {
	if u.Successor != nil {
		return All, nil // not a succession leaf
	}
	v := u.SuccessionRoot()
	if v.Parent == nil {
		return All, nil // v is the query root
	}
	p := AtomicPredicateOf(v)
	if p == nil {
		return nil, fmt.Errorf("query: predicate child %s is not pointed to by any atomic predicate", v.NTest)
	}
	return AnalyzeAtomic(p)
}

// ValueRestricted reports whether u is value-restricted (Definition 5.7):
// TRUTH(u) is a proper subset of S.
func ValueRestricted(u *Node) (bool, error) {
	s, err := TruthSetOf(u)
	if err != nil {
		return false, err
	}
	return !s.IsAll(), nil
}
