// Package query implements the Forward XPath query model of Section 3.1.2:
// query trees whose nodes carry an AXIS, a NTEST, a SUCCESSOR and a
// PREDICATE expression tree, together with a lexer and recursive-descent
// parser for the Fig. 1 grammar and the truth-set machinery of
// Definition 5.6.
//
// A query is a rooted tree. The root carries no axis and no node test (it is
// rendered as "$" in the paper's figures). Every other node has an axis
// (child, descendant, or attribute — the latter handled as a special case of
// child per the paper's remark), a node test (a name or the wildcard *), at
// most one successor child, and an optional predicate. All non-successor
// children are pointed to by leaves of the predicate; they are the node's
// predicate children, and are the roots of successions of their own.
package query

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"streamxpath/internal/value"
)

// Axis is the XPath axis of a query node (Section 3.1.2).
type Axis uint8

// The axes. AxisRoot marks the query root, which has no axis.
const (
	AxisRoot Axis = iota
	AxisChild
	AxisDescendant
	AxisAttribute
)

// String returns the grammar's surface syntax for the axis.
func (a Axis) String() string {
	switch a {
	case AxisRoot:
		return "$"
	case AxisChild:
		return "/"
	case AxisDescendant:
		return "//"
	case AxisAttribute:
		return "@"
	default:
		return fmt.Sprintf("Axis(%d)", uint8(a))
	}
}

// Wildcard is the wildcard node test.
const Wildcard = "*"

// Node is a query node. Children holds the predicate children (in order of
// appearance in the predicate) followed by the successor, if any.
type Node struct {
	Axis      Axis
	NTest     string // name or Wildcard; empty for the root
	Parent    *Node
	Children  []*Node
	Successor *Node // nil or the last element of Children
	Pred      *Expr // nil or the root of the predicate expression tree
}

// IsRoot reports whether n is the query root.
func (n *Node) IsRoot() bool { return n.Axis == AxisRoot }

// IsWildcard reports whether n's node test is the wildcard.
func (n *Node) IsWildcard() bool { return n.NTest == Wildcard }

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// PredicateChildren returns the children of n that are not the successor.
func (n *Node) PredicateChildren() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c != n.Successor {
			out = append(out, c)
		}
	}
	return out
}

// IsSuccessionRoot reports whether n is a succession root: the query root or
// a predicate child of its parent (Section 3.1.2).
func (n *Node) IsSuccessionRoot() bool {
	return n.Parent == nil || n.Parent.Successor != n
}

// SuccessionRoot returns the succession root of n, reached by walking up
// while the current node is its parent's successor.
func (n *Node) SuccessionRoot() *Node {
	for !n.IsSuccessionRoot() {
		n = n.Parent
	}
	return n
}

// Leaf returns LEAF(n): the successor-less node reached by repeatedly
// following successors from n.
func (n *Node) Leaf() *Node {
	for n.Successor != nil {
		n = n.Successor
	}
	return n
}

// Path returns PATH(n): the nodes from the query root to n inclusive.
func (n *Node) Path() []*Node {
	var rev []*Node
	for p := n; p != nil; p = p.Parent {
		rev = append(rev, p)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Depth returns DEPTH(n) = |PATH(n)|, the number of nodes from the root to n
// inclusive (the root has depth 1), as used by Proposition 6.10.
func (n *Node) Depth() int {
	d := 0
	for p := n; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Walk visits n and its descendants in depth-first order, stopping early if
// f returns false.
func (n *Node) Walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(f) {
			return false
		}
	}
	return true
}

// Nodes returns n and all of its descendants in depth-first order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Size returns the number of query nodes in the subtree rooted at n.
func (n *Node) Size() int {
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// Query is a parsed Forward XPath query.
type Query struct {
	Root   *Node
	Source string // original query text, if parsed
}

// Out returns OUT(Q), the query output node: the succession leaf of the
// root.
func (q *Query) Out() *Node { return q.Root.Leaf() }

// Nodes returns all query nodes in depth-first order.
func (q *Query) Nodes() []*Node { return q.Root.Nodes() }

// Size returns |Q|, the number of query nodes.
func (q *Query) Size() int { return q.Root.Size() }

// String renders the query back to Forward XPath surface syntax.
func (q *Query) String() string {
	var b bytes.Buffer
	writeSuccession(&b, q.Root.Successor, false)
	return b.String()
}

// writeSuccession renders the successor chain starting at n. rel indicates
// relative-path context (first step of a RelPath omits the leading child
// slash).
func writeSuccession(b *bytes.Buffer, n *Node, rel bool) {
	first := true
	for ; n != nil; n = n.Successor {
		switch n.Axis {
		case AxisChild:
			if !rel || !first {
				b.WriteByte('/')
			}
		case AxisDescendant:
			if rel && first {
				b.WriteString(".//")
			} else {
				b.WriteString("//")
			}
		case AxisAttribute:
			if !first {
				b.WriteByte('/')
			}
			b.WriteByte('@')
		}
		b.WriteString(n.NTest)
		if n.Pred != nil {
			b.WriteByte('[')
			n.Pred.write(b)
			b.WriteByte(']')
		}
		first = false
	}
}

// ExprKind identifies the kind of a predicate expression node.
type ExprKind uint8

// The expression kinds of the predicate trees (Section 3.1.2): constants,
// pointers to predicate children (RelPath leaves), logical operators,
// comparisons, arithmetic, unary negation, and function calls.
const (
	ExprConst ExprKind = iota
	ExprPath
	ExprLogic
	ExprCompare
	ExprArith
	ExprNeg
	ExprFunc
)

// Expr is a node of a predicate expression tree. Exactly one of the payload
// fields is meaningful per kind: Const for ExprConst, Child for ExprPath
// (a pointer to a predicate child of the owning query node), Op+Args
// otherwise.
type Expr struct {
	Kind  ExprKind
	Op    string // "and"/"or"/"not", a CompOp, an ArithOp, or a function name
	Const value.Value
	Child *Node
	Args  []*Expr
}

// Walk visits e and its subexpressions in prefix order.
func (e *Expr) Walk(f func(*Expr) bool) bool {
	if !f(e) {
		return false
	}
	for _, a := range e.Args {
		if !a.Walk(f) {
			return false
		}
	}
	return true
}

// PathLeaves returns the ExprPath leaves of e in order of appearance.
func (e *Expr) PathLeaves() []*Expr {
	var out []*Expr
	e.Walk(func(x *Expr) bool {
		if x.Kind == ExprPath {
			out = append(out, x)
		}
		return true
	})
	return out
}

// IsLogic reports whether e is labeled by a function or operator on boolean
// arguments (and, or, not) — the operators that delimit atomic predicates
// (Definition 5.3).
func (e *Expr) IsLogic() bool { return e.Kind == ExprLogic }

// BoolOutput reports whether e's output type is boolean: logical operators,
// comparisons, and functions declared with boolean output.
func (e *Expr) BoolOutput() bool {
	switch e.Kind {
	case ExprLogic, ExprCompare:
		return true
	case ExprFunc:
		sig, ok := value.LookupFunc(e.Op)
		return ok && sig.BoolOutput
	}
	return false
}

// writeLiteral renders a string constant as the lexer reads one: verbatim
// between the quotes it does not contain — the syntax has no escapes. A
// string holding both kinds, which no parsed query has, is written Go-quoted:
// not surface syntax, but still one rendering per constant, as StepKey needs.
func writeLiteral(b *bytes.Buffer, s string) {
	q := byte('"')
	switch {
	case !strings.Contains(s, `"`):
	case !strings.Contains(s, `'`):
		q = '\''
	default:
		b.Write(strconv.AppendQuote(b.AvailableBuffer(), s))
		return
	}
	b.WriteByte(q)
	b.WriteString(s)
	b.WriteByte(q)
}

// String renders the expression in surface syntax.
func (e *Expr) String() string {
	var b bytes.Buffer
	e.write(&b)
	return b.String()
}

// The binding strength of an expression, as the parser's descent orders it:
// what a production may hold without parentheses is anything that binds at
// least as tightly as its operands are parsed.
const (
	precOr = iota + 1
	precAnd
	precCompare // comparisons and not(...)
	precAdditive
	precMultiplicative
	precUnary
	precPrimary
)

func (e *Expr) prec() int {
	switch e.Kind {
	case ExprLogic:
		switch e.Op {
		case "or":
			return precOr
		case "and":
			return precAnd
		}
		return precCompare
	case ExprCompare:
		return precCompare
	case ExprArith:
		if e.Op == "+" || e.Op == "-" {
			return precAdditive
		}
		return precMultiplicative
	case ExprNeg:
		return precUnary
	}
	return precPrimary
}

// infLiteral is how +Infinity renders: the least power of ten past
// float64's range, which the parser reads back as +Infinity.
var infLiteral = "1" + strings.Repeat("0", 309)

// writeAt renders e where the grammar expects an operand binding at least
// as tightly as min, parenthesized if it binds more loosely.
func (e *Expr) writeAt(b *bytes.Buffer, min int) {
	if e.prec() >= min {
		e.write(b)
		return
	}
	b.WriteByte('(')
	e.write(b)
	b.WriteByte(')')
}

// write renders e so that parsing the text gives e back: two expressions
// render alike only if they are the same tree, which is what lets StepKey
// stand for a step's predicate and the engine keep a query as its text.
func (e *Expr) write(b *bytes.Buffer) {
	switch e.Kind {
	case ExprConst:
		switch f := e.Const.Num(); {
		case e.Const.IsString():
			writeLiteral(b, e.Const.Str())
		case e.Const.IsNumber() && !math.IsNaN(f) && !math.IsInf(f, 0):
			// Digits only: the lexer reads no exponent.
			b.Write(strconv.AppendFloat(b.AvailableBuffer(), f, 'f', -1, 64))
		case e.Const.IsNumber() && math.IsInf(f, 1):
			// A literal past float64's range: one that parses back to it.
			b.WriteString(infLiteral)
		default:
			b.WriteString(e.Const.String())
		}
	case ExprPath:
		writeSuccession(b, e.Child, true)
	case ExprLogic:
		if e.Op == "not" {
			b.WriteString("not(")
			e.Args[0].write(b)
			b.WriteByte(')')
			return
		}
		// The parser flattens a chain of one operator into one node, so an
		// operand with the same operator was parenthesized in the source.
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(' ')
				b.WriteString(e.Op)
				b.WriteByte(' ')
			}
			a.writeAt(b, e.prec()+1)
		}
	case ExprCompare, ExprArith:
		// A comparison takes an additive operand on either side and does not
		// chain; arithmetic is left-associative, so its right operand must
		// bind tighter than the operator itself.
		left, right := precAdditive, precAdditive
		if e.Kind == ExprArith {
			left, right = e.prec(), e.prec()+1
		}
		e.Args[0].writeAt(b, left)
		b.WriteByte(' ')
		b.WriteString(e.Op)
		b.WriteByte(' ')
		e.Args[1].writeAt(b, right)
	case ExprNeg:
		b.WriteByte('-')
		e.Args[0].writeAt(b, precUnary)
	case ExprFunc:
		b.WriteString(e.Op)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			a.writeAt(b, precAdditive)
		}
		b.WriteByte(')')
	}
}

// AtomicPredicates returns the roots of the constituent atomic predicates of
// e (Definition 5.3): the maximal subexpressions containing no operator on
// boolean arguments. For a conjunctive predicate these are exactly the
// conjuncts.
func (e *Expr) AtomicPredicates() []*Expr {
	var out []*Expr
	var walk func(x *Expr)
	walk = func(x *Expr) {
		if x.IsLogic() {
			for _, a := range x.Args {
				walk(a)
			}
			return
		}
		out = append(out, x)
	}
	walk(e)
	return out
}

// AtomicPredicateOf returns the atomic predicate of the owner's predicate
// whose path leaf points to the child v, or nil if v is not pointed to
// (i.e. v is the successor).
func AtomicPredicateOf(v *Node) *Expr {
	owner := v.Parent
	if owner == nil || owner.Pred == nil {
		return nil
	}
	for _, p := range owner.Pred.AtomicPredicates() {
		for _, leaf := range p.PathLeaves() {
			if leaf.Child == v {
				return p
			}
		}
	}
	return nil
}
