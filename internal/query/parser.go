package query

import (
	"fmt"

	"streamxpath/internal/value"
)

// Parse parses a Forward XPath query per the Fig. 1 grammar. Absolute paths
// begin with /, //, or @; relative paths inside predicates begin with .//,
// @, or (as in all of the paper's examples, though elided from the printed
// grammar) a bare node test meaning the child axis.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	root := &Node{Axis: AxisRoot}
	if err := p.parsePath(root, false); err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %s after query", p.peek().kind)
	}
	return &Query{Root: root, Source: src}, nil
}

// MustParse is Parse that panics on error; for tests and fixed examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes and returns the current token; it never advances past EOF.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) at(i int) token {
	if p.pos+i >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+i]
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// parsePath parses Path (rel=false) or RelPath (rel=true), appending the
// step chain under parent via successor links.
func (p *parser) parsePath(parent *Node, rel bool) error {
	first := true
	cur := parent
	for {
		var axis Axis
		t := p.peek()
		switch {
		case first && rel:
			// RelStep: .// | @ | bare node test (child axis)
			switch t.kind {
			case tokDotSlash:
				axis = AxisDescendant
				p.next()
			case tokAt:
				axis = AxisAttribute
				p.next()
			case tokName, tokStar:
				axis = AxisChild
			default:
				return p.errf("expected relative path step, got %s", t.kind)
			}
		case first && !rel:
			switch t.kind {
			case tokSlash:
				axis = AxisChild
				p.next()
			case tokDSlash:
				axis = AxisDescendant
				p.next()
			case tokAt:
				axis = AxisAttribute
				p.next()
			default:
				return p.errf("query must begin with /, // or @, got %s", t.kind)
			}
		default:
			// Continuation steps.
			switch t.kind {
			case tokSlash:
				p.next()
				if p.peek().kind == tokAt {
					p.next()
					axis = AxisAttribute
				} else {
					axis = AxisChild
				}
			case tokDSlash:
				axis = AxisDescendant
				p.next()
			case tokAt:
				axis = AxisAttribute
				p.next()
			default:
				return nil // end of path
			}
		}
		node, err := p.parseStepBody(axis)
		if err != nil {
			return err
		}
		node.Parent = cur
		cur.Children = append(cur.Children, node)
		cur.Successor = node
		cur = node
		first = false
	}
}

// parseStepBody parses NodeTest ('[' Predicate ']')? and returns the new
// query node (not yet attached).
func (p *parser) parseStepBody(axis Axis) (*Node, error) {
	t := p.next()
	var ntest string
	switch t.kind {
	case tokName:
		ntest = t.text
	case tokStar:
		ntest = Wildcard
	default:
		return nil, p.errf("expected node test, got %s", t.kind)
	}
	node := &Node{Axis: axis, NTest: ntest}
	// The Fig. 1 grammar allows one predicate per step; consecutive
	// predicates [p][q] are accepted as an extension and conjoined
	// (without positional predicates they are equivalent to [p and q]).
	for p.peek().kind == tokLBracket {
		p.next()
		pred, err := p.parsePredicate(node)
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRBracket {
			return nil, p.errf("expected ] to close predicate, got %s", p.peek().kind)
		}
		p.next()
		if node.Pred == nil {
			node.Pred = pred
		} else if node.Pred.Kind == ExprLogic && node.Pred.Op == "and" {
			node.Pred.Args = append(node.Pred.Args, pred)
		} else {
			node.Pred = &Expr{Kind: ExprLogic, Op: "and", Args: []*Expr{node.Pred, pred}}
		}
	}
	return node, nil
}

// parsePredicate parses the Predicate production with the usual precedence:
// or < and < not/comparison. owner is the query node whose predicate this
// is; RelPath leaves become predicate children of owner.
func (p *parser) parsePredicate(owner *Node) (*Expr, error) {
	return p.parseOr(owner)
}

func (p *parser) parseOr(owner *Node) (*Expr, error) {
	left, err := p.parseAnd(owner)
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokName && p.peek().text == "or" {
		p.next()
		right, err := p.parseAnd(owner)
		if err != nil {
			return nil, err
		}
		if left.Kind == ExprLogic && left.Op == "or" {
			left.Args = append(left.Args, right)
		} else {
			left = &Expr{Kind: ExprLogic, Op: "or", Args: []*Expr{left, right}}
		}
	}
	return left, nil
}

func (p *parser) parseAnd(owner *Node) (*Expr, error) {
	left, err := p.parseNot(owner)
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokName && p.peek().text == "and" {
		p.next()
		right, err := p.parseNot(owner)
		if err != nil {
			return nil, err
		}
		if left.Kind == ExprLogic && left.Op == "and" {
			left.Args = append(left.Args, right)
		} else {
			left = &Expr{Kind: ExprLogic, Op: "and", Args: []*Expr{left, right}}
		}
	}
	return left, nil
}

func (p *parser) parseNot(owner *Node) (*Expr, error) {
	if p.peek().kind == tokName && p.peek().text == "not" && p.at(1).kind == tokLParen {
		p.next()
		p.next()
		inner, err := p.parsePredicate(owner)
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ) to close not(), got %s", p.peek().kind)
		}
		p.next()
		return &Expr{Kind: ExprLogic, Op: "not", Args: []*Expr{inner}}, nil
	}
	return p.parseComparison(owner)
}

func (p *parser) parseComparison(owner *Node) (*Expr, error) {
	left, err := p.parseAdditive(owner)
	if err != nil {
		return nil, err
	}
	var op string
	switch p.peek().kind {
	case tokEq:
		op = "="
	case tokNe:
		op = "!="
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	default:
		return left, nil
	}
	p.next()
	right, err := p.parseAdditive(owner)
	if err != nil {
		return nil, err
	}
	return &Expr{Kind: ExprCompare, Op: op, Args: []*Expr{left, right}}, nil
}

func (p *parser) parseAdditive(owner *Node) (*Expr, error) {
	left, err := p.parseMultiplicative(owner)
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative(owner)
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprArith, Op: op, Args: []*Expr{left, right}}
	}
}

func (p *parser) parseMultiplicative(owner *Node) (*Expr, error) {
	left, err := p.parseUnary(owner)
	if err != nil {
		return nil, err
	}
	for {
		var op string
		t := p.peek()
		switch {
		case t.kind == tokStar:
			op = "*"
		case t.kind == tokName && (t.text == "div" || t.text == "idiv" || t.text == "mod"):
			op = t.text
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprArith, Op: op, Args: []*Expr{left, right}}
	}
}

func (p *parser) parseUnary(owner *Node) (*Expr, error) {
	if p.peek().kind == tokMinus {
		p.next()
		inner, err := p.parseUnary(owner)
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprNeg, Args: []*Expr{inner}}, nil
	}
	return p.parsePrimary(owner)
}

// parsePrimary parses const | RelPath | funcop '(' args ')' and (as a
// usability extension) a parenthesized expression.
func (p *parser) parsePrimary(owner *Node) (*Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		// A literal past float64's range is ±Infinity, as in a document.
		f, ok := value.ParseNumber(t.text)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Expr{Kind: ExprConst, Const: value.Number(f)}, nil
	case tokString:
		p.next()
		return &Expr{Kind: ExprConst, Const: value.String_(t.text)}, nil
	case tokLParen:
		p.next()
		inner, err := p.parsePredicate(owner)
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			return nil, p.errf("expected ), got %s", p.peek().kind)
		}
		p.next()
		return inner, nil
	case tokName:
		// Function call or bare-name RelPath.
		if p.at(1).kind == tokLParen {
			if _, ok := value.LookupFunc(t.text); !ok {
				return nil, p.errf("unknown function %q", t.text)
			}
			return p.parseCall(owner)
		}
		return p.parseRelPath(owner)
	case tokDotSlash, tokAt, tokStar:
		return p.parseRelPath(owner)
	default:
		return nil, p.errf("expected expression, got %s", t.kind)
	}
}

// parseCall parses funcop '(' Expression? (',' Expression)* ')'.
func (p *parser) parseCall(owner *Node) (*Expr, error) {
	name := p.next().text
	p.next() // (
	e := &Expr{Kind: ExprFunc, Op: name}
	if p.peek().kind != tokRParen {
		for {
			arg, err := p.parseAdditive(owner)
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, arg)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if p.peek().kind != tokRParen {
		return nil, p.errf("expected ) to close %s(), got %s", name, p.peek().kind)
	}
	p.next()
	sig, _ := value.LookupFunc(name)
	if sig.Arity >= 0 && len(e.Args) != sig.Arity {
		return nil, p.errf("%s expects %d arguments, got %d", name, sig.Arity, len(e.Args))
	}
	if sig.Arity == -1 && len(e.Args) == 0 {
		return nil, p.errf("%s expects at least one argument", name)
	}
	return e, nil
}

// parseRelPath parses a RelPath, attaches its step chain as a predicate
// child of owner, and returns the ExprPath leaf pointing to the chain's
// first node.
func (p *parser) parseRelPath(owner *Node) (*Expr, error) {
	if err := p.parsePath(owner, true); err != nil {
		return nil, err
	}
	// parsePath appended the chain root as owner's last child and set it
	// as owner's successor; undo the successor assignment (RelPath roots
	// are predicate children, not successors).
	child := owner.Children[len(owner.Children)-1]
	owner.Successor = nil
	return &Expr{Kind: ExprPath, Child: child}, nil
}
