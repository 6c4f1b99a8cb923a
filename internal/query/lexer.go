package query

import (
	"fmt"
	"strings"
)

// tokKind identifies a lexical token of the Fig. 1 grammar.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokName
	tokNumber
	tokString
	tokSlash    // /
	tokDSlash   // //
	tokAt       // @
	tokDotSlash // .// (the RelAxis)
	tokLBracket // [
	tokRBracket // ]
	tokLParen   // (
	tokRParen   // )
	tokComma    // ,
	tokStar     // *
	tokPlus     // +
	tokMinus    // -
	tokEq       // =
	tokNe       // !=
	tokLt       // <
	tokLe       // <=
	tokGt       // >
	tokGe       // >=
)

func (k tokKind) String() string {
	names := map[tokKind]string{
		tokEOF: "end of query", tokName: "name", tokNumber: "number",
		tokString: "string", tokSlash: "/", tokDSlash: "//", tokAt: "@",
		tokDotSlash: ".//", tokLBracket: "[", tokRBracket: "]",
		tokLParen: "(", tokRParen: ")", tokComma: ",", tokStar: "*",
		tokPlus: "+", tokMinus: "-", tokEq: "=", tokNe: "!=",
		tokLt: "<", tokLe: "<=", tokGt: ">", tokGe: ">=",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", uint8(k))
}

// token is a lexical token with its source position (byte offset).
type token struct {
	kind tokKind
	text string // payload for names, numbers, strings
	pos  int
}

// SyntaxError reports a lexical or grammatical error in a query string.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("query: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// isNameStart reports whether c can begin an XML name.
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

// isNameByte reports whether c can continue an XML name. The ':' allows the
// fn: function prefix and QNames; '-' allows names like starts-with (which
// means binary minus requires surrounding whitespace, as in standard XPath
// practice).
func isNameByte(c byte) bool {
	return isNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':' || c == '.'
}

// lex tokenizes a query string.
func lex(src string) ([]token, error) {
	// A token takes two bytes of source or more, but for a run of
	// one-character operators: one allocation covers most queries.
	toks := make([]token, 0, len(src)/2+1)
	i := 0
	emit := func(k tokKind, text string, pos int) {
		toks = append(toks, token{kind: k, text: text, pos: pos})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/':
			if i+1 < len(src) && src[i+1] == '/' {
				emit(tokDSlash, "//", i)
				i += 2
			} else {
				emit(tokSlash, "/", i)
				i++
			}
		case c == '.':
			switch {
			case strings.HasPrefix(src[i:], ".//"):
				emit(tokDotSlash, ".//", i)
				i += 3
			case i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
				start := i
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
				emit(tokNumber, src[start:i], start)
			default:
				return nil, &SyntaxError{Pos: i, Msg: "unexpected '.' (only the .// axis and decimal literals are supported)"}
			}
		case c == '@':
			emit(tokAt, "@", i)
			i++
		case c == '[':
			emit(tokLBracket, "[", i)
			i++
		case c == ']':
			emit(tokRBracket, "]", i)
			i++
		case c == '(':
			emit(tokLParen, "(", i)
			i++
		case c == ')':
			emit(tokRParen, ")", i)
			i++
		case c == ',':
			emit(tokComma, ",", i)
			i++
		case c == '*':
			emit(tokStar, "*", i)
			i++
		case c == '+':
			emit(tokPlus, "+", i)
			i++
		case c == '-':
			emit(tokMinus, "-", i)
			i++
		case c == '=':
			emit(tokEq, "=", i)
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(tokNe, "!=", i)
				i += 2
			} else {
				return nil, &SyntaxError{Pos: i, Msg: "expected != after !"}
			}
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(tokLe, "<=", i)
				i += 2
			} else {
				emit(tokLt, "<", i)
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(tokGe, ">=", i)
				i += 2
			} else {
				emit(tokGt, ">", i)
				i++
			}
		case c == '"' || c == '\'':
			quote := c
			start := i
			i++
			j := strings.IndexByte(src[i:], quote)
			if j < 0 {
				return nil, &SyntaxError{Pos: start, Msg: "unterminated string literal"}
			}
			emit(tokString, src[i:i+j], start)
			i += j + 1
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			if i < len(src) && src[i] == '.' && !strings.HasPrefix(src[i:], ".//") {
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			emit(tokNumber, src[start:i], start)
		case isNameStart(c):
			start := i
			for i < len(src) && isNameByte(src[i]) {
				// A '.' that begins a .// axis terminates the name.
				if src[i] == '.' && strings.HasPrefix(src[i:], ".//") {
					break
				}
				i++
			}
			emit(tokName, src[start:i], start)
		default:
			return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}
