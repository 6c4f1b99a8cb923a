package sax

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"streamxpath/internal/bytestr"
)

// errEOF is the sentinel returned by Readers after the final event.
var errEOF = io.EOF

// SyntaxError reports malformed XML input together with the byte offset at
// which it was detected.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sax: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// Tokenizer is the reference tokenizer: it converts raw XML bytes into the
// five-event stream of Section 3.1.4 over strings. It is a strict one-pass
// scanner: it never buffers more than the current token, which is what makes
// it a legitimate substrate for the streaming algorithms (the memory
// accounting of the filter would be meaningless if the parser itself
// buffered the document).
//
// Nothing that ships matches documents with it — every public matcher and
// the daemon tokenize with TokenizerBytes or StreamTokenizer. It is the
// independent side of the oracles: internal/tree (hence internal/semantics)
// parses with it, FuzzTokenizerBytes holds the byte tokenizer to it, and
// internal/core, the paper's Section 8 reference filter, runs on its
// events. A test at the repository root pins that no other non-test code
// constructs one.
//
// Supported syntax: element tags with attributes, self-closing tags,
// character data with the five predefined entities plus decimal/hex
// character references, comments, processing instructions, an optional XML
// declaration, CDATA sections, and a DOCTYPE declaration without an internal
// subset. Namespaces are not interpreted; a name is any non-space run
// excluding XML markup characters, matching the paper's opaque name set N.
type Tokenizer struct {
	r       *bufio.Reader
	offset  int
	started bool
	ended   bool
	depth   int
	// stack of open element names for well-formedness checking
	stack []string
	// pending holds events synthesized ahead of time (endDocument after the
	// root closes, or a queued event following coalesced text).
	pending []Event
	// rootSeen reports whether a root element has been fully parsed, which
	// makes any further element at depth 0 a second-root error.
	rootSeen bool
	// scratch holds a reference name while it is read; refOut is the
	// reusable buffer its decoded form lands in before being appended to
	// the surrounding text.
	scratch []byte
	refOut  []byte
}

// NewTokenizer returns a Tokenizer reading from r.
func NewTokenizer(r io.Reader) *Tokenizer {
	return &Tokenizer{r: bufio.NewReader(r)}
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.offset, Msg: fmt.Sprintf(format, args...)}
}

func (t *Tokenizer) readByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		t.offset++
	}
	return b, err
}

func (t *Tokenizer) unreadByte() {
	if err := t.r.UnreadByte(); err == nil {
		t.offset--
	}
}

func (t *Tokenizer) peekByte() (byte, error) {
	b, err := t.r.Peek(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Next implements Reader. The first event is always StartDocument and the
// last is EndDocument; io.EOF follows.
func (t *Tokenizer) Next() (Event, error) {
	if len(t.pending) > 0 {
		e := t.pending[0]
		t.pending = t.pending[1:]
		return e, nil
	}
	if t.ended {
		return Event{}, io.EOF
	}
	if !t.started {
		t.started = true
		return StartDoc(), nil
	}
	for {
		b, err := t.peekByte()
		if err == io.EOF {
			if t.depth != 0 {
				return Event{}, t.errf("unexpected end of input: %d unclosed element(s), innermost <%s>", t.depth, t.stack[len(t.stack)-1])
			}
			if !t.rootSeen {
				return Event{}, t.errf("document has no root element")
			}
			t.ended = true
			return EndDoc(), nil
		}
		if err != nil {
			return Event{}, err
		}
		if b == '<' {
			ev, skip, err := t.readMarkup()
			if err != nil {
				return Event{}, err
			}
			if skip {
				continue
			}
			return ev, nil
		}
		// Character data. Outside the root element only white space,
		// written as itself, is permitted.
		text, space, err := t.readText()
		if err != nil {
			return Event{}, err
		}
		if t.depth == 0 {
			if !space {
				return Event{}, t.errf("character data outside root element")
			}
			continue
		}
		if text == "" {
			continue
		}
		return TextEvent(text), nil
	}
}

// readText consumes character data up to the next '<' or EOF, resolving
// entity and character references. space reports that the run as written
// is XML white space only: no reference, and no other character.
func (t *Tokenizer) readText() (text string, space bool, err error) {
	var b strings.Builder
	space = true
	for {
		c, err := t.readByte()
		if err == io.EOF {
			return b.String(), space, nil
		}
		if err != nil {
			return "", false, err
		}
		switch c {
		case '<':
			t.unreadByte()
			return b.String(), space, nil
		case '&':
			r, err := t.readReference()
			if err != nil {
				return "", false, err
			}
			b.Write(r)
			space = false
		default:
			b.WriteByte(c)
			space = space && bytestr.IsSpace(c)
		}
	}
}

// readReference resolves an entity or character reference after '&' has
// been consumed, returning the decoded bytes in a scratch buffer that is
// only valid until the next call (callers append it immediately). Runes
// are encoded with utf8.AppendRune into the reused scratch instead of
// allocating a string per reference.
func (t *Tokenizer) readReference() ([]byte, error) {
	t.scratch = t.scratch[:0]
	for {
		c, err := t.readByte()
		if err != nil {
			return nil, t.errf("unterminated entity reference")
		}
		if c == ';' {
			break
		}
		if len(t.scratch) > 10 {
			return nil, t.errf("entity reference too long")
		}
		t.scratch = append(t.scratch, c)
	}
	out, msg := appendReferenceName(t.refOut[:0], t.scratch)
	if msg != "" {
		return nil, t.errf("%s", msg)
	}
	t.refOut = out[:0]
	return out, nil
}

// appendReferenceName decodes a reference name (the text between '&' and
// ';') into buf, which must not alias name. It returns the extended
// buffer and an error message ("" on success). Both tokenizers resolve
// references through this one decoder, which is what keeps their
// acceptance behavior byte-identical (the differential tests and the
// fuzz target hold them to it).
func appendReferenceName(buf, name []byte) ([]byte, string) {
	switch string(name) {
	case "lt":
		return append(buf, '<'), ""
	case "gt":
		return append(buf, '>'), ""
	case "amp":
		return append(buf, '&'), ""
	case "apos":
		return append(buf, '\''), ""
	case "quot":
		return append(buf, '"'), ""
	}
	if len(name) > 0 && name[0] == '#' {
		v, msg := charReference(name)
		if msg != "" {
			return buf, msg
		}
		return utf8.AppendRune(buf, v), ""
	}
	return buf, fmt.Sprintf("unknown entity &%s;", name)
}

// charReference returns the code point a character reference's name ("#38",
// "#x26") stands for, or an error message.
func charReference(name []byte) (rune, string) {
	code, base := name[1:], 10
	if len(code) > 0 && (code[0] == 'x' || code[0] == 'X') {
		code, base = code[1:], 16
	}
	var v int
	for _, ch := range code {
		d, ok := hexDigit(ch, base)
		if !ok {
			return 0, fmt.Sprintf("bad character reference &%s;", name)
		}
		v = v*base + d
		if v > 0x10FFFF {
			return 0, "character reference out of range"
		}
	}
	if len(code) == 0 {
		return 0, "empty character reference"
	}
	return rune(v), ""
}

func hexDigit(c byte, base int) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case base == 16 && c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case base == 16 && c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	}
	return 0, false
}

// readMarkup consumes one markup construct beginning at '<'. skip reports
// that the construct produced no event (comment, PI, declaration).
func (t *Tokenizer) readMarkup() (ev Event, skip bool, err error) {
	if _, err = t.readByte(); err != nil { // consume '<'
		return Event{}, false, err
	}
	c, err := t.readByte()
	if err != nil {
		return Event{}, false, t.errf("unterminated markup")
	}
	switch {
	case c == '/':
		return t.readEndTag()
	case c == '?':
		return Event{}, true, t.skipUntil("?>")
	case c == '!':
		return t.readBang()
	default:
		t.unreadByte()
		return t.readStartTag()
	}
}

// readBang handles comments, CDATA and DOCTYPE after "<!".
func (t *Tokenizer) readBang() (Event, bool, error) {
	// Peek enough to distinguish.
	head, _ := t.r.Peek(7)
	switch {
	case len(head) >= 2 && head[0] == '-' && head[1] == '-':
		t.offset += 2
		t.r.Discard(2)
		return Event{}, true, t.skipUntil("-->")
	case len(head) >= 7 && bytes.Equal(head, cdataOpen):
		t.offset += 7
		t.r.Discard(7)
		text, err := t.readCDATA()
		if err != nil {
			return Event{}, false, err
		}
		if t.depth == 0 {
			return Event{}, false, t.errf("CDATA outside root element")
		}
		if text == "" {
			return Event{}, true, nil
		}
		return TextEvent(text), false, nil
	default:
		// DOCTYPE or other declaration: skip to '>'. Internal subsets
		// (with brackets) are rejected for simplicity.
		return Event{}, true, t.skipDecl()
	}
}

func (t *Tokenizer) readCDATA() (string, error) {
	var b strings.Builder
	match := 0
	for {
		c, err := t.readByte()
		if err != nil {
			return "", t.errf("unterminated CDATA section")
		}
		switch {
		case c == ']' && match < 2:
			match++
		case c == '>' && match == 2:
			return b.String(), nil
		case c == ']': // a run of ']': emit the oldest, keep "]]" live
			b.WriteByte(']')
		default:
			for ; match > 0; match-- {
				b.WriteByte(']')
			}
			b.WriteByte(c)
		}
	}
}

func (t *Tokenizer) skipUntil(terminator string) error {
	match := 0
	for {
		c, err := t.readByte()
		if err != nil {
			return t.errf("unterminated construct (expected %q)", terminator)
		}
		switch {
		case c == terminator[match]:
			match++
			if match == len(terminator) {
				return nil
			}
		case match > 0 && c == terminator[match-1] && terminator[match-1] == terminator[0]:
			// A run of the repeated prefix byte (e.g. "---" while looking
			// for "-->") keeps the partial match alive; resetting here
			// would skip past the true first occurrence.
		case c == terminator[0]:
			match = 1
		default:
			match = 0
		}
	}
}

func (t *Tokenizer) skipDecl() error {
	for {
		c, err := t.readByte()
		if err != nil {
			return t.errf("unterminated declaration")
		}
		if c == '[' {
			return t.errf("DOCTYPE internal subsets are not supported")
		}
		if c == '>' {
			return nil
		}
	}
}

func isNameByte(c byte) bool {
	switch c {
	case '<', '>', '/', '=', '&', '\'', '"', ' ', '\t', '\n', '\r':
		return false
	}
	return true
}

// isNameStart reports whether c may begin a name. '!' and '?' may not: a
// tag that begins with one is a declaration or a processing instruction, so
// a name that did could be written but not read back. '-' and '.' may not
// either, as in XML's NameStartChar; digits may, which XML does not allow —
// names here are the paper's opaque set N, and the committed fuzz corpus
// has digit-named attributes.
func isNameStart(c byte) bool {
	switch c {
	case '!', '?', '-', '.':
		return false
	}
	return isNameByte(c)
}

// validName reports whether both tokenizers would read s back as one name.
func validName(s string) bool {
	if s == "" || !isNameStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}

func (t *Tokenizer) readName() (string, error) {
	var b strings.Builder
	for {
		c, err := t.readByte()
		if err != nil {
			return "", t.errf("unterminated name")
		}
		if !isNameByte(c) || (b.Len() == 0 && !isNameStart(c)) {
			t.unreadByte()
			break
		}
		b.WriteByte(c)
	}
	if b.Len() == 0 {
		return "", t.errf("expected a name")
	}
	return b.String(), nil
}

func (t *Tokenizer) skipSpace() error {
	for {
		c, err := t.readByte()
		if err != nil {
			return err
		}
		if !bytestr.IsSpace(c) {
			t.unreadByte()
			return nil
		}
	}
}

// readStartTag parses <name attr="v" ...> or <name/>.
func (t *Tokenizer) readStartTag() (Event, bool, error) {
	name, err := t.readName()
	if err != nil {
		return Event{}, false, err
	}
	if t.depth == 0 && len(t.stack) == 0 && t.rootSeen {
		return Event{}, false, t.errf("second root element <%s>", name)
	}
	var attrs []Attr
	for {
		if err := t.skipSpace(); err != nil {
			return Event{}, false, t.errf("unterminated start tag <%s", name)
		}
		c, err := t.readByte()
		if err != nil {
			return Event{}, false, t.errf("unterminated start tag <%s", name)
		}
		if c == '>' {
			t.pushElement(name)
			return Event{Kind: StartElement, Name: name, Attrs: attrs}, false, nil
		}
		if c == '/' {
			c2, err := t.readByte()
			if err != nil || c2 != '>' {
				return Event{}, false, t.errf("malformed self-closing tag <%s", name)
			}
			// <n/> is shorthand for <n></n>: emit start now, queue end.
			t.pushElement(name)
			t.popElement(name)
			t.pending = append(t.pending, End(name))
			if t.depth == 0 {
				// Root was self-closing; only trailing misc may follow.
			}
			ev := Event{Kind: StartElement, Name: name, Attrs: attrs}
			ev.Attrs = attrs
			return ev, false, nil
		}
		t.unreadByte()
		aname, err := t.readName()
		if err != nil {
			return Event{}, false, err
		}
		if err := t.skipSpace(); err != nil {
			return Event{}, false, t.errf("unterminated attribute %s", aname)
		}
		eq, err := t.readByte()
		if err != nil || eq != '=' {
			return Event{}, false, t.errf("expected '=' after attribute name %s", aname)
		}
		if err := t.skipSpace(); err != nil {
			return Event{}, false, t.errf("unterminated attribute %s", aname)
		}
		quote, err := t.readByte()
		if err != nil || (quote != '"' && quote != '\'') {
			return Event{}, false, t.errf("expected quoted value for attribute %s", aname)
		}
		var val strings.Builder
		for {
			c, err := t.readByte()
			if err != nil {
				return Event{}, false, t.errf("unterminated attribute value for %s", aname)
			}
			if c == quote {
				break
			}
			if c == '&' {
				r, err := t.readReference()
				if err != nil {
					return Event{}, false, err
				}
				val.Write(r)
				continue
			}
			if c == '<' {
				return Event{}, false, t.errf("'<' in attribute value for %s", aname)
			}
			val.WriteByte(c)
		}
		for _, a := range attrs {
			if a.Name == aname {
				return Event{}, false, t.errf("duplicate attribute %s", aname)
			}
		}
		attrs = append(attrs, Attr{Name: aname, Value: val.String()})
	}
}

func (t *Tokenizer) readEndTag() (Event, bool, error) {
	name, err := t.readName()
	if err != nil {
		return Event{}, false, err
	}
	if err := t.skipSpace(); err != nil {
		return Event{}, false, t.errf("unterminated end tag </%s", name)
	}
	c, err := t.readByte()
	if err != nil || c != '>' {
		return Event{}, false, t.errf("malformed end tag </%s", name)
	}
	if err := t.popElement(name); err != nil {
		return Event{}, false, err
	}
	return End(name), false, nil
}

func (t *Tokenizer) pushElement(name string) {
	t.stack = append(t.stack, name)
	t.depth++
}

func (t *Tokenizer) popElement(name string) error {
	if t.depth == 0 {
		return t.errf("end tag </%s> with no open element", name)
	}
	top := t.stack[len(t.stack)-1]
	if top != name {
		return t.errf("end tag </%s> does not match open element <%s>", name, top)
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.depth--
	if t.depth == 0 {
		t.rootSeen = true
	}
	return nil
}
