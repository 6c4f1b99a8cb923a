package sax

import (
	"fmt"
	"io"
	"strings"
)

// Serialize renders an event stream back to XML text. It is the inverse of
// the Tokenizer (modulo entity-encoding choices) and is used to materialize
// the synthetic documents built by the lower-bound generators.
//
// The stream must be well-formed (CheckWellFormed), and every element and
// attribute name one the tokenizers would read back as that name; Serialize
// reports an error otherwise so that generator bugs surface immediately
// rather than as confusing parses. Text and attribute values are escaped by
// AppendTextEscaped and AppendAttrEscaped.
func Serialize(w io.Writer, events []Event) error {
	if err := CheckWellFormed(events); err != nil {
		return err
	}
	var buf []byte
	for i, e := range events {
		buf = buf[:0]
		switch e.Kind {
		case StartElement:
			if !validName(e.Name) {
				return fmt.Errorf("sax: event %d: %q is not a name", i, e.Name)
			}
			buf = append(append(buf, '<'), e.Name...)
			for _, a := range e.Attrs {
				if !validName(a.Name) {
					return fmt.Errorf("sax: event %d: %q is not an attribute name", i, a.Name)
				}
				buf = append(append(append(buf, ' '), a.Name...), `="`...)
				buf = append(AppendAttrEscaped(buf, []byte(a.Value)), '"')
			}
			buf = append(buf, '>')
		case EndElement:
			buf = append(append(append(buf, "</"...), e.Name...), '>')
		case Text:
			buf = AppendTextEscaped(buf, []byte(e.Data))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// SerializeString is Serialize into a string.
func SerializeString(events []Event) (string, error) {
	var b strings.Builder
	if err := Serialize(&b, events); err != nil {
		return "", err
	}
	return b.String(), nil
}

// AppendTextEscaped appends s to dst with Serialize's text escaping
// (&, <, > become entities).
func AppendTextEscaped(dst, s []byte) []byte {
	for _, c := range s {
		switch c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// AppendAttrEscaped appends s to dst with Serialize's attribute-value
// escaping (&, <, " become entities).
func AppendAttrEscaped(dst, s []byte) []byte {
	for _, c := range s {
		switch c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// CheckWellFormed verifies that a stream satisfies the well-formedness rules
// of Section 3.1.4 without producing output: startDocument first,
// endDocument last, properly nested matching element tags, a single root
// element, and text only inside elements. It returns nil if the stream is
// well-formed.
func CheckWellFormed(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("sax: empty stream")
	}
	var stack []string
	roots := 0
	started, ended := false, false
	for i, e := range events {
		if ended {
			return fmt.Errorf("sax: event %d: event after endDocument", i)
		}
		switch e.Kind {
		case StartDocument:
			if started {
				return fmt.Errorf("sax: event %d: duplicate startDocument", i)
			}
			started = true
		case EndDocument:
			if !started {
				return fmt.Errorf("sax: event %d: endDocument before startDocument", i)
			}
			if len(stack) != 0 {
				return fmt.Errorf("sax: event %d: endDocument with open element <%s>", i, stack[len(stack)-1])
			}
			ended = true
		case StartElement:
			if !started {
				return fmt.Errorf("sax: event %d: startElement before startDocument", i)
			}
			if len(stack) == 0 {
				roots++
				if roots > 1 {
					return fmt.Errorf("sax: event %d: second root element <%s>", i, e.Name)
				}
			}
			stack = append(stack, e.Name)
		case EndElement:
			if len(stack) == 0 {
				return fmt.Errorf("sax: event %d: endElement(%s) with no open element", i, e.Name)
			}
			if top := stack[len(stack)-1]; top != e.Name {
				return fmt.Errorf("sax: event %d: endElement(%s) does not match <%s>", i, e.Name, top)
			}
			stack = stack[:len(stack)-1]
		case Text:
			if len(stack) == 0 {
				return fmt.Errorf("sax: event %d: text outside root element", i)
			}
		default:
			return fmt.Errorf("sax: event %d: unknown kind %d", i, e.Kind)
		}
	}
	if !ended {
		return fmt.Errorf("sax: stream missing endDocument")
	}
	if roots == 0 {
		return fmt.Errorf("sax: document has no root element")
	}
	return nil
}

// IsWellFormed reports whether CheckWellFormed succeeds.
func IsWellFormed(events []Event) bool { return CheckWellFormed(events) == nil }

// Parse tokenizes a complete XML document held in a string and returns its
// event stream. It is a convenience for tests and examples.
func Parse(xml string) ([]Event, error) {
	tok := NewTokenizer(strings.NewReader(xml))
	var out []Event
	for {
		e, err := tok.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// MustParse is Parse but panics on error; intended for tests and package
// examples with literal inputs.
func MustParse(xml string) []Event {
	evs, err := Parse(xml)
	if err != nil {
		panic(err)
	}
	return evs
}

// Depth returns the document depth of a well-formed stream: the length of
// the longest root-to-leaf element path (Section 4.3). Text nodes do not
// count toward depth.
func Depth(events []Event) int {
	depth, max := 0, 0
	for _, e := range events {
		switch e.Kind {
		case StartElement:
			depth++
			if depth > max {
				max = depth
			}
		case EndElement:
			depth--
		}
	}
	return max
}

// CoalesceText merges adjacent Text events, which the Tokenizer can emit
// around CDATA sections. Algorithms that compare streams structurally use it
// to normalize.
func CoalesceText(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Kind == Text && len(out) > 0 && out[len(out)-1].Kind == Text {
			out[len(out)-1].Data += e.Data
			continue
		}
		out = append(out, e)
	}
	return out
}
