// Package sax implements the streaming XML event model used throughout the
// paper "On the Memory Requirements of XPath Evaluation over XML Streams"
// (Bar-Yossef, Fontoura, Josifovski; PODS 2004 / JCSS 2007), Section 3.1.4.
//
// A streaming algorithm receives its input document as a sequence of exactly
// five kinds of SAX events:
//
//	startDocument()      also denoted <$>
//	endDocument()        also denoted </$>
//	startElement(n)      also denoted <n>
//	endElement(n)        also denoted </n>
//	text(α)              also denoted α
//
// The package provides the Event type, a streaming tokenizer that turns raw
// XML bytes into events, a serializer that turns events back into XML, and a
// well-formedness checker. Events are the lingua franca of the repository:
// the document tree (internal/tree), the reference evaluator, the streaming
// filter (internal/core) and the lower-bound document generators
// (internal/commcc) all speak in terms of []Event or an event Reader.
package sax

import (
	"fmt"
	"strings"

	"streamxpath/internal/symtab"
)

// Kind identifies one of the five SAX event kinds of Section 3.1.4.
type Kind uint8

// The five event kinds. StartDocument/EndDocument delimit the stream;
// StartElement/EndElement carry an element name; Text carries character data.
const (
	StartDocument Kind = iota
	EndDocument
	StartElement
	EndElement
	Text
)

// String returns the paper's notation for the event kind.
func (k Kind) String() string {
	switch k {
	case StartDocument:
		return "startDocument"
	case EndDocument:
		return "endDocument"
	case StartElement:
		return "startElement"
	case EndElement:
		return "endElement"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element. The paper folds the attribute
// axis into the child axis (Section 3.1.2); the tokenizer reports attributes
// on the StartElement event and ExpandAttributes can rewrite them into
// child-like attribute events for consumers that prefer a uniform stream.
type Attr struct {
	Name  string
	Value string
}

// Event is a single SAX event. Name is set for StartElement and EndElement.
// Data is set for Text. Attrs is set (possibly empty) for StartElement.
// Attribute indicates the element event was synthesized from an attribute by
// ExpandAttributes.
type Event struct {
	Kind      Kind
	Name      string
	Data      string
	Attrs     []Attr
	Attribute bool
}

// StartDoc returns a startDocument event.
func StartDoc() Event { return Event{Kind: StartDocument} }

// EndDoc returns an endDocument event.
func EndDoc() Event { return Event{Kind: EndDocument} }

// Start returns a startElement(name) event.
func Start(name string, attrs ...Attr) Event {
	return Event{Kind: StartElement, Name: name, Attrs: attrs}
}

// End returns an endElement(name) event.
func End(name string) Event { return Event{Kind: EndElement, Name: name} }

// TextEvent returns a text(data) event.
func TextEvent(data string) Event { return Event{Kind: Text, Data: data} }

// String renders the event in the paper's angle-bracket notation, e.g. "<a>",
// "</a>", "<$>", "</$>" or the raw text.
func (e Event) String() string {
	switch e.Kind {
	case StartDocument:
		return "<$>"
	case EndDocument:
		return "</$>"
	case StartElement:
		if len(e.Attrs) == 0 {
			return "<" + e.Name + ">"
		}
		var b strings.Builder
		b.WriteByte('<')
		b.WriteString(e.Name)
		for _, a := range e.Attrs {
			fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
		}
		b.WriteByte('>')
		return b.String()
	case EndElement:
		return "</" + e.Name + ">"
	case Text:
		return e.Data
	default:
		return "?"
	}
}

// ByteEvent is the allocation-free counterpart of Event, produced by
// TokenizerBytes. Element names arrive pre-interned as symbols of the
// tokenizer's table; text arrives as a byte slice that is only valid
// until the next Next or NextBatch call (it aliases either the input
// document or a reusable scratch buffer). ByteEvent carries no attribute list:
// TokenizerBytes folds attributes into attribute child events (the
// paper's attribute-axis folding) at scan time, so consumers see a
// uniform five-kind stream with the Attribute flag marking synthesized
// events. The two one-byte fields come first and share a word with Sym, so
// an event is 40 bytes, not 48: NextBatch writes them by the dozen.
type ByteEvent struct {
	Kind      Kind
	Attribute bool
	Sym       symtab.Sym
	// Off is the event's absolute document offset (independent of window
	// compaction in the chunked tokenizer): for StartElement the position
	// of the construct's '<', for EndElement the position one past the
	// closing '>'. It is what fragment extraction uses to delimit a
	// matched element's source region — a capture of element e spans
	// [start.Off, end.Off). The three events of an attribute carry offsets
	// of the attribute they were scanned from, and character data carries
	// none (0); only element boundaries are meaningful for captures.
	Off  int
	Data []byte
}

// Event materializes the byte event as a heap-backed Event, resolving the
// symbol through tab. Used by differential tests and debugging; the hot
// path never calls it.
func (e ByteEvent) Event(tab *symtab.Table) Event {
	return Event{
		Kind:      e.Kind,
		Name:      tab.Name(e.Sym),
		Data:      string(e.Data),
		Attribute: e.Attribute,
	}
}

// Reader is a stream of SAX events. Next returns io.EOF after the final
// event has been delivered.
type Reader interface {
	Next() (Event, error)
}

// SliceReader adapts a pre-materialized event sequence to the Reader
// interface. It is the standard way tests and the lower-bound generators
// feed synthetic streams to algorithms.
type SliceReader struct {
	events []Event
	pos    int
}

// NewSliceReader returns a Reader over events.
func NewSliceReader(events []Event) *SliceReader {
	return &SliceReader{events: events}
}

// Next implements Reader.
func (r *SliceReader) Next() (Event, error) {
	if r.pos >= len(r.events) {
		return Event{}, errEOF
	}
	e := r.events[r.pos]
	r.pos++
	return e, nil
}

// Rest returns the events not yet consumed. Used by the communication
// complexity harness to hand the remainder of a stream to "Bob".
func (r *SliceReader) Rest() []Event { return r.events[r.pos:] }

// Concat concatenates event segments into one stream, the α ◦ β operation of
// Section 3.2.
func Concat(segments ...[]Event) []Event {
	n := 0
	for _, s := range segments {
		n += len(s)
	}
	out := make([]Event, 0, n)
	for _, s := range segments {
		out = append(out, s...)
	}
	return out
}

// Wrap surrounds body events with startDocument/endDocument, producing a full
// stream for a document whose root children are given by body.
func Wrap(body []Event) []Event {
	out := make([]Event, 0, len(body)+2)
	out = append(out, StartDoc())
	out = append(out, body...)
	out = append(out, EndDoc())
	return out
}

// Element returns the event segment <name> body </name>, the subtree
// notation D_x used throughout the paper's constructions.
func Element(name string, body ...Event) []Event {
	out := make([]Event, 0, len(body)+2)
	out = append(out, Start(name))
	out = append(out, body...)
	out = append(out, End(name))
	return out
}

// EmptyElement returns the segment <name/> (shorthand used in the paper for
// <name></name>).
func EmptyElement(name string) []Event {
	return []Event{Start(name), End(name)}
}

// TextElement returns the segment <name>data</name>.
func TextElement(name, data string) []Event {
	return []Event{Start(name), TextEvent(data), End(name)}
}

// ExpandAttributes rewrites a stream so every attribute a=v on a
// startElement becomes a synthesized child element stream
// startElement(a)+text(v)+endElement(a) with the Attribute flag set,
// emitted immediately after the owning startElement. This realizes the
// paper's remark that the attribute axis "can be handled as a special case
// of the child axis".
func ExpandAttributes(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Kind == StartElement && len(e.Attrs) > 0 {
			attrs := e.Attrs
			e.Attrs = nil
			out = append(out, e)
			for _, a := range attrs {
				out = append(out,
					Event{Kind: StartElement, Name: a.Name, Attribute: true},
					Event{Kind: Text, Data: a.Value},
					Event{Kind: EndElement, Name: a.Name, Attribute: true},
				)
			}
			continue
		}
		out = append(out, e)
	}
	return out
}
