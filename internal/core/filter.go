// Package core implements the paper's streaming XPath filtering algorithm
// (Section 8). Given a leaf-only-value-restricted univariate conjunctive
// query Q and a document D arriving as a stream of SAX events, the filter
// decides BOOLEVAL(Q, D) — whether D matches Q — in a single pass, using
// space close to the paper's lower bounds:
//
//	O(|Q| · r · (log|Q| + log d + log w) + w) bits
//
// in general (r = path recursion depth, d = document depth, w = text
// width), and O(FS(Q) · (log|Q| + log d + log w) + w) bits for path
// consistency-free closure-free queries (Theorem 8.8) — matching the
// frontier-size, recursion-depth and document-depth lower bounds of
// Section 7.
//
// The algorithm gradually constructs a matching of D with Q on a "frontier"
// of the query (Section 8.1). Each frontier tuple tracks one query node
// awaiting a candidate match. When an element starts, tuples for which it is
// a candidate match expand: internal query nodes open a candidate scope and
// push tuples for their children; value-restricted leaves start buffering
// the candidate's text. When the element ends, leaf candidates are evaluated
// against their truth sets and candidate scopes resolve to a real match iff
// every child tuple found a real match (the conjunction rule). The document
// matches iff the query root resolves to a real match at endDocument
// (Theorem 8.1, tested against two independent oracles).
//
// Differences from the pseudo-code of Figs. 20-21, all behavior-preserving
// or space-saving:
//
//   - Candidate scopes are explicit records instead of being reconstructed
//     from the level attributes of frontier tuples ("select ... where level >
//     currentLevel group by ref.parent"). The level arithmetic is identical;
//     the explicit form also fixes the pseudo-code's overwrite of a
//     previously found real match (line 28 sets rather than ORs the flag)
//     and gives nested candidates of a descendant-axis *leaf* their own
//     buffer offsets (a single strValueStart per tuple would mis-evaluate
//     the outer candidate of <b>u<b>v</b>w</b>).
//   - Leaves with unrestricted truth sets (TRUTH(u) = S) are marked matched
//     at startElement without buffering: existence is already established,
//     and skipping the buffer only shrinks the w term.
//
// This package is the repository's reference, not its production path: it
// consumes string events and has no byte path, resource budgets or early
// exit. Every public matcher, the single-query Filter included, runs on
// internal/engine, which is tested against this filter and links nothing of
// it: the two share only internal/fragment's streamability decision and
// cost model (fragment.Streamable, fragment.EstimatedBits). The lower-bound
// experiments (internal/commcc, cmd/xpexperiments) run over its Snapshot,
// examples/tracer over its Trace.
package core

import (
	"fmt"
	"io"
	"strings"

	"streamxpath/internal/bytestr"
	"streamxpath/internal/query"
	"streamxpath/internal/sax"
)

// Tuple is one frontier entry: a query node awaiting (or having found) a
// real match within the current candidate scope of its parent.
type Tuple struct {
	// Ref is the query node this tuple tracks.
	Ref *query.Node
	// Level is the document level at which a candidate match is expected
	// (parent candidate's level + 1). Descendant-axis tuples accept
	// candidates at any level at or below it.
	Level int
	// Matched records whether a real match has been found.
	Matched bool
	// drop marks the tuple for removal during a closeScope frontier sweep.
	drop bool
}

// scope is an open candidate match of an internal query node: the element
// at Level is a candidate for Tup.Ref, and Children are the tuples inserted
// for Tup.Ref's children. When the element ends, Tup is a real match iff
// every child tuple matched.
type scope struct {
	Tup      *Tuple
	Level    int
	Children []*Tuple
}

// pending is an open candidate match of a value-restricted leaf: the
// element at Level is a candidate for Tup.Ref, and Start is the buffer
// offset where its string value begins.
type pending struct {
	Tup   *Tuple
	Level int
	Start int
}

// Filter is a compiled streaming filter for one query: streaming run
// state over an immutable Program. A Filter processes one document at a
// time; Reset prepares it for the next document.
type Filter struct {
	prog *Program

	// Streaming state.
	level    int // level of the innermost open element (doc root = 0)
	frontier []*Tuple
	scopes   []scope   // stack: innermost last
	pendings []pending // stack: innermost last
	buf      []byte
	refCount int
	root     *Tuple
	started  bool
	finished bool

	// Free lists: tuples and scope child slices are recycled across
	// candidate scopes (and documents), so steady-state filtering does
	// not allocate.
	freeTuples   []*Tuple
	freeChildren [][]*Tuple
	opened       []*Tuple // scratch for startElement

	stats Stats
	// Trace, if non-nil, is invoked after each processed event (used by
	// the Fig. 22 example-run reproduction).
	Trace func(e sax.Event, f *Filter)
}

// Options tunes the filter; the zero value is the default configuration.
type Options struct {
	// BufferAllLeaves disables the unrestricted-leaf optimization: every
	// leaf candidate buffers its text and is evaluated at endElement, as
	// in the paper's literal pseudo-code. Used by the ablation benchmark
	// to measure what the optimization saves; results are identical.
	BufferAllLeaves bool
}

// Compile validates that q is a leaf-only-value-restricted univariate
// conjunctive query (the fragment the Section 8 algorithm supports),
// precomputes the truth sets of its leaves, and returns a ready filter.
// Compile is NewProgram followed by NewFilter; callers instantiating many
// filters for one query should hold the Program instead.
func Compile(q *query.Query) (*Filter, error) {
	return CompileOpts(q, Options{})
}

// CompileOpts is Compile with explicit Options.
func CompileOpts(q *query.Query, opts Options) (*Filter, error) {
	p, err := NewProgramOpts(q, opts)
	if err != nil {
		return nil, err
	}
	return p.NewFilter(), nil
}

// MustCompile is Compile that panics on error.
func MustCompile(q *query.Query) *Filter {
	f, err := Compile(q)
	if err != nil {
		panic(err)
	}
	return f
}

// newTuple takes a tuple off the free list (or allocates one).
func (f *Filter) newTuple(v *query.Node, level int) *Tuple {
	var t *Tuple
	if k := len(f.freeTuples); k > 0 {
		t = f.freeTuples[k-1]
		f.freeTuples = f.freeTuples[:k-1]
	} else {
		t = &Tuple{}
	}
	*t = Tuple{Ref: v, Level: level}
	return t
}

func (f *Filter) freeTuple(t *Tuple) {
	t.Ref = nil
	f.freeTuples = append(f.freeTuples, t)
}

// Reset clears the streaming state so the filter can process another
// document. Statistics are also reset.
func (f *Filter) Reset() {
	if f.root != nil {
		// The root tuple is owned by no candidate scope, so closeScope
		// never recycles it; doing so here keeps repeat matching
		// allocation-free. (Tuples of an abandoned mid-stream document
		// are left to the garbage collector.)
		f.freeTuple(f.root)
	}
	f.level = 0
	f.frontier = f.frontier[:0]
	f.scopes = f.scopes[:0]
	f.pendings = f.pendings[:0]
	f.buf = f.buf[:0]
	f.refCount = 0
	f.root = nil
	f.started = false
	f.finished = false
	f.stats = Stats{}
}

// Matched reports the result after endDocument has been processed.
func (f *Filter) Matched() bool { return f.finished && f.root != nil && f.root.Matched }

// Done reports whether endDocument has been processed.
func (f *Filter) Done() bool { return f.finished }

// Process consumes one SAX event. Attribute lists on startElement events
// are expanded inline into attribute child events (the paper's folding of
// the attribute axis into the child axis).
func (f *Filter) Process(e sax.Event) error {
	if err := f.process(e); err != nil {
		return err
	}
	if len(e.Attrs) > 0 && e.Kind == sax.StartElement {
		for _, a := range e.Attrs {
			if err := f.process(sax.Event{Kind: sax.StartElement, Name: a.Name, Attribute: true}); err != nil {
				return err
			}
			if err := f.process(sax.Event{Kind: sax.Text, Data: a.Value}); err != nil {
				return err
			}
			if err := f.process(sax.Event{Kind: sax.EndElement, Name: a.Name, Attribute: true}); err != nil {
				return err
			}
		}
	}
	if f.Trace != nil {
		f.Trace(e, f)
	}
	return nil
}

func (f *Filter) process(e sax.Event) error {
	f.stats.Events++
	switch e.Kind {
	case sax.StartDocument:
		if f.started {
			return fmt.Errorf("core: duplicate startDocument")
		}
		f.startDocument()
	case sax.EndDocument:
		if !f.started || f.finished {
			return fmt.Errorf("core: unexpected endDocument")
		}
		f.endDocument()
	case sax.StartElement:
		if !f.started || f.finished {
			return fmt.Errorf("core: startElement outside document")
		}
		f.startElement(e.Name, e.Attribute)
	case sax.EndElement:
		if !f.started || f.finished {
			return fmt.Errorf("core: endElement outside document")
		}
		if f.level == 0 {
			return fmt.Errorf("core: unmatched endElement </%s>", e.Name)
		}
		f.endElement()
	case sax.Text:
		if !f.started || f.finished {
			return fmt.Errorf("core: text outside document")
		}
		f.text(e.Data)
	}
	f.noteStats()
	return nil
}

// startDocument initializes the frontier: the document root is the sole
// candidate match for the query root, so the root's candidate scope opens
// immediately with tuples for the root's children at level 1.
func (f *Filter) startDocument() {
	f.started = true
	f.root = f.newTuple(f.prog.q.Root, 0)
	f.openScope(f.root, 0)
}

// openScope records a candidate match of the internal query node tracked by
// t at the element at the given level, inserting child tuples into the
// frontier. Child slices are recycled across scopes.
func (f *Filter) openScope(t *Tuple, level int) {
	sc := scope{Tup: t, Level: level}
	if k := len(f.freeChildren); k > 0 {
		sc.Children = f.freeChildren[k-1][:0]
		f.freeChildren = f.freeChildren[:k-1]
	}
	for _, v := range t.Ref.Children {
		child := f.newTuple(v, level+1)
		sc.Children = append(sc.Children, child)
		f.frontier = append(f.frontier, child)
	}
	f.scopes = append(f.scopes, sc)
}

// startElement handles a startElement(n) event per Fig. 20: every unmatched
// frontier tuple for which the new element is a candidate match either
// begins buffering (value-restricted leaves), is marked matched outright
// (unrestricted leaves — existence suffices), or opens a candidate scope
// (internal nodes; child-axis tuples leave the frontier for the duration,
// as no further candidates can occur among the element's descendants).
func (f *Filter) startElement(name string, isAttr bool) {
	elemLevel := f.level + 1
	// Iterate over a snapshot of the frontier: openScope appends child
	// tuples that must not be considered for this same element.
	selected := f.frontier[:len(f.frontier):len(f.frontier)]
	kept := f.frontier[:0]
	opened := f.opened[:0]
	for _, t := range selected {
		if (!t.Ref.IsWildcard() && t.Ref.NTest != name) || !f.candidate(t, isAttr, elemLevel) {
			kept = append(kept, t)
			continue
		}
		if t.Ref.IsLeaf() {
			if f.prog.restricted[t.Ref] {
				f.pendings = append(f.pendings, pending{Tup: t, Level: elemLevel, Start: len(f.buf)})
				f.refCount++
			} else {
				t.Matched = true
			}
			kept = append(kept, t)
			continue
		}
		// Internal node: open a candidate scope. Child-axis tuples are
		// removed from the frontier until the scope closes (lines 10-11
		// of Fig. 20); descendant-axis tuples stay, as nested candidates
		// remain possible in recursive documents.
		if t.Ref.Axis != query.AxisChild {
			kept = append(kept, t)
		}
		opened = append(opened, t)
	}
	f.frontier = kept
	for _, t := range opened {
		f.openScope(t, elemLevel)
	}
	f.opened = opened[:0]
	f.level = elemLevel
}

// candidate reports whether the element starting at elemLevel is a
// candidate match for tuple t, the name test having already passed: the
// tuple is still unmatched, the node kinds agree, and the element is at
// the expected level (child/attribute axes) or anywhere below
// (descendant axis).
func (f *Filter) candidate(t *Tuple, isAttr bool, elemLevel int) bool {
	if t.Matched || t.Ref.IsRoot() {
		return false
	}
	if (t.Ref.Axis == query.AxisAttribute) != isAttr {
		return false
	}
	if t.Ref.Axis == query.AxisDescendant {
		return elemLevel >= t.Level
	}
	return elemLevel == t.Level
}

// text appends character data to the buffer if any leaf candidate is
// consuming it.
func (f *Filter) text(data string) {
	if f.refCount > 0 {
		f.buf = append(f.buf, data...)
	}
}

// endElement handles an endElement event per Fig. 21: candidates at the
// closing level resolve. Leaf candidates evaluate their buffered string
// value against the truth set; internal candidates become real matches iff
// all their child tuples matched.
func (f *Filter) endElement() {
	closing := f.level
	f.level--
	// Resolve leaf candidates (innermost pendings have the highest
	// levels, so they form a suffix of the stack).
	for len(f.pendings) > 0 {
		p := f.pendings[len(f.pendings)-1]
		if p.Level != closing {
			break
		}
		f.pendings = f.pendings[:len(f.pendings)-1]
		// The truth set sees a zero-copy view of the buffer: Contains
		// implementations parse or compare and return without retaining
		// the string, so no per-candidate copy is needed.
		if !p.Tup.Matched && f.prog.sets[p.Tup.Ref].Contains(bytestr.String(f.buf[p.Start:])) {
			p.Tup.Matched = true
		}
		f.refCount--
		if f.refCount == 0 {
			f.buf = f.buf[:0]
		}
	}
	// Resolve candidate scopes at the closing level (innermost last).
	for len(f.scopes) > 0 {
		sc := f.scopes[len(f.scopes)-1]
		if sc.Level != closing {
			break
		}
		f.scopes = f.scopes[:len(f.scopes)-1]
		f.closeScope(sc)
	}
}

// closeScope resolves a candidate scope: the candidate is a real match iff
// every child tuple matched. Child tuples leave the frontier (marked with
// the drop flag and swept, instead of building a removal set per scope)
// and return to the free list; a child-axis owner returns to the frontier
// (Fig. 21 lines 23-27), accumulating the result with OR across sibling
// candidates.
func (f *Filter) closeScope(sc scope) {
	m := true
	for _, c := range sc.Children {
		if !c.Matched {
			m = false
		}
		c.drop = true
	}
	kept := f.frontier[:0]
	for _, t := range f.frontier {
		if !t.drop {
			kept = append(kept, t)
		}
	}
	f.frontier = kept
	for _, c := range sc.Children {
		f.freeTuple(c)
	}
	f.freeChildren = append(f.freeChildren, sc.Children[:0])
	if m {
		sc.Tup.Matched = true
	}
	if sc.Tup.Ref.Axis == query.AxisChild && !sc.Tup.Ref.IsRoot() {
		f.frontier = append(f.frontier, sc.Tup)
	}
}

// endDocument closes the root's candidate scope; the result is the root
// tuple's matched flag (Fig. 21's endDocument).
func (f *Filter) endDocument() {
	for len(f.scopes) > 0 {
		sc := f.scopes[len(f.scopes)-1]
		f.scopes = f.scopes[:len(f.scopes)-1]
		f.closeScope(sc)
	}
	f.finished = true
}

// WouldMatchIfClosedNow reports whether the document would match if every
// currently open element (and the document) closed with no further
// content: open candidate scopes resolve bottom-up by the all-children-
// matched rule. Because conjunctive matching is monotone — matched flags
// are never unset and future events can only add matches — a true result
// is final. The per-filter fan-out baseline of the dissemination
// benchmarks stops feeding a filter on it; the engine's form of the same
// rule decides a predicate the moment its last conjunct matches.
func (f *Filter) WouldMatchIfClosedNow() bool {
	if f.root == nil {
		return false
	}
	if f.finished {
		return f.root.Matched
	}
	provisional := make(map[*Tuple]bool)
	for i := len(f.scopes) - 1; i >= 0; i-- { // innermost first
		sc := f.scopes[i]
		all := true
		for _, c := range sc.Children {
			if !c.Matched && !provisional[c] {
				all = false
				break
			}
		}
		if all {
			provisional[sc.Tup] = true
		}
	}
	return f.root.Matched || provisional[f.root]
}

// ProcessAll streams a pre-materialized event sequence and returns the
// match result.
func (f *Filter) ProcessAll(events []sax.Event) (bool, error) {
	for _, e := range events {
		if err := f.Process(e); err != nil {
			return false, err
		}
	}
	if !f.finished {
		return false, fmt.Errorf("core: stream ended before endDocument")
	}
	return f.Matched(), nil
}

// Run streams events from a Reader until EOF and returns the match result.
func (f *Filter) Run(r sax.Reader) (bool, error) {
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return false, err
		}
		if err := f.Process(e); err != nil {
			return false, err
		}
	}
	if !f.finished {
		return false, fmt.Errorf("core: stream ended before endDocument")
	}
	return f.Matched(), nil
}

// FilterXML compiles q and filters an XML string; a convenience for tests
// and examples.
func FilterXML(q *query.Query, xml string) (bool, error) {
	f, err := Compile(q)
	if err != nil {
		return false, err
	}
	events, err := sax.Parse(xml)
	if err != nil {
		return false, err
	}
	return f.ProcessAll(events)
}

// FrontierString renders the current frontier in the style of the Fig. 22
// trace: (level, ntest, matched) triples in insertion order.
func (f *Filter) FrontierString() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range f.frontier {
		if i > 0 {
			b.WriteString(", ")
		}
		m := 0
		if t.Matched {
			m = 1
		}
		fmt.Fprintf(&b, "(%d,%s,%d)", t.Level, t.Ref.NTest, m)
	}
	b.WriteByte(']')
	return b.String()
}
