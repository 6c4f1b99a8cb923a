package sax

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamxpath/internal/limits"
	"streamxpath/internal/symtab"
)

// ErrNeedMoreData is returned by Next in streaming mode (see
// StreamTokenizer) when the remaining input is a prefix of an incomplete
// construct — a partial tag, name, entity reference, comment, CDATA
// section, or an unterminated text run — whose outcome the next chunk
// could change. Most constructs rewind to their first byte and rescan
// once more data arrives; a start tag suspended between attributes keeps
// its already-parsed attributes and resumes at the attribute boundary
// (see scanAttrs), so a tag with hundreds of attributes spanning chunks
// is not re-walked on every refill.
var ErrNeedMoreData = errors.New("sax: need more data")

// TokenizerBytes converts a whole XML document held in a byte slice into
// the five-event stream, with zero allocations per event in the steady
// state: element and attribute names are interned into a shared symbol
// table as they are scanned (a warm intern hits a direct-mapped name
// cache — one hash, one memeq, no map probe), character data is returned
// as a subslice of the input wherever no entity decoding is needed and
// otherwise decoded into a reusable scratch buffer, and attributes are
// folded into attribute child events at scan time so no per-element
// attribute list is built.
//
// Scanning is split in two, simdjson-style: a structural-index pass
// (structidx.go) bulk-sweeps each newly arrived window once and records
// entity and quote positions, and the event assembler below walks that
// index plus anchored per-construct IndexByte/Index hops — so text runs,
// attribute values, comments and CDATA sections are delimited by single
// bulk scans, and the entity-presence bit from the index decides whether
// the decode path runs at all.
//
// It accepts exactly the syntax of the streaming Tokenizer and produces
// the same event stream (modulo attribute expansion — apply
// ExpandAttributes to the string tokenizer's output to compare), which
// the differential tests and the fuzz target enforce. Unlike the
// streaming Tokenizer it requires the document in memory; callers that
// need bounded-memory parsing keep using NewTokenizer.
//
// A TokenizerBytes is reusable: Reset points it at the next document
// while keeping its scratch buffers and symbol table, which is what
// makes steady-state matching loops allocation-free.
type TokenizerBytes struct {
	data []byte
	pos  int
	tab  *symtab.Table
	idx  structIndex

	// streaming marks the tokenizer as fed incrementally (by a
	// StreamTokenizer): running out of data mid-construct yields
	// ErrNeedMoreData instead of a syntax error, until final marks the
	// last chunk. base is the document offset of data[0], so error
	// offsets stay absolute while the window slides.
	streaming bool
	final     bool
	base      int

	// Resume state for suspended unbounded terminator scans (text runs,
	// CDATA, comments/PIs): suspendAt is the absolute document offset of
	// the search region whose first scanned bytes were already verified
	// terminator-free, so the rescan after the next chunk skips them —
	// without this, a single construct spanning k chunks would cost
	// O(k·construct) rescanning. suspendAt is -1 when no scan is
	// suspended.
	suspendAt int
	scanned   int

	// Resume state for a start tag suspended between attributes: when
	// tagActive is set, pos sits at an attribute boundary inside the tag
	// whose element is tagSym, pending holds the attribute events staged
	// so far, and the next call re-enters scanAttrs there instead of
	// rewinding to '<'. tagOff is the absolute document offset of the
	// tag's '<' — recorded up front because the suspended resume path no
	// longer knows the construct's mark (and the window may have slid).
	tagActive bool
	tagSym    symtab.Sym
	tagOff    int

	// rescanned counts input bytes re-examined after suspension rewinds —
	// the chunked parse's deviation from single-pass scanning. Tests pin
	// it to O(document) on pathological chunk splits.
	rescanned int

	started  bool
	ended    bool
	rootSeen bool
	stack    []symtab.Sym

	// pending holds events synthesized ahead of parsing: attribute child
	// events and the endElement of a self-closing tag. head indexes the
	// next one to deliver; the backing array is reused. While tagActive,
	// pending is staged, not deliverable — the element's StartElement
	// must come first. stabilized is the suspendTag watermark: events
	// below it no longer alias the window, so each staged value is
	// copied at most once however many times the tag suspends.
	pending    []ByteEvent
	head       int
	stabilized int

	// textBuf holds entity-decoded character data; attrBuf holds decoded
	// (and, in streaming mode, window-stabilized) attribute values per
	// start tag.
	textBuf []byte
	attrBuf []byte

	// attrSeen detects duplicate attributes in O(1) per attribute: the
	// slot for a symbol holds the epoch of the last tag that used it, so
	// "seen in this tag" is one stamped compare instead of a linear scan
	// of the attributes so far (quadratic on many-attribute tags). The
	// epoch advances per start tag; on uint32 wraparound the table is
	// cleared.
	attrSeen  []uint32
	attrEpoch uint32

	// lim holds the per-document resource budgets (zero value: none).
	// Depth is enforced where a start tag closes (countLevels); token size at
	// every unbounded scan — including the suspended-scan paths, where the
	// budget is what stops an untermined giant construct from buffering
	// whole before its terminator ever arrives. Budgets survive Reset:
	// they configure the tokenizer, not the document.
	lim limits.Limits

	// nameCache is a direct-mapped cache in front of the symbol table:
	// element and attribute names repeat heavily, and a cache hit (hash +
	// length check + memeq) is several times cheaper than an interning
	// map probe. Misses fall through to InternBytes and overwrite the
	// slot.
	nameCache []nameCacheEntry

	// skim marks the rest of the document as validated without being
	// materialized (see Skim). Elements opened while skimming are held in
	// spans — the input span of each one's name, compared by bytes at its
	// end tag, so no name is interned — above the elements that were open
	// at skim entry, which stay on stack; tagName is the span of the start
	// tag being scanned.
	skim    bool
	spans   []span
	tagName span

	// Depth accounting, in the engine's units: a self-closing tag is a
	// level like any element, and the attributes folded into child events
	// sit one level below their element (see countLevels). deepest is the
	// deepest level the skim has reached, tagAttrs whether the start tag it
	// is scanning has an attribute (Next sees that in pending), and breach
	// a depth breach found at an attribute level, held back for one call.
	deepest  int
	tagAttrs bool
	breach   error
}

// nameCacheBits sizes the direct-mapped name cache (the hash's top bits
// index it).
const (
	nameCacheBits = 9
	nameCacheSize = 1 << nameCacheBits
)

type nameCacheEntry struct {
	name string
	sym  symtab.Sym
}

// span is a half-open range of window offsets.
type span struct{ start, end int }

// NewTokenizerBytes returns a tokenizer over data, interning names into
// tab. A nil tab allocates a fresh table (retrievable via Table).
func NewTokenizerBytes(data []byte, tab *symtab.Table) *TokenizerBytes {
	if tab == nil {
		tab = symtab.New()
	}
	return &TokenizerBytes{
		data:      data,
		tab:       tab,
		suspendAt: -1,
		nameCache: make([]nameCacheEntry, nameCacheSize),
	}
}

// Table returns the symbol table names are interned into.
func (t *TokenizerBytes) Table() *symtab.Table { return t.tab }

// Reset points the tokenizer at a new document, keeping the symbol table
// and all scratch capacity (including the warm name cache — symbols are
// stable across documents of one table).
func (t *TokenizerBytes) Reset(data []byte) {
	t.data = data
	t.pos = 0
	t.idx.reset()
	t.final = false
	t.base = 0
	t.suspendAt = -1
	t.scanned = 0
	t.tagActive = false
	t.tagOff = 0
	t.rescanned = 0
	t.started = false
	t.ended = false
	t.rootSeen = false
	t.stack = t.stack[:0]
	t.skim = false
	t.spans = t.spans[:0]
	t.deepest = 0
	t.tagAttrs = false
	t.breach = nil
	t.pending = t.pending[:0]
	t.head = 0
	t.stabilized = 0
	t.textBuf = t.textBuf[:0]
	t.attrBuf = t.attrBuf[:0]
}

// Rescanned reports the total input bytes re-examined after suspension
// rewinds so far. Whole-buffer parses report 0; a chunked parse stays
// O(document) regardless of how chunk boundaries fall, because text,
// value and terminator scans resume from the structural index or the
// suspendAt memo, and suspended start tags resume at the attribute
// boundary instead of the '<'.
func (t *TokenizerBytes) Rescanned() int { return t.rescanned }

func (t *TokenizerBytes) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.base + t.pos, Msg: fmt.Sprintf(format, args...)}
}

// SetLimits configures the per-document resource budgets (the zero value
// disables them). Limits persist across Reset.
func (t *TokenizerBytes) SetLimits(l limits.Limits) { t.lim = l }

// Limits returns the configured budgets.
func (t *TokenizerBytes) Limits() limits.Limits { return t.lim }

// limitErr reports a budget breach as a typed, recoverable error (cold
// path — reached at most once per document).
func (t *TokenizerBytes) limitErr(resource string, limit, observed int) error {
	return &limits.Error{Resource: resource, Limit: int64(limit), Observed: int64(observed)}
}

// suspendable reports that running out of input here should suspend the
// scan (more data may arrive) rather than fail it.
func (t *TokenizerBytes) suspendable() bool { return t.streaming && !t.final }

// scanFrom returns how many bytes of the search region starting at the
// given window offset a previously suspended scan of this same construct
// already verified terminator-free (0 for a fresh scan). The region is
// identified by its absolute document offset, which is stable while the
// window slides.
func (t *TokenizerBytes) scanFrom(searchStart int) int {
	if t.base+searchStart == t.suspendAt {
		return t.scanned
	}
	return 0
}

// noteScan records, on suspension, that the search region starting at
// searchStart holds no terminator before len(data)-overlap (overlap =
// len(terminator)-1, the bytes a boundary-straddling terminator could
// begin in).
func (t *TokenizerBytes) noteScan(searchStart, overlap int) {
	n := len(t.data) - searchStart - overlap
	if n < 0 {
		n = 0
	}
	t.suspendAt = t.base + searchStart
	t.scanned = n
}

// internName interns a scanned name through the direct-mapped cache. The
// hash mixes the length with the first byte and the trailing word —
// enough to spread realistic vocabularies (enumerated names differ in
// their trailing digits) without walking the whole name on every probe.
func (t *TokenizerBytes) internName(b []byte) symtab.Sym {
	n := len(b)
	h := uint32(n)*0x9E3779B1 ^ uint32(b[0])<<24
	if n >= 4 {
		h ^= binary.LittleEndian.Uint32(b[n-4:])
	} else {
		h ^= uint32(b[n-1]) | uint32(b[n>>1])<<8
	}
	h *= 0x85EBCA77
	e := &t.nameCache[h>>(32-nameCacheBits)]
	if len(e.name) == n && string(b) == e.name {
		return e.sym
	}
	sym := t.tab.InternBytes(b)
	e.name, e.sym = t.tab.Name(sym), sym
	return sym
}

// syncIndex brings the structural index up to date with a grown window.
// Next guards the call with one integer compare per event; the sweep
// itself runs once per newly fed byte.
func (t *TokenizerBytes) syncIndex() error {
	t.idx.extend(t.data)
	if t.idx.huge {
		return t.errf("document window exceeds the 2 GiB structural index limit")
	}
	return nil
}

// Next returns the next event. The first event is always StartDocument
// and the last EndDocument; io.EOF follows. The Data slice of a Text
// event is only valid until the next call.
func (t *TokenizerBytes) Next() (ByteEvent, error) {
	var ev ByteEvent
	err := t.NextInto(&ev)
	return ev, err
}

// NextInto is Next writing the event into *ev, for a per-event loop that
// would otherwise copy every event out of Next and again into its consumer.
// *ev is left untouched when an error is returned.
func (t *TokenizerBytes) NextInto(ev *ByteEvent) error {
	if t.head < len(t.pending) && !t.tagActive {
		*ev = t.pending[t.head]
		t.head++
		if t.head == len(t.pending) {
			t.pending = t.pending[:0]
			t.head = 0
			t.stabilized = 0
		}
		return nil
	}
	if t.ended {
		return io.EOF
	}
	if !t.started {
		t.started = true
		*ev = ByteEvent{Kind: StartDocument}
		return nil
	}
	// From here on NextInto is the event assembler: it dispatches on the
	// construct's lead bytes once and hands off to the per-construct
	// scanner, which delimits the construct with index hops and single
	// bulk scans. The flat shape is deliberate — scanners return the
	// minimum (a symbol or a subslice) and the event is materialized
	// directly into the caller's *ev; this is the per-event hot path.
	if t.idx.synced != len(t.data) {
		if err := t.syncIndex(); err != nil {
			return err
		}
	}
	if t.tagActive {
		if t.breach != nil {
			return t.breach
		}
		// Resume the start tag suspended between attributes; pos sits at
		// the attribute boundary scanAttrs rewound to.
		t.tagActive = false
		sym := t.tagSym
		if err := t.scanAttrs(sym); err != nil {
			return err
		}
		*ev = ByteEvent{Kind: StartElement, Sym: sym, Off: t.tagOff}
		return nil
	}
	for {
		if t.pos >= len(t.data) {
			if t.suspendable() {
				return ErrNeedMoreData
			}
			if err := t.endOfInput(); err != nil {
				return err
			}
			*ev = ByteEvent{Kind: EndDocument}
			return nil
		}
		// mark is the construct's first byte: a suspended scan that has no
		// finer-grained resume state rewinds here (dropping any half-queued
		// attribute events) and rescans once more data arrives.
		mark := t.pos
		if t.data[t.pos] == '<' {
			t.pos++
			if t.pos >= len(t.data) {
				if t.suspendable() {
					t.pos = mark
					return ErrNeedMoreData
				}
				return t.errf("unterminated markup")
			}
			switch t.data[t.pos] {
			case '/':
				t.pos++
				sym, err := t.readEndTag()
				if err != nil {
					return t.rewind(mark, err)
				}
				*ev = ByteEvent{Kind: EndElement, Sym: sym, Off: t.base + t.pos}
				return nil
			case '?':
				t.pos++
				if err := t.skipUntil("?>"); err != nil {
					return t.rewind(mark, err)
				}
				continue
			case '!':
				t.pos++
				text, skip, err := t.readBang()
				if err != nil {
					return t.rewind(mark, err)
				}
				if skip {
					continue
				}
				*ev = ByteEvent{Kind: Text, Data: text}
				return nil
			default:
				t.tagOff = t.base + mark
				sym, err := t.readStartTag()
				if err != nil {
					return t.rewind(mark, err)
				}
				*ev = ByteEvent{Kind: StartElement, Sym: sym, Off: t.tagOff}
				return nil
			}
		}
		out, skip, err := t.readText()
		if err != nil {
			if err == ErrNeedMoreData {
				t.rescanned += t.pos - mark
				t.pos = mark
			}
			return err
		}
		if skip {
			continue
		}
		*ev = ByteEvent{Kind: Text, Data: out}
		return nil
	}
}

// endOfInput closes the document at the end of the final window: every
// element must be closed and a root must have been seen.
func (t *TokenizerBytes) endOfInput() error {
	if n := t.depth(); n > 0 {
		return t.errf("unexpected end of input: %d unclosed element(s), innermost <%s>", n, t.innermost())
	}
	if !t.rootSeen {
		return t.errf("document has no root element")
	}
	t.ended = true
	return nil
}

// depth is the number of open elements.
func (t *TokenizerBytes) depth() int { return len(t.stack) + len(t.spans) }

// outside reports that no element is open: the scan position is before or
// after the root element.
func (t *TokenizerBytes) outside() bool { return len(t.stack) == 0 && len(t.spans) == 0 }

// innermost names the innermost open element, for error messages.
func (t *TokenizerBytes) innermost() string {
	if n := len(t.spans); n > 0 {
		return string(t.data[t.spans[n-1].start:t.spans[n-1].end])
	}
	return t.tab.Name(t.stack[len(t.stack)-1])
}

// Offset returns the document offset of the scan position: every byte
// before it has been tokenized (or skimmed).
func (t *TokenizerBytes) Offset() int { return t.base + t.pos }

// Skim consumes the rest of a whole-buffer document without producing
// events. Everything Next checks is checked, by the same scanners, and a
// malformed or over-budget remainder fails with the error Next would have
// reached: tag balance by name, attribute syntax and duplicates, reference
// validity, content outside the root, a second root, comments, processing
// instructions and DOCTYPE, MaxDepth and MaxTokenBytes. Nothing is
// materialized: no event, no staged attribute events, no decoded text or
// attribute value, and the names of elements met while skimming are
// compared by bytes at their end tags, not interned. It is for a consumer
// that has no more use for events — every verdict is final — but still
// owes its caller a validated document.
//
// Skim may be entered after any event. Events Next had staged but not
// yet delivered (a tag's attributes, a self-closing tag's EndElement) were
// validated when their tag was scanned and are dropped. A nil error means
// the document ended well-formed; Next then reports io.EOF, and the
// EndDocument event is the caller's to account for.
//
// deepest is the deepest level among the events the caller was spared —
// those dropped at entry and those the remainder would have produced, up to
// the error if there is one — in the units an evaluator fed from Next
// counts: one per StartElement event open at once, so a self-closing tag is
// a level like any element and an attribute sits one below its element.
func (t *TokenizerBytes) Skim() (deepest int, err error) {
	t.skim = true
	t.started = true
	if t.head < len(t.pending) {
		// The staged events belong to the last tag scanned: its element is
		// on the stack unless the tag was self-closing (its EndElement is
		// then staged last), and its attributes sit one level below it.
		t.deepest = len(t.stack)
		if last := t.pending[len(t.pending)-1]; last.Kind == EndElement && !last.Attribute {
			t.deepest++
		}
		if len(t.pending)-t.head > 1 || t.pending[t.head].Attribute {
			t.deepest++
		}
	}
	t.pending, t.head, t.stabilized = t.pending[:0], 0, 0
	err = t.skimRest()
	return t.deepest, err
}

// skimRest is Next's dispatch loop with nothing returned.
func (t *TokenizerBytes) skimRest() error {
	if t.breach != nil {
		return t.breach
	}
	if t.idx.synced != len(t.data) {
		if err := t.syncIndex(); err != nil {
			return err
		}
	}
	for t.pos < len(t.data) {
		if t.data[t.pos] != '<' {
			if _, _, err := t.readText(); err != nil {
				return err
			}
			continue
		}
		t.pos++
		if t.pos >= len(t.data) {
			return t.errf("unterminated markup")
		}
		var err error
		switch t.data[t.pos] {
		case '/':
			t.pos++
			_, err = t.readEndTag()
		case '?':
			t.pos++
			err = t.skipUntil("?>")
		case '!':
			t.pos++
			_, _, err = t.readBang()
		default:
			_, err = t.readStartTag()
		}
		if err != nil {
			return err
		}
	}
	return t.endOfInput()
}

// rewind handles a markup scanner's error: a suspension without
// construct-level resume state rewinds to the construct's '<' and drops
// half-queued attribute events, so the next attempt rescans the whole
// construct. Cold path.
func (t *TokenizerBytes) rewind(mark int, err error) error {
	if err == ErrNeedMoreData && !t.tagActive {
		t.rescanned += t.pos - mark
		t.pos = mark
		t.pending = t.pending[:0]
		t.head = 0
		t.stabilized = 0
	}
	return err
}

// readText consumes character data up to the next '<' or end of input.
// The run is delimited by a single bulk IndexByte scan (resumed via the
// suspendAt memo across refills), and the structural index's
// entity-presence bit decides whether the decode path runs: runs without
// references are returned as input subslices untouched, runs with
// references decode by hopping the '&' position list.
func (t *TokenizerBytes) readText() ([]byte, bool, error) {
	start := t.pos
	skip := t.scanFrom(start)
	end := bytes.IndexByte(t.data[start+skip:], '<')
	if end < 0 {
		if t.suspendable() {
			// The run may continue into the next chunk — but an already
			// over-budget prefix cannot shrink, so breach now instead of
			// buffering the rest of an arbitrarily long run.
			if t.lim.MaxTokenBytes > 0 && len(t.data)-start > t.lim.MaxTokenBytes {
				return nil, false, t.limitErr("token-bytes", t.lim.MaxTokenBytes, len(t.data)-start)
			}
			t.noteScan(start, 0)
			return nil, false, ErrNeedMoreData
		}
		end = len(t.data) - start
	} else {
		end += skip
	}
	if t.lim.MaxTokenBytes > 0 && end > t.lim.MaxTokenBytes {
		return nil, false, t.limitErr("token-bytes", t.lim.MaxTokenBytes, end)
	}
	t.pos = start + end
	out := t.data[start:t.pos]
	if t.idx.amp.has(start, t.pos) {
		// A skim only validates the references — each decoded over the one
		// before it, the literal runs between them not copied — except
		// outside the root, where what the run decodes to decides whether
		// it is legal.
		discard := t.skim && !t.outside()
		t.textBuf = t.textBuf[:0]
		p := start
		for p < t.pos {
			// Bulk-copy the literal run up to the next indexed reference.
			a := t.idx.amp.next(p)
			if a < 0 || a >= t.pos {
				a = t.pos
			}
			if discard {
				t.textBuf = t.textBuf[:0]
			} else {
				t.textBuf = append(t.textBuf, t.data[p:a]...)
			}
			if a == t.pos {
				break
			}
			var err error
			t.textBuf, p, err = t.appendReference(t.textBuf, a+1)
			if err != nil {
				return nil, false, err
			}
		}
		out = t.textBuf
	}
	if t.outside() {
		if len(bytes.TrimSpace(out)) != 0 {
			return nil, false, t.errf("character data outside root element")
		}
		return nil, true, nil
	}
	if len(out) == 0 {
		return nil, true, nil
	}
	return out, false, nil
}

// appendReference decodes one entity or character reference starting just
// after '&' at offset p, appending the decoded bytes to buf. It returns
// the extended buffer and the offset past the ';'. A reference inside
// text may extend past the recorded text end only in error cases, so the
// bounds come from the full input.
func (t *TokenizerBytes) appendReference(buf []byte, p int) ([]byte, int, error) {
	start := p
	for {
		if p >= len(t.data) {
			if t.suspendable() {
				return nil, 0, ErrNeedMoreData
			}
			t.pos = len(t.data)
			return nil, 0, t.errf("unterminated entity reference")
		}
		if t.data[p] == ';' {
			break
		}
		if p-start > 10 {
			t.pos = p
			return nil, 0, t.errf("entity reference too long")
		}
		p++
	}
	name := t.data[start:p]
	p++ // consume ';'
	out, msg := appendReferenceName(buf, name)
	if msg != "" {
		t.pos = p
		return nil, 0, t.errf("%s", msg)
	}
	return out, p, nil
}

var cdataOpen = []byte("[CDATA[")

// readBang handles comments, CDATA and DOCTYPE after "<!".
func (t *TokenizerBytes) readBang() ([]byte, bool, error) {
	rest := t.data[t.pos:]
	if t.suspendable() && (len(rest) == 0 ||
		(rest[0] == '-' && len(rest) < 2) ||
		(rest[0] == '[' && len(rest) < 7 && bytes.HasPrefix(cdataOpen, rest))) {
		// "<!", "<!-", "<![", "<![CDA"... — the construct kind itself is
		// still ambiguous until more bytes arrive.
		return nil, false, ErrNeedMoreData
	}
	switch {
	case len(rest) >= 2 && rest[0] == '-' && rest[1] == '-':
		t.pos += 2
		return nil, true, t.skipUntil("-->")
	case len(rest) >= 7 && bytes.Equal(rest[:7], cdataOpen):
		t.pos += 7
		skip := t.scanFrom(t.pos)
		end := bytes.Index(t.data[t.pos+skip:], []byte("]]>"))
		if end < 0 {
			if t.suspendable() {
				if t.lim.MaxTokenBytes > 0 && len(t.data)-t.pos > t.lim.MaxTokenBytes {
					return nil, false, t.limitErr("token-bytes", t.lim.MaxTokenBytes, len(t.data)-t.pos)
				}
				t.noteScan(t.pos, 2)
				return nil, false, ErrNeedMoreData
			}
			t.pos = len(t.data)
			return nil, false, t.errf("unterminated CDATA section")
		}
		end += skip
		if t.lim.MaxTokenBytes > 0 && end > t.lim.MaxTokenBytes {
			return nil, false, t.limitErr("token-bytes", t.lim.MaxTokenBytes, end)
		}
		text := t.data[t.pos : t.pos+end]
		t.pos += end + 3
		if t.outside() {
			return nil, false, t.errf("CDATA outside root element")
		}
		if len(text) == 0 {
			return nil, true, nil
		}
		return text, false, nil
	default:
		return nil, true, t.skipDecl()
	}
}

// skipUntil advances past the first occurrence of terminator.
func (t *TokenizerBytes) skipUntil(terminator string) error {
	skip := t.scanFrom(t.pos)
	i := bytes.Index(t.data[t.pos+skip:], []byte(terminator))
	if i < 0 {
		if t.suspendable() {
			if t.lim.MaxTokenBytes > 0 && len(t.data)-t.pos > t.lim.MaxTokenBytes {
				return t.limitErr("token-bytes", t.lim.MaxTokenBytes, len(t.data)-t.pos)
			}
			t.noteScan(t.pos, len(terminator)-1)
			return ErrNeedMoreData
		}
		t.pos = len(t.data)
		return t.errf("unterminated construct (expected %q)", terminator)
	}
	if t.lim.MaxTokenBytes > 0 && skip+i > t.lim.MaxTokenBytes {
		return t.limitErr("token-bytes", t.lim.MaxTokenBytes, skip+i)
	}
	t.pos += skip + i + len(terminator)
	return nil
}

func (t *TokenizerBytes) skipDecl() error {
	for t.pos < len(t.data) {
		c := t.data[t.pos]
		t.pos++
		if c == '[' {
			return t.errf("DOCTYPE internal subsets are not supported")
		}
		if c == '>' {
			return nil
		}
	}
	if t.suspendable() {
		return ErrNeedMoreData
	}
	return t.errf("unterminated declaration")
}

// readName scans a name and returns it as an input subslice.
func (t *TokenizerBytes) readName() ([]byte, error) {
	start := t.pos
	for t.pos < len(t.data) && isNameByte(t.data[t.pos]) {
		t.pos++
	}
	if t.pos >= len(t.data) {
		if t.suspendable() {
			// Even a complete-looking name may continue in the next chunk.
			return nil, ErrNeedMoreData
		}
		return nil, t.errf("unterminated name")
	}
	if t.pos == start {
		return nil, t.errf("expected a name")
	}
	return t.data[start:t.pos], nil
}

// skipSpace advances past whitespace; false means end of input.
func (t *TokenizerBytes) skipSpace() bool {
	for t.pos < len(t.data) {
		switch t.data[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return true
		}
	}
	return false
}

// readStartTag parses <name attr="v" ...> or <name/>, queueing attribute
// child events and the self-closing endElement.
func (t *TokenizerBytes) readStartTag() (symtab.Sym, error) {
	name, err := t.readName()
	if err != nil {
		return 0, err
	}
	if t.rootSeen && t.outside() {
		return 0, t.errf("second root element <%s>", name)
	}
	var sym symtab.Sym
	if t.skim {
		t.tagName, t.tagAttrs = span{t.pos - len(name), t.pos}, false
	} else {
		sym = t.internName(name)
	}
	t.attrBuf = t.attrBuf[:0]
	t.attrEpoch++
	if t.attrEpoch == 0 {
		clear(t.attrSeen)
		t.attrEpoch = 1
	}
	return sym, t.scanAttrs(sym)
}

// tagNameOf names the start tag being scanned, for error messages: a
// skimmed tag has a span where a tokenized one has a symbol.
func (t *TokenizerBytes) tagNameOf(sym symtab.Sym) string {
	if t.skim {
		return string(t.data[t.tagName.start:t.tagName.end])
	}
	return t.tab.Name(sym)
}

// countLevels accounts for the levels the start tag now closing opens, in
// the units an evaluator counts them — its element, self-closing or not,
// and one more if it has attributes — and enforces MaxDepth on them: a
// breach falls on the documents, and carries the Observed level, an
// evaluator counting StartElement events would report, at the element when
// it is itself too deep, at its first attribute when only they are. That
// second breach lies one event after the element's StartElement, which an
// evaluator sees and may match on (under LimitAbstain those verdicts
// stand), so Next delivers the event first and fails on the following call;
// a skim has no event to deliver and fails at once. Called only while
// skimming or under a depth budget: tokenizing without one, the evaluator
// does the counting.
func (t *TokenizerBytes) countLevels() error {
	elem, limit := t.depth()+1, t.lim.MaxDepth
	if limit > 0 && elem > limit {
		return t.limitErr("depth", limit, elem)
	}
	t.deepest = max(t.deepest, elem)
	if !t.tagAttrs && len(t.pending) == 0 {
		return nil
	}
	if limit <= 0 || elem < limit {
		t.deepest = max(t.deepest, elem+1)
		return nil
	}
	t.breach = t.limitErr("depth", limit, elem+1)
	if t.skim {
		return t.breach
	}
	t.pending, t.head, t.stabilized = t.pending[:0], 0, 0
	t.tagActive = true // routes the next call to the breach
	return nil
}

// suspendTag suspends the start tag at an attribute boundary: pos rewinds
// only to the current attribute's first byte (attrMark), the attributes
// already staged in pending/attrBuf are kept, and the next call resumes
// scanAttrs there. This is what keeps a many-attribute tag spanning k
// chunks at O(tag) total scanning instead of O(k·tag). Staged attribute
// values still aliasing the window are copied into attrBuf here — the
// refill is about to slide the window — so stabilization costs nothing
// on tags that never suspend.
func (t *TokenizerBytes) suspendTag(sym symtab.Sym, attrMark int) error {
	// The staged attribute state of one tag grows with the tag itself;
	// bound it like any other single token so a pathological
	// many-attribute tag cannot accumulate past the budget across
	// suspensions.
	if t.lim.MaxTokenBytes > 0 && len(t.attrBuf) > t.lim.MaxTokenBytes {
		return t.limitErr("token-bytes", t.lim.MaxTokenBytes, len(t.attrBuf))
	}
	for i := t.stabilized; i < len(t.pending); i++ {
		if t.pending[i].Kind == Text && len(t.pending[i].Data) > 0 {
			vstart := len(t.attrBuf)
			t.attrBuf = append(t.attrBuf, t.pending[i].Data...)
			t.pending[i].Data = t.attrBuf[vstart:]
		}
	}
	t.stabilized = len(t.pending)
	t.rescanned += t.pos - attrMark
	t.pos = attrMark
	t.tagActive = true
	t.tagSym = sym
	return ErrNeedMoreData
}

// scanAttrs scans the attribute list of the start tag for sym, from an
// attribute boundary to the closing '>' or '/>'. Each completed
// attribute stages its three child events in pending; on success the
// caller emits the element's StartElement, and Next then drains the
// staged events.
func (t *TokenizerBytes) scanAttrs(sym symtab.Sym) error {
	for {
		attrMark := t.pos
		if !t.skipSpace() {
			if t.suspendable() {
				return t.suspendTag(sym, attrMark)
			}
			return t.errf("unterminated start tag <%s", t.tagNameOf(sym))
		}
		c := t.data[t.pos]
		if c == '>' {
			t.pos++
			if t.skim || t.lim.MaxDepth > 0 {
				if err := t.countLevels(); err != nil {
					return err
				}
			}
			if t.skim {
				t.spans = append(t.spans, t.tagName)
			} else {
				t.stack = append(t.stack, sym)
			}
			return nil
		}
		if c == '/' {
			t.pos++
			if t.pos >= len(t.data) && t.suspendable() {
				return t.suspendTag(sym, attrMark)
			}
			if t.pos >= len(t.data) || t.data[t.pos] != '>' {
				return t.errf("malformed self-closing tag <%s", t.tagNameOf(sym))
			}
			t.pos++
			if t.skim || t.lim.MaxDepth > 0 {
				if err := t.countLevels(); err != nil {
					return err
				}
			}
			// <n/> is shorthand for <n></n>: emit start now, queue end
			// after any queued attribute events.
			if t.outside() {
				t.rootSeen = true
			}
			if !t.skim && t.breach == nil {
				t.pending = append(t.pending, ByteEvent{Kind: EndElement, Sym: sym, Off: t.base + t.pos})
			}
			return nil
		}
		aname, err := t.readName()
		if err != nil {
			if err == ErrNeedMoreData {
				err = t.suspendTag(sym, attrMark)
			}
			return err
		}
		asym := t.internName(aname)
		if !t.skipSpace() {
			if t.suspendable() {
				return t.suspendTag(sym, attrMark)
			}
			return t.errf("unterminated attribute %s", aname)
		}
		if t.data[t.pos] != '=' {
			return t.errf("expected '=' after attribute name %s", aname)
		}
		t.pos++
		if !t.skipSpace() {
			if t.suspendable() {
				return t.suspendTag(sym, attrMark)
			}
			return t.errf("unterminated attribute %s", aname)
		}
		quote := t.data[t.pos]
		if quote != '"' && quote != '\'' {
			return t.errf("expected quoted value for attribute %s", aname)
		}
		t.pos++
		val, err := t.readAttrValue(aname, quote)
		if err != nil {
			if err == ErrNeedMoreData {
				err = t.suspendTag(sym, attrMark)
			}
			return err
		}
		if int(asym) >= len(t.attrSeen) {
			t.attrSeen = append(t.attrSeen, make([]uint32, int(asym)+1-len(t.attrSeen))...)
		}
		if t.attrSeen[asym] == t.attrEpoch {
			return t.errf("duplicate attribute %s", aname)
		}
		t.attrSeen[asym] = t.attrEpoch
		if t.skim {
			t.tagAttrs = true
		} else {
			t.pending = append(t.pending,
				ByteEvent{Kind: StartElement, Sym: asym, Attribute: true, Off: t.base + attrMark},
				ByteEvent{Kind: Text, Data: val, Off: t.base + attrMark},
				ByteEvent{Kind: EndElement, Sym: asym, Attribute: true, Off: t.base + t.pos},
			)
		}
	}
}

// readAttrValue scans a quoted attribute value after the opening quote.
// The closing quote is one bulk IndexByte scan (resumed via the
// suspendAt memo across refills), and the structural index's
// entity-presence bit gates the decode path. Reference-free values are
// input subslices (suspendTag copies them into attrBuf if the tag later
// suspends — queued Text events must survive window compaction); values
// with references decode into attrBuf, which survives until the next
// start tag, long enough for the queued events to be delivered.
func (t *TokenizerBytes) readAttrValue(aname []byte, quote byte) ([]byte, error) {
	start := t.pos
	skip := t.scanFrom(start)
	end := bytes.IndexByte(t.data[start+skip:], quote)
	if end < 0 {
		if t.suspendable() {
			if t.lim.MaxTokenBytes > 0 && len(t.data)-start > t.lim.MaxTokenBytes {
				return nil, t.limitErr("token-bytes", t.lim.MaxTokenBytes, len(t.data)-start)
			}
			t.noteScan(start, 0)
			return nil, ErrNeedMoreData
		}
		t.pos = len(t.data)
		return nil, t.errf("unterminated attribute value for %s", aname)
	}
	end += start + skip
	if t.lim.MaxTokenBytes > 0 && end-start > t.lim.MaxTokenBytes {
		return nil, t.limitErr("token-bytes", t.lim.MaxTokenBytes, end-start)
	}
	raw := t.data[start:end]
	if lt := bytes.IndexByte(raw, '<'); lt >= 0 {
		t.pos = start + lt
		return nil, t.errf("'<' in attribute value for %s", aname)
	}
	t.pos = end + 1 // consume closing quote
	if !t.idx.amp.has(start, end) {
		return raw, nil
	}
	vstart := len(t.attrBuf)
	p := start
	for p < end {
		a := t.idx.amp.next(p)
		if a < 0 || a >= end {
			a = end
		}
		if t.skim {
			// Only the references are checked, as in readText.
			t.attrBuf = t.attrBuf[:vstart]
		} else {
			t.attrBuf = append(t.attrBuf, t.data[p:a]...)
		}
		if a == end {
			break
		}
		var err error
		t.attrBuf, p, err = t.appendReference(t.attrBuf, a+1)
		if err != nil {
			return nil, err
		}
	}
	return t.attrBuf[vstart:], nil
}

// readEndTag parses an end tag after "</". The fast path handles the
// overwhelmingly common shape — "</name>" exactly matching the open
// element — with one memeq against the innermost open name (the interned
// top of stack, or while skimming the start tag's own bytes) and no
// symbol-table probe at all; anything else (whitespace before '>',
// window boundary, mismatch) falls through to the general scanner.
// Elements opened by a skim close before the ones that were open when it
// began. A skimmed element has no symbol; its end tag returns 0.
func (t *TokenizerBytes) readEndTag() (symtab.Sym, error) {
	if n := len(t.spans); n > 0 {
		name := t.data[t.spans[n-1].start:t.spans[n-1].end]
		if end := t.pos + len(name); end < len(t.data) && t.data[end] == '>' && bytes.Equal(t.data[t.pos:end], name) {
			t.pos = end + 1
			t.spans = t.spans[:n-1]
			if n == 1 && len(t.stack) == 0 {
				t.rootSeen = true
			}
			return 0, nil
		}
	} else if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		name := t.tab.Name(top)
		if end := t.pos + len(name); end < len(t.data) && t.data[end] == '>' && string(t.data[t.pos:end]) == name {
			t.pos = end + 1
			t.stack = t.stack[:n-1]
			if n == 1 {
				t.rootSeen = true
			}
			return top, nil
		}
	}
	name, err := t.readName()
	if err != nil {
		return 0, err
	}
	if !t.skipSpace() {
		if t.suspendable() {
			return 0, ErrNeedMoreData
		}
		return 0, t.errf("unterminated end tag </%s", name)
	}
	if t.data[t.pos] != '>' {
		return 0, t.errf("malformed end tag </%s", name)
	}
	t.pos++
	if t.outside() {
		return 0, t.errf("end tag </%s> with no open element", name)
	}
	var sym symtab.Sym
	var matches bool
	if n := len(t.spans); n > 0 {
		matches = bytes.Equal(name, t.data[t.spans[n-1].start:t.spans[n-1].end])
	} else {
		sym = t.stack[len(t.stack)-1]
		matches = string(name) == t.tab.Name(sym)
	}
	if !matches {
		return 0, t.errf("end tag </%s> does not match open element <%s>", name, t.innermost())
	}
	if n := len(t.spans); n > 0 {
		t.spans = t.spans[:n-1]
	} else {
		t.stack = t.stack[:len(t.stack)-1]
	}
	if t.outside() {
		t.rootSeen = true
	}
	return sym, nil
}

// ParseBytes tokenizes a complete document with a fresh TokenizerBytes
// and materializes the stream as []Event (attribute events expanded). A
// convenience for tests; the hot path drives the tokenizer directly.
func ParseBytes(data []byte) ([]Event, error) {
	tok := NewTokenizerBytes(data, nil)
	var out []Event
	for {
		e, err := tok.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e.Event(tok.tab))
	}
}
