package sax

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"streamxpath/internal/bytestr"
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
// table as they are scanned (a warm intern hits the name cache — one 64-bit
// load and compare, no map probe), character data is returned as a
// subslice of the input wherever no entity decoding is needed and
// otherwise decoded into a reusable scratch buffer, and attributes are
// folded into attribute child events at scan time so no per-element
// attribute list is built.
//
// Scanning is one pass with one cursor. The dispatch loops and the
// per-construct scanners work on a local copy of the window and the
// position — t.pos is committed once per construct, or where a scan fails
// or suspends — so the cursor lives in a register rather than being loaded
// and stored through the receiver per byte. Text runs, attribute values,
// comments and CDATA sections are delimited by one anchored bulk
// IndexByte/Index each; a delimited run is then searched for '&' by one
// more IndexByte bounded by the run (which the first scan has just pulled
// into L1), and only a hit enters the decode path. Names are classified by
// a 256-entry table and keyed by their word (nameWord): their first eight
// bytes in one little-endian load, masked to their length.
//
// The drive loops take events a batch at a time (NextBatch), and a batch
// has a kernel in front of the scanners (eventKernel): inside the root, one
// loop on a local cursor and a local copy of the open-element stack writes
// the events of plain markup straight into the caller's slice — a text run
// the word-at-a-time sweep (textDelim) ends at '<' as an input subslice,
// <name> and <name/> resolved through the name cache by their word, both
// events of <name/> at once, and </name> matched against the innermost
// element by one masked compare of its word and '>'. It stops in front of
// anything else, and NextInto's scanners take that construct from its
// first byte, so they remain the one authority on errors, offsets and
// messages, and on suspension in streaming mode.
//
// Skim has a kernel of its own (skimKernel): one loop on a local cursor
// that sweeps a text run eight bytes at a time for the first '<' or '&'
// (textDelim), steps over the references skipReference knows, closes
// <name> and <name/> on the name-class table without interning, and
// matches </name> against the innermost skimmed element by its bytes, with
// the depth and token budgets enforced as it goes. Whatever else it meets —
// attributes, comments, PIs, CDATA, DOCTYPE, text outside the root, a
// reference it does not know, any other end tag — it hands to the scanners
// Next uses, from the construct's first byte, so they remain the one
// authority on errors. A long remainder is split at tag boundaries into
// pieces that helper goroutines run the same kernel over, and the skim
// adopts the pieces they finished (skim_pieces.go).
//
// It accepts exactly the syntax of the string Tokenizer and produces the
// same event stream (modulo attribute expansion — apply ExpandAttributes to
// the string tokenizer's output to compare), which the differential tests
// and the fuzz target enforce; the string Tokenizer is only that reference
// side. A TokenizerBytes requires the document in memory; callers that need
// bounded-memory parsing use StreamTokenizer, which runs this tokenizer
// over a window of the input.
//
// A TokenizerBytes is reusable: Reset points it at the next document
// while keeping its scratch buffers and symbol table, which is what
// makes steady-state matching loops allocation-free.
type TokenizerBytes struct {
	data []byte
	pos  int
	tab  *symtab.Table

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
	// whose element is tagElem, pending holds the attribute events staged
	// so far, and the next call re-enters scanAttrs there instead of
	// rewinding to '<'. tagOff is the absolute document offset of the
	// tag's '<' — recorded up front because the suspended resume path no
	// longer knows the construct's mark (and the window may have slid).
	tagActive bool
	tagElem   openElem
	tagOff    int

	// rescanned counts input bytes re-examined after suspension rewinds —
	// the chunked parse's deviation from single-pass scanning. Tests pin
	// it to O(document) on pathological chunk splits.
	rescanned int

	started  bool
	ended    bool
	rootSeen bool
	stack    []openElem

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
	// staged is the most events pending has held since the last Release:
	// the entries that may still point into a document.
	staged int

	// textBuf holds entity-decoded character data; attrBuf holds decoded
	// (and, in streaming mode, window-stabilized) attribute values per
	// start tag.
	textBuf []byte
	attrBuf []byte

	// attrSlots detects duplicate attributes in O(1) per attribute: it is
	// an open-addressed table of the attribute names of the start tag being
	// scanned (seenAttr), instead of a linear scan of the attributes so far
	// (quadratic on many-attribute tags). A slot is stamped with the epoch
	// of its tag, which advances per start tag that has attributes, so
	// nothing is cleared between tags (on uint32 wraparound the table is);
	// it doubles when a tag fills half of it, so its size follows the
	// largest tag, not the vocabulary. A tokenized name is keyed by its
	// symbol; a skim interns nothing, so a skimmed one is keyed by its bytes.
	attrSlots []attrSlot
	attrEpoch uint32

	// lim holds the per-document resource budgets (zero value: none).
	// Depth is enforced where a start tag closes (countLevels); token size at
	// every unbounded scan — including the suspended-scan paths, where the
	// budget is what stops an untermined giant construct from buffering
	// whole before its terminator ever arrives. Budgets survive Reset:
	// they configure the tokenizer, not the document.
	lim limits.Limits

	// nameCache sits in front of the symbol table: element and attribute
	// names repeat heavily, and a hit (one word compare) is several times
	// cheaper than an interning map probe. Misses fall through to
	// InternBytes, counted in nameMisses.
	nameCache  *nameCache
	nameMisses int

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
	// deepest level the skim has reached, tagAttrs how many attributes the
	// start tag being scanned has so far, and breach a depth breach found at
	// an attribute level, held back for one call.
	deepest  int
	tagAttrs int
	breach   error

	// A skim of a long enough remainder is split into pieces that helper
	// goroutines validate ahead of the cursor (see skimRest); job holds them.
	// pieceSize, when set, forces the split at that size with the cursor as
	// the only helper, before its own pass (the differential tests' seam).
	// skimPieces counts the pieces the last skim adopted.
	job        *skimJob
	pieceSize  int
	skimPieces int
}

// openElem is an element open on the tokenizer's stack: its symbol, and
// its name's word (nameWord) and length, which close its end tag without a
// symbol-table read.
type openElem struct {
	word uint64
	sym  symtab.Sym
	n    uint32
}

// nameSlotBits sizes the name cache: two tables of 1<<nameSlotBits slots.
const nameSlotBits = 8

// nameCache is a two-choice (cuckoo) table of names keyed by word and
// length: a name sits in its slot of either table, picked by two slices of
// one multiplicative hash (nameHash), so a lookup is at most two probes,
// and an insertion moves a resident name to its other slot rather than
// evicting it. A slot of length 0 is empty: no name is. Its size is fixed,
// 8 KiB whatever the vocabulary, and a vocabulary of a hundred or two
// names stays resident where a direct-mapped table of the same size would
// hold some of them in colliding pairs that evict each other on every use.
type nameCache [2][1 << nameSlotBits]openElem

// nameHash hashes a name by its key and length. A name's key is its word,
// and for a name longer than eight bytes its word and its last eight bytes
// (longKey), so that long names sharing a prefix spread over the table.
func nameHash(key uint64, n int) uint64 { return (key ^ uint64(n)) * 0x9E3779B97F4A7C15 }

// longKey is the key of a name longer than eight bytes whose word is w and
// whose last eight bytes, as a little-endian word, are last.
func longKey(w, last uint64) uint64 { return w ^ bits.RotateLeft64(last, 31) }

// slot returns the slot of the name hashed to h in table i.
func (c *nameCache) slot(i int, h uint64) *openElem {
	return &c[i&1][h>>(64-nameSlotBits-8*uint(i&1))&(1<<nameSlotBits-1)]
}

// hit returns the name of n <= 8 bytes whose word is w from its
// first-choice slot when it is there, which one compare decides, and an
// element of length 0 otherwise: the inlined probe in front of name, which
// it leaves the rest of the lookup to.
func (c *nameCache) hit(w uint64, n int) openElem {
	if e := c.slot(0, nameHash(w, n)); e.word == w && int(e.n) == n {
		return *e
	}
	return openElem{}
}

// nameWord returns the word a name of n bytes at data[s:] is keyed and
// compared by: its first eight bytes as a little-endian word, masked to the
// name's length. With its length, a name of up to eight bytes is its word,
// whatever bytes it holds (NUL is a name byte). Near the end of data the
// word of a short name is assembled byte by byte; the byte after a name is
// always in data, so a name of eight bytes or more always has a whole word.
func nameWord(data []byte, s, n int) uint64 {
	if s+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[s:]) & (^uint64(0) >> (64 - 8*min(n, 8)))
	}
	var w uint64
	for i := min(n, 8) - 1; i >= 0; i-- {
		w = w<<8 | uint64(data[s+i])
	}
	return w
}

// span is a half-open range of window offsets.
type span struct{ start, end int }

// attrSlot is one attribute name of the tag whose epoch it carries: its
// symbol when the tag is tokenized, its span when the tag is skimmed.
type attrSlot struct {
	epoch, hash uint32
	sym         symtab.Sym
	name        span
}

// Name byte classes. The table is the reference tokenizer's two predicates
// tabulated, so the tokenizers cannot disagree on what a name is.
const (
	className  uint8 = 1 << iota // may appear in a name
	classStart                   // may begin one
)

var nameClass = func() (tab [256]uint8) {
	for c := range tab {
		if isNameByte(byte(c)) {
			tab[c] |= className
		}
		if isNameStart(byte(c)) {
			tab[c] |= classStart
		}
	}
	return tab
}()

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
		nameCache: new(nameCache),
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
	t.tagAttrs = 0
	t.breach = nil
	t.skimPieces = 0
	t.pending = t.pending[:0]
	t.head = 0
	t.stabilized = 0
	t.textBuf = t.textBuf[:0]
	t.attrBuf = t.attrBuf[:0]
}

// Release drops every reference the tokenizer holds into the document it
// read — the window and the events it staged — so that a tokenizer kept
// between documents does not keep its last one alive. Entries are cleared
// only as far as the document staged them. The tokenizer reads nothing
// until the next Reset.
func (t *TokenizerBytes) Release() {
	clear(t.pending[:t.staged])
	t.pending, t.head, t.stabilized, t.staged = t.pending[:0], 0, 0, 0
	t.data = nil
}

// Rescanned reports the total input bytes re-examined after suspension
// rewinds so far. Whole-buffer parses report 0; a chunked parse stays
// O(document) regardless of how chunk boundaries fall, because text,
// value and terminator scans resume from the suspendAt memo, and suspended
// start tags resume at the attribute boundary instead of the '<'.
func (t *TokenizerBytes) Rescanned() int { return t.rescanned }

func (t *TokenizerBytes) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.base + t.pos, Msg: fmt.Sprintf(format, args...)}
}

// errAt commits the cursor at p, where a scanner working on a local cursor
// found the input malformed, and reports the error there.
func (t *TokenizerBytes) errAt(p int, format string, args ...any) error {
	t.pos = p
	return t.errf(format, args...)
}

// needMore commits the cursor at p, where a scan ran out of window, and
// suspends it: the caller rewinds from there to its resume point, and the
// distance is what Rescanned counts.
func (t *TokenizerBytes) needMore(p int) error {
	t.pos = p
	return ErrNeedMoreData
}

// SetLimits configures the per-document resource budgets (the zero value
// disables them). Limits persist across Reset.
func (t *TokenizerBytes) SetLimits(l limits.Limits) { t.lim = l }

// Limits returns the configured budgets.
func (t *TokenizerBytes) Limits() limits.Limits { return t.lim }

// limitErr reports a budget breach as a typed, recoverable error (cold
// path — reached at most once per document).
func limitErr(resource string, limit, observed int) error {
	return &limits.Error{Resource: resource, Limit: int64(limit), Observed: int64(observed)}
}

// tokenTooLong commits the cursor at p, the first byte of a token (or the
// stretch of one a scan searches) that has reached n bytes, and reports the
// MaxTokenBytes breach.
func (t *TokenizerBytes) tokenTooLong(p, n int) error {
	t.pos = p
	return limitErr("token-bytes", t.lim.MaxTokenBytes, n)
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

// name interns the name data[s:q] through the name cache and returns it as
// an element to open.
func (t *TokenizerBytes) name(data []byte, s, q int) openElem {
	n := q - s
	w := nameWord(data, s, n)
	key := w
	if n > 8 {
		key = longKey(w, binary.LittleEndian.Uint64(data[q-8:]))
	}
	h := nameHash(key, n)
	for i := range 2 {
		if e := t.nameCache.slot(i, h); e.word == w && int(e.n) == n && (n <= 8 || t.tail(e.sym, data[s+8:q])) {
			return *e
		}
	}
	t.nameMisses++
	el := openElem{w, t.tab.InternBytes(data[s:q]), uint32(n)}
	t.cacheName(el, h)
	return el
}

// tail reports that the bytes of a name past its word, b, are those of sym's.
func (t *TokenizerBytes) tail(sym symtab.Sym, b []byte) bool {
	return t.tab.Name(sym)[8:] == string(b)
}

// cacheName enters a name that missed, hashed to h, into the name cache: in
// the first of its two slots that is empty, or else in its first slot, the
// name there moving on to its other slot, and so on for a bounded number of
// moves, after which the last name moved is dropped.
func (t *TokenizerBytes) cacheName(el openElem, h uint64) {
	c := t.nameCache
	if e := c.slot(1, h); c.slot(0, h).n != 0 && e.n == 0 {
		*e = el
		return
	}
	for i, move := 0, 0; move < 16; i, move = 1-i, move+1 {
		e := c.slot(i, h)
		prev := *e
		*e = el
		if prev.n == 0 {
			return
		}
		el, h = prev, t.hashOf(prev)
	}
}

// hashOf is the hash name gave the cached name el.
func (t *TokenizerBytes) hashOf(el openElem) uint64 {
	key := el.word
	if el.n > 8 {
		name := t.tab.Name(el.sym)
		var last uint64
		for i := len(name) - 1; i >= len(name)-8; i-- {
			last = last<<8 | uint64(name[i])
		}
		key = longKey(key, last)
	}
	return nameHash(key, int(el.n))
}

// endTag reports that the end tag whose name starts at p closes e: e's name
// follows, then '>'. A name of up to seven bytes and its '>' take one masked
// compare, a longer name one compare of its word, and the rest.
func (t *TokenizerBytes) endTag(e *openElem, data []byte, p int) bool {
	l := uint(e.n) * 8
	if l < 64 && p+8 <= len(data) {
		return (binary.LittleEndian.Uint64(data[p:])^(e.word|'>'<<l))&(1<<(l+8)-1) == 0
	}
	end := p + int(e.n)
	if end >= len(data) || data[end] != '>' {
		return false
	}
	if l < 64 { // a short name near the window's end
		return nameWord(data, p, int(e.n)) == e.word
	}
	return binary.LittleEndian.Uint64(data[p:]) == e.word && (e.n == 8 || t.tail(e.sym, data[p+8:end]))
}

// isNamed reports that data[s:q] is the name of the open element e.
func (t *TokenizerBytes) isNamed(e openElem, data []byte, s, q int) bool {
	n := q - s
	return n == int(e.n) && nameWord(data, s, n) == e.word && (n <= 8 || t.tail(e.sym, data[s+8:q]))
}

// Next returns the next event. The first event is always StartDocument
// and the last EndDocument; io.EOF follows. The Data slice of a Text
// event is only valid until the next call. It reads one event at a time;
// a loop over a whole document calls NextBatch.
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
	// scanner, which delimits the construct on a local cursor and commits
	// t.pos when it is done. Scanners return the minimum (a symbol or a
	// subslice) and the event is materialized directly into the caller's
	// *ev. The plain constructs of a document's body rarely get here: the
	// drive loops call NextBatch, whose kernel takes them inline, and
	// NextInto is called for what it leaves — the constructs that need a
	// scanner's checks, decoding or resume state.
	if t.tagActive {
		if t.breach != nil {
			return t.breach
		}
		// Resume the start tag suspended between attributes; pos sits at
		// the attribute boundary scanAttrs rewound to.
		t.tagActive = false
		el := t.tagElem
		if err := t.scanAttrs(el, t.pos); err != nil {
			return err
		}
		*ev = ByteEvent{Kind: StartElement, Sym: el.sym, Off: t.tagOff}
		return nil
	}
	data := t.data
	for {
		// mark is the construct's first byte: a suspended scan that has no
		// finer-grained resume state rewinds here (dropping any half-queued
		// attribute events) and rescans once more data arrives.
		mark := t.pos
		if mark >= len(data) {
			if t.suspendable() {
				return ErrNeedMoreData
			}
			if err := t.endOfInput(); err != nil {
				return err
			}
			*ev = ByteEvent{Kind: EndDocument}
			return nil
		}
		if data[mark] != '<' {
			out, skip, err := t.readText(mark)
			if err != nil {
				return t.rewind(mark, err)
			}
			if skip {
				continue
			}
			*ev = ByteEvent{Kind: Text, Data: out}
			return nil
		}
		if mark+1 >= len(data) {
			if t.suspendable() {
				return ErrNeedMoreData
			}
			return t.errAt(mark+1, "unterminated markup")
		}
		switch data[mark+1] {
		case '/':
			sym, err := t.readEndTag(mark + 2)
			if err != nil {
				return t.rewind(mark, err)
			}
			*ev = ByteEvent{Kind: EndElement, Sym: sym, Off: t.base + t.pos}
			return nil
		case '?':
			if err := t.skipUntil("?>", mark+2); err != nil {
				return t.rewind(mark, err)
			}
		case '!':
			text, skip, err := t.readBang(mark + 2)
			if err != nil {
				return t.rewind(mark, err)
			}
			if !skip {
				*ev = ByteEvent{Kind: Text, Data: text}
				return nil
			}
		default:
			t.tagOff = t.base + mark
			sym, err := t.readStartTag(mark + 1)
			if err != nil {
				return t.rewind(mark, err)
			}
			*ev = ByteEvent{Kind: StartElement, Sym: sym, Off: t.tagOff}
			return nil
		}
	}
}

// BatchSize is the batch the drive loops hand NextBatch: large enough that
// the call is paid once per several dozen events, small enough that a
// batch stays in L1.
const BatchSize = 64

// NextBatch is NextInto in bulk: it writes the next events into evs and
// returns how many it wrote. evs[:n] are the events n calls of NextInto
// would have delivered, and err is what the call after them would have
// returned (nil, io.EOF, ErrNeedMoreData or a scanner's error), so the
// caller consumes evs[:n] before looking at err. The batch ends when evs is
// full, and after an event whose Data is decoded or stabilized rather than
// a subslice of the input, since the scratch buffer it lives in is
// overwritten by a later scan. Every Data in evs[:n] is valid until the
// next call.
//
// Inside the root, between constructs that need no scanner, NextBatch runs
// eventKernel; whatever the kernel leaves — from the first byte of the
// construct it stopped at — goes to NextInto, which stays the one source of
// errors.
func (t *TokenizerBytes) NextBatch(evs []ByteEvent) (int, error) {
	n := 0
	for n < len(evs) {
		// The kernel does not resume a text run suspended across a refill:
		// readText rescans it from its suspendAt memo.
		if len(t.stack) > 0 && len(t.pending) == 0 && !t.tagActive && !t.skim && t.base+t.pos != t.suspendAt {
			if n = t.eventKernel(evs, n); n == len(evs) {
				break
			}
		}
		ev := &evs[n]
		if err := t.NextInto(ev); err != nil {
			return n, err
		}
		n++
		if len(ev.Data) > 0 && !t.inWindow(ev.Data) {
			break
		}
	}
	return n, nil
}

// eventKernel is NextBatch's fast path: one loop on a local cursor and a
// local copy of the stack over the constructs that make up nearly all of a
// document's body — a text run inside the root that ends at '<' with no
// reference in it, <name>, <name/>, and </name> closing the innermost
// element — writing their events into evs from n on. It returns the new
// count; short of a full evs it has stopped, t.pos committed, at the
// first byte of a construct it leaves to the scanners: a reference,
// attributes, comments, PIs, CDATA, DOCTYPE, text outside the root, any
// other end tag, a construct the window cuts off (the scanners suspend it),
// one that would breach MaxDepth or MaxTokenBytes (the scanners report it),
// and a <name/> whose EndElement belongs in the next batch (NextInto stages
// it). A start tag's name is resolved by its word through the name cache
// (name), as the scanners resolve it, so the symbols are theirs; an end tag
// of up to seven bytes of name is closed by one masked compare of the
// innermost element's word and '>', a longer one by its word and the rest.
func (t *TokenizerBytes) eventKernel(evs []ByteEvent, n int) int {
	data, stack, base, p := t.data, t.stack, t.base, t.pos
	maxDepth, maxToken, deepest := t.lim.MaxDepth, t.lim.MaxTokenBytes, t.deepest
loop:
	for n < len(evs) && len(stack) > 0 && p < len(data) {
		if data[p] != '<' {
			q := textDelim(data, p)
			if q == len(data) || data[q] != '<' || maxToken > 0 && q-p > maxToken {
				break
			}
			evs[n] = ByteEvent{Kind: Text, Data: data[p:q]}
			n, p = n+1, q
		} else if p+1 == len(data) {
			break
		} else if c := data[p+1]; c == '/' {
			top := &stack[len(stack)-1]
			if l := uint(top.n) * 8; l < 64 && p+10 <= len(data) {
				// endTag's masked compare, inlined.
				if (binary.LittleEndian.Uint64(data[p+2:])^(top.word|'>'<<l))&(1<<(l+8)-1) != 0 {
					break
				}
			} else if !t.endTag(top, data, p+2) {
				break
			}
			p += 3 + int(top.n)
			evs[n] = ByteEvent{Kind: EndElement, Sym: top.sym, Off: base + p}
			stack = stack[:len(stack)-1]
			n++
		} else {
			if nameClass[c]&classStart == 0 {
				break
			}
			// The name's word is loaded once: the screen ends the name at its
			// first flag when that byte is '>' or '/' (the name starts at s,
			// so its first byte is neither), and the word masked below the
			// flag is its key in the name cache. Otherwise the table scans it.
			s, q := p+1, 0
			var el openElem
			if s+8 < len(data) {
				w := binary.LittleEndian.Uint64(data[s:])
				m := nameScreen(w)
				q = s + bits.TrailingZeros64(m)>>3
				if d := data[q]; d == '>' || d == '/' {
					el = t.nameCache.hit(w&(m&-m>>7-1), q-s)
				} else {
					q = nameEnd(data, q)
				}
			} else {
				q = nameEnd(data, s+1)
			}
			var close int
			switch {
			case q == len(data):
				break loop
			case data[q] == '>':
				close = q + 1
			case data[q] == '/' && q+1 < len(data) && data[q+1] == '>':
				close = q + 2
				if n+1 == len(evs) {
					break loop
				}
			default:
				break loop
			}
			if maxDepth > 0 {
				// countLevels's accounting for a tag without attributes.
				elem := len(stack) + 1
				if elem > maxDepth {
					break
				}
				deepest = max(deepest, elem)
			}
			if el.n == 0 {
				el = t.name(data, s, q)
			}
			evs[n] = ByteEvent{Kind: StartElement, Sym: el.sym, Off: base + p}
			n++
			if close == q+1 {
				stack = append(stack, el)
			} else {
				evs[n] = ByteEvent{Kind: EndElement, Sym: el.sym, Off: base + close}
				n++
			}
			p = close
		}
	}
	t.pos, t.stack, t.deepest = p, stack, deepest
	if len(stack) == 0 { // entered inside the root, so the root has closed
		t.rootSeen = true
	}
	return n
}

// inWindow reports that b, which is not empty, is a subslice of the window:
// a subslice of data from offset i has the capacity cap(data)-i.
func (t *TokenizerBytes) inWindow(b []byte) bool {
	w := t.data[:cap(t.data)]
	i := cap(w) - cap(b)
	return i >= 0 && i < len(w) && &w[i] == &b[0]
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
	return t.tab.Name(t.stack[len(t.stack)-1].sym)
}

// Offset returns the document offset of the scan position: every byte
// before it has been tokenized (or skimmed).
func (t *TokenizerBytes) Offset() int { return t.base + t.pos }

// Skim consumes the rest of a whole-buffer document without producing
// events. Everything Next checks is checked — by the skim kernel where a
// construct is plain, by the same scanners otherwise — and a
// malformed or over-budget remainder fails with the error Next would have
// reached: tag balance by name, attribute syntax and duplicates, reference
// validity, content outside the root, a second root, comments, processing
// instructions and DOCTYPE, MaxDepth and MaxTokenBytes. Nothing is
// materialized: no event, no staged attribute events, no decoded text or
// attribute value, and the names met while skimming — elements' and
// attributes' — are compared by bytes, not interned. It is for a consumer
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
//
// On a host with more than one core, a remainder of at least two pieces
// (skimPieceBytes each) is validated in parallel: helper goroutines check
// pieces ahead of the calling goroutine, which adopts what they finished and
// validates everything else itself (skimRest). The outcome is the sequential
// skim's, and no helper reads the document after Skim returns.
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

// skimRest alternates the skim kernel with Next's dispatch: skimKernel takes
// what it can, and the construct it stops at goes to the scanner Next would
// call, with nothing returned.
//
// A long remainder is split first (split): helper goroutines validate its
// pieces ahead of the cursor, each from a '<' on, and the kernel runs here
// only up to the next piece's start. Landing on it exactly, the cursor takes
// over what the piece's helper validated (reach) and goes on from where that
// stopped; passing over it — a comment, CDATA section or PI held the '<' —
// it leaves the piece behind. Every byte the cursor did not take from a
// helper it validates itself, in this loop, so an error is found here, by
// the code that finds it without pieces, at the same offset and with the
// same message and deepest level.
func (t *TokenizerBytes) skimRest() error {
	if t.breach != nil {
		return t.breach
	}
	data := t.data
	j := t.split()
	if j != nil {
		defer j.finish()
	}
	for {
		end := len(data)
		if j != nil {
			end = j.next(t.pos)
		}
		p, err := t.skimKernel(t.pos, end)
		if err != nil {
			return err
		}
		if p == end && end < len(data) {
			j.reach(t)
			continue
		}
		if p >= len(data) {
			break
		}
		switch {
		case data[p] != '<':
			_, _, err = t.readText(p)
		case p+1 >= len(data):
			return t.errAt(p+1, "unterminated markup")
		case data[p+1] == '/':
			_, err = t.readEndTag(p + 2)
		case data[p+1] == '?':
			err = t.skipUntil("?>", p+2)
		case data[p+1] == '!':
			_, _, err = t.readBang(p + 2)
		default:
			_, err = t.readStartTag(p + 1)
		}
		if err != nil {
			return err
		}
	}
	return t.endOfInput()
}

// skimKernel runs the skim kernel from p up to end (a piece's start, or the
// end of the input) on the tokenizer's open elements, and commits t.pos at
// the offset it returns.
func (t *TokenizerBytes) skimKernel(p, end int) (int, error) {
	k := skimState{spans: t.spans, below: len(t.stack), deepest: t.deepest}
	p, err := k.kernel(t.data[:end], p, t.lim.MaxDepth, t.lim.MaxTokenBytes)
	if len(t.spans) > 0 && len(k.spans) == 0 && k.below == 0 {
		t.rootSeen = true // entered inside the root, which has closed
	}
	t.pos, t.spans, t.deepest = p, k.spans, k.deepest
	return p, err
}

// skimState is what the skim kernel carries from one construct to the next:
// the elements it opened (spans, innermost last), how many are open beneath
// them, and the deepest level reached. In a piece (see skimJob) nothing is
// known of the elements beneath: below starts at pieceBelow, so no depth the
// kernel sees is 0, and an end tag with no span open is recorded in closes
// and taken, not left to the scanners.
type skimState struct {
	spans   []span
	below   int
	deepest int
	piece   bool
	closes  []pieceClose
}

// kernel is the skim's fast path: one loop on a local cursor over the
// constructs that make up nearly all of a document's body — text runs inside
// the root with the predefined and character references skipReference
// knows, <name> and <name/>, and </name> closing the innermost skimmed
// element — with MaxDepth and MaxTokenBytes enforced and deepest kept as
// the scanners keep it. It returns the offset of the first construct it
// leaves to the scanners (len(data) at the end of its window): attributes,
// comments, PIs, CDATA, DOCTYPE, text outside the root, a reference
// skipReference does not know, an end tag that is not </top-span> and the
// end tags of the elements beneath the spans. They alone name errors, so
// the kernel stops at the start of anything it does not accept, and a
// scanner rescans it from there. A window that ends early ends at a '<', so
// the kernel stops at the same offsets as on the whole input, or at that
// '<'.
func (k *skimState) kernel(data []byte, p, maxDepth, maxToken int) (int, error) {
	spans, below, deepest, closes := k.spans, k.below, k.deepest, k.closes
	var err error
loop:
	for p < len(data) {
		depth := below + len(spans)
		if data[p] != '<' {
			if depth == 0 {
				break // outside the root, what the run decodes to matters
			}
			start := p
			for {
				if p = textDelim(data, p); p == len(data) || data[p] == '<' {
					break
				}
				q := skipReference(data, p+1)
				if q < 0 {
					p = start
					break loop
				}
				p = q
			}
			if maxToken > 0 && p-start > maxToken {
				p, err = start, limitErr("token-bytes", maxToken, p-start)
				break
			}
			continue
		}
		if p+1 >= len(data) {
			break
		}
		c := data[p+1]
		if c == '/' {
			n := len(spans)
			if n == 0 {
				if !k.piece {
					break
				}
				// It closes an element opened before the piece: which one,
				// and whether the name matches, only the cursor knows.
				q := p + 2
				if q == len(data) || nameClass[data[q]]&classStart == 0 {
					break
				}
				for q++; q < len(data) && nameClass[data[q]]&className != 0; q++ {
				}
				if q == len(data) || data[q] != '>' {
					break
				}
				closes = append(closes, pieceClose{span{p + 2, q}, deepest})
				below--
				p = q + 1
				continue
			}
			top := spans[n-1]
			end := p + 2 + top.end - top.start
			if l := uint(end-p-2) * 8; l < 64 && p+10 <= len(data) {
				// name + '>' is at most 8 bytes: one masked compare against
				// the start tag's name, which lies before p, with '>' put
				// where the start tag may have anything.
				want := binary.LittleEndian.Uint64(data[top.start:])&(1<<l-1) | '>'<<l
				if (binary.LittleEndian.Uint64(data[p+2:])^want)&(1<<(l+8)-1) != 0 {
					break
				}
			} else if end >= len(data) || data[end] != '>' || string(data[p+2:end]) != string(data[top.start:top.end]) {
				break
			}
			spans = spans[:n-1]
			p = end + 1
			continue
		}
		if nameClass[c]&classStart == 0 || depth == 0 {
			break
		}
		q := p + 2
		for q < len(data) && nameClass[data[q]]&className != 0 {
			q++
		}
		var close int
		switch {
		case q == len(data):
			break loop
		case data[q] == '>':
			close = q + 1
		case data[q] == '/' && q+1 < len(data) && data[q+1] == '>':
			close = q + 2
		default:
			break loop
		}
		elem := depth + 1
		if maxDepth > 0 && elem > maxDepth {
			p, err = close, limitErr("depth", maxDepth, elem)
			break
		}
		deepest = max(deepest, elem)
		if close == q+1 {
			spans = append(spans, span{p + 1, q})
		}
		p = close
	}
	k.spans, k.below, k.deepest, k.closes = spans, below, deepest, closes
	return p, err
}

// Bit patterns for textDelim's word-at-a-time compare.
const (
	swarLo  = 0x0101010101010101
	swarHi  = 0x8080808080808080
	swarLt  = '<' * swarLo
	swarAmp = '&' * swarLo
)

// nameEnd returns the offset of the first byte at or after s that is not a
// name byte, or len(data). The eight bytes from s, when there are eight,
// are screened at once for the bytes that can end a name — every one of
// them is below '0' or one of '<' to '?' — and the table decides from the
// first of those on, byte by byte: at once, unless that byte is a name
// byte after all ('-', '.', '?', …) or none of the eight can end the name.
// As in textDelim, the lowest flag of the screen is exact, so no byte
// before it ends the name.
func nameEnd(data []byte, s int) int {
	if s+8 <= len(data) {
		s += bits.TrailingZeros64(nameScreen(binary.LittleEndian.Uint64(data[s:]))) >> 3
	}
	for s < len(data) && nameClass[data[s]]&className != 0 {
		s++
	}
	return s
}

// nameScreen flags the high bit of each byte of w that may end a name: the
// bytes below '0' and '<' to '?'. Every byte that ends one is among them.
// The lowest flag is exact; a borrow can flag a byte only above it.
func nameScreen(w uint64) uint64 {
	y := w&(0xFC*swarLo) ^ '<'*swarLo
	return ((w-'0'*swarLo)&^w | (y-swarLo)&^y) & swarHi
}

// textDelim returns the offset of the first '<' or '&' at or after p, or
// len(data). Eight bytes are compared at a time: x has a zero byte where
// the word holds the delimiter, and (x-lo)&^x&hi flags it. A borrow can
// flag a false byte only above a true one, so the lowest flag of either
// delimiter is exact; a byte with its high bit set (0xBC, 0xA6) is never
// flagged.
func textDelim(data []byte, p int) int {
	for ; p+8 <= len(data); p += 8 {
		w := binary.LittleEndian.Uint64(data[p:])
		lt, amp := w^swarLt, w^swarAmp
		if m := ((lt-swarLo)&^lt | (amp-swarLo)&^amp) & swarHi; m != 0 {
			return p + bits.TrailingZeros64(m)>>3
		}
	}
	for ; p < len(data); p++ {
		if c := data[p]; c == '<' || c == '&' {
			return p
		}
	}
	return p
}

// rewind handles a scanner's error: a suspension without construct-level
// resume state rewinds from where the scan stopped to the construct's
// first byte and drops half-queued attribute events, so the next attempt
// rescans the whole construct. Cold path.
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

// readText consumes the character data starting at start, up to the next
// '<' or end of input. The run is delimited by a single bulk IndexByte scan
// (resumed via the suspendAt memo across refills) and, once delimited,
// searched for '&' by one more bounded by it: a run without references is
// returned as an input subslice untouched, a run with them decodes from the
// first hit on (see decodeRun). A skim reaches it only outside the root,
// or for a run holding a reference the kernel does not know, whose error
// the decoder names.
func (t *TokenizerBytes) readText(start int) ([]byte, bool, error) {
	data, skip := t.data, t.scanFrom(start)
	end := bytes.IndexByte(data[start+skip:], '<')
	if end < 0 {
		if t.suspendable() {
			// The run may continue into the next chunk — but an already
			// over-budget prefix cannot shrink, so breach now instead of
			// buffering the rest of an arbitrarily long run.
			if t.lim.MaxTokenBytes > 0 && len(data)-start > t.lim.MaxTokenBytes {
				return nil, false, t.tokenTooLong(start, len(data)-start)
			}
			t.noteScan(start, 0)
			return nil, false, ErrNeedMoreData
		}
		end = len(data)
	} else {
		end += start + skip
	}
	if t.lim.MaxTokenBytes > 0 && end-start > t.lim.MaxTokenBytes {
		return nil, false, t.tokenTooLong(start, end-start)
	}
	t.pos = end
	out, outside := data[start:end], t.outside()
	if amp := bytes.IndexByte(out, '&'); amp >= 0 {
		var err error
		if t.textBuf, err = t.decodeRun(t.textBuf[:0], start, start+amp, end); err != nil {
			return nil, false, err
		}
		out = t.textBuf
	}
	if outside {
		// Before and after the root only white space may stand, written
		// as itself: XML's Misc has no character data, so a reference to
		// a space is as wrong there as any other character.
		if !allSpace(data[start:end]) {
			return nil, false, t.errf("character data outside root element")
		}
		return nil, true, nil
	}
	if len(out) == 0 {
		return nil, true, nil
	}
	return out, false, nil
}

// decodeRun appends data[from:end] to buf with its references decoded; amp
// is the offset of the first '&' in it. The literal stretches between
// references are bulk-copied.
func (t *TokenizerBytes) decodeRun(buf []byte, from, amp, end int) ([]byte, error) {
	data := t.data
	for {
		buf = append(buf, data[from:amp]...)
		var err error
		if buf, from, err = t.appendReference(buf, amp+1); err != nil {
			return buf, err
		}
		if amp = nextReference(data, from, end); amp < 0 {
			return append(buf, data[from:end]...), nil
		}
	}
}

// checkRun is decodeRun for a skimmed attribute value: the references of
// data[amp:end], the first of them at amp, are validated and nothing is
// decoded. Whatever skipReference does not recognize goes to the decoder,
// which names the error.
func (t *TokenizerBytes) checkRun(amp, end int) error {
	data := t.data
	for {
		p := skipReference(data, amp+1)
		if p < 0 {
			var err error
			if t.textBuf, p, err = t.appendReference(t.textBuf[:0], amp+1); err != nil {
				return err
			}
		}
		if amp = nextReference(data, p, end); amp < 0 {
			return nil
		}
	}
}

// nextReference returns the offset of the first '&' in data[p:end], or -1.
// p is just past a reference, and where there is one reference the next is
// usually a word away: the first bytes are looked at directly, the bulk
// scan (whose fixed cost is several of them) takes the rest.
func nextReference(data []byte, p, end int) int {
	for near := min(p+12, end); p < near; p++ {
		if data[p] == '&' {
			return p
		}
	}
	if i := bytes.IndexByte(data[p:end], '&'); i >= 0 {
		return p + i
	}
	return -1
}

// skipReference returns the offset past the ';' of the reference whose name
// starts at p, just after its '&' — or -1 if it is not one the decoder
// would decode: a predefined entity, told by its bytes, or a character
// reference charReference accepts, within the bound on a name's length.
func skipReference(data []byte, p int) int {
	if p+4 <= len(data) {
		// The references text carries most, in one load.
		switch w := binary.LittleEndian.Uint32(data[p:]); {
		case w&0xffffff == 'l'|'t'<<8|';'<<16, w&0xffffff == 'g'|'t'<<8|';'<<16:
			return p + 3
		case w == 'a'|'m'<<8|'p'<<16|';'<<24:
			return p + 4
		}
	}
	rest := data[p:]
	switch {
	case len(rest) < 3:
	case string(rest[:3]) == "lt;" || string(rest[:3]) == "gt;":
		return p + 3
	case len(rest) >= 4 && string(rest[:4]) == "amp;":
		return p + 4
	case len(rest) >= 5 && (string(rest[:5]) == "apos;" || string(rest[:5]) == "quot;"):
		return p + 5
	case rest[0] == '#':
		for i := 1; i < len(rest) && i <= maxReferenceName; i++ {
			if rest[i] == ';' {
				if _, msg := charReference(rest[:i]); msg != "" {
					return -1
				}
				return p + i + 1
			}
		}
	}
	return -1
}

// maxReferenceName is the longest reference name (the bytes between '&'
// and ';') either tokenizer reads before calling the reference too long.
const maxReferenceName = 11

// appendReference decodes one entity or character reference starting just
// after '&' at offset p, appending the decoded bytes to buf. It returns
// the extended buffer and the offset past the ';'. A reference inside
// text may extend past the recorded text end only in error cases, so the
// bounds come from the full input. The caller has committed t.pos for a
// suspension to rewind from.
func (t *TokenizerBytes) appendReference(buf []byte, p int) ([]byte, int, error) {
	data, start := t.data, p
	for {
		if p >= len(data) {
			if t.suspendable() {
				return nil, 0, ErrNeedMoreData
			}
			return nil, 0, t.errAt(p, "unterminated entity reference")
		}
		if data[p] == ';' {
			break
		}
		if p-start >= maxReferenceName {
			return nil, 0, t.errAt(p, "entity reference too long")
		}
		p++
	}
	out, msg := appendReferenceName(buf, data[start:p])
	if msg != "" {
		return nil, 0, t.errAt(p+1, "%s", msg)
	}
	return out, p + 1, nil
}

var cdataOpen = []byte("[CDATA[")

// readBang handles comments, CDATA and DOCTYPE after "<!", which ends at p.
func (t *TokenizerBytes) readBang(p int) ([]byte, bool, error) {
	data := t.data
	rest := data[p:]
	if t.suspendable() && (len(rest) == 0 ||
		(rest[0] == '-' && len(rest) < 2) ||
		(rest[0] == '[' && len(rest) < 7 && bytes.HasPrefix(cdataOpen, rest))) {
		// "<!", "<!-", "<![", "<![CDA"... — the construct kind itself is
		// still ambiguous until more bytes arrive.
		return nil, false, t.needMore(p)
	}
	switch {
	case len(rest) >= 2 && rest[0] == '-' && rest[1] == '-':
		return nil, true, t.skipUntil("-->", p+2)
	case len(rest) >= 7 && bytes.Equal(rest[:7], cdataOpen):
		p += 7
		skip := t.scanFrom(p)
		end := bytes.Index(data[p+skip:], []byte("]]>"))
		if end < 0 {
			if t.suspendable() {
				if t.lim.MaxTokenBytes > 0 && len(data)-p > t.lim.MaxTokenBytes {
					return nil, false, t.tokenTooLong(p, len(data)-p)
				}
				t.noteScan(p, 2)
				return nil, false, t.needMore(p)
			}
			return nil, false, t.errAt(len(data), "unterminated CDATA section")
		}
		end += skip
		if t.lim.MaxTokenBytes > 0 && end > t.lim.MaxTokenBytes {
			return nil, false, t.tokenTooLong(p, end)
		}
		text := data[p : p+end]
		t.pos = p + end + 3
		if t.outside() {
			return nil, false, t.errf("CDATA outside root element")
		}
		if len(text) == 0 {
			return nil, true, nil
		}
		return text, false, nil
	default:
		return nil, true, t.skipDecl(p)
	}
}

// skipUntil advances past the first occurrence of terminator at or after p.
func (t *TokenizerBytes) skipUntil(terminator string, p int) error {
	skip := t.scanFrom(p)
	i := bytes.Index(t.data[p+skip:], []byte(terminator))
	if i < 0 {
		if t.suspendable() {
			if t.lim.MaxTokenBytes > 0 && len(t.data)-p > t.lim.MaxTokenBytes {
				return t.tokenTooLong(p, len(t.data)-p)
			}
			t.noteScan(p, len(terminator)-1)
			return t.needMore(p)
		}
		return t.errAt(len(t.data), "unterminated construct (expected %q)", terminator)
	}
	if t.lim.MaxTokenBytes > 0 && skip+i > t.lim.MaxTokenBytes {
		return t.tokenTooLong(p, skip+i)
	}
	t.pos = p + skip + i + len(terminator)
	return nil
}

// skipDecl advances past the '>' of the declaration whose body starts at p.
func (t *TokenizerBytes) skipDecl(p int) error {
	data := t.data
	for ; p < len(data); p++ {
		if data[p] == '[' {
			return t.errAt(p+1, "DOCTYPE internal subsets are not supported")
		}
		if data[p] == '>' {
			t.pos = p + 1
			return nil
		}
	}
	if t.suspendable() {
		return t.needMore(p)
	}
	return t.errAt(p, "unterminated declaration")
}

// readName scans the name starting at p and returns where it ends. The
// byte after a name is always in the window: a name that reaches the
// window's end is incomplete or unterminated.
func (t *TokenizerBytes) readName(p int) (end int, err error) {
	data := t.data
	if p < len(data) && nameClass[data[p]]&classStart == 0 {
		return 0, t.errAt(p, "expected a name")
	}
	if p = nameEnd(data, p); p == len(data) {
		if t.suspendable() {
			// Even a complete-looking name may continue in the next chunk.
			return 0, t.needMore(p)
		}
		return 0, t.errAt(p, "unterminated name")
	}
	return p, nil
}

// allSpace reports whether b is XML white space only.
func allSpace(b []byte) bool { return skipSpace(b, 0) == len(b) }

// skipSpace returns the offset of the first byte at or after p that is not
// XML white space; len(data) means end of input.
func skipSpace(data []byte, p int) int {
	for p < len(data) && bytestr.IsSpace(data[p]) {
		p++
	}
	return p
}

// readStartTag parses <name attr="v" ...> or <name/> from the name at p,
// queueing attribute child events and the self-closing endElement.
func (t *TokenizerBytes) readStartTag(p int) (symtab.Sym, error) {
	end, err := t.readName(p)
	if err != nil {
		return 0, err
	}
	data := t.data
	if t.rootSeen && t.outside() {
		return 0, t.errAt(end, "second root element <%s>", data[p:end])
	}
	var el openElem
	t.tagAttrs = 0
	if t.skim {
		t.tagName = span{p, end}
	} else {
		el = t.name(data, p, end)
	}
	// <name> and <name/> are nearly every tag of a document: they close
	// here, on one compare, before the attribute scanner is set up.
	if data[end] == '>' {
		t.pos = end + 1
		return el.sym, t.openElement(el)
	}
	if data[end] == '/' && end+1 < len(data) && data[end+1] == '>' {
		t.pos = end + 2
		return el.sym, t.emptyElement(el.sym)
	}
	t.attrBuf = t.attrBuf[:0]
	t.attrEpoch++
	if t.attrEpoch == 0 {
		clear(t.attrSlots)
		t.attrEpoch = 1
	}
	return el.sym, t.scanAttrs(el, end)
}

// tagNameOf names the start tag being scanned, for error messages: a
// skimmed tag has a span where a tokenized one has a symbol.
func (t *TokenizerBytes) tagNameOf(el openElem) string {
	if t.skim {
		return string(t.data[t.tagName.start:t.tagName.end])
	}
	return t.tab.Name(el.sym)
}

// openElement closes a start tag at its '>', which t.pos is now past: the
// element is open.
func (t *TokenizerBytes) openElement(el openElem) error {
	if t.counting() {
		if err := t.countLevels(); err != nil {
			return err
		}
	}
	if t.skim {
		t.spans = append(t.spans, t.tagName)
	} else {
		t.stack = append(t.stack, el)
	}
	return nil
}

// emptyElement closes a start tag at its "/>", which t.pos is now past.
// <n/> is shorthand for <n></n>: the caller emits the start now, the end is
// queued after any queued attribute events.
func (t *TokenizerBytes) emptyElement(sym symtab.Sym) error {
	if t.counting() {
		if err := t.countLevels(); err != nil {
			return err
		}
	}
	if t.outside() {
		t.rootSeen = true
	}
	if !t.skim && t.breach == nil {
		t.pending = append(t.pending, ByteEvent{Kind: EndElement, Sym: sym, Off: t.base + t.pos})
	}
	return nil
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
// a skim has no event to deliver and fails at once. It is called only while
// counting.
func (t *TokenizerBytes) countLevels() error {
	limit := t.lim.MaxDepth
	elem := t.depth() + 1
	if limit > 0 && elem > limit {
		return limitErr("depth", limit, elem)
	}
	t.deepest = max(t.deepest, elem)
	if t.tagAttrs == 0 {
		return nil
	}
	if limit <= 0 || elem < limit {
		t.deepest = max(t.deepest, elem+1)
		return nil
	}
	t.breach = limitErr("depth", limit, elem+1)
	if t.skim {
		return t.breach
	}
	t.pending, t.head, t.stabilized = t.pending[:0], 0, 0
	t.tagActive = true // routes the next call to the breach
	return nil
}

// counting reports that start tags count levels (countLevels): while
// skimming or under a depth budget. Tokenizing without one, the evaluator
// does the counting.
func (t *TokenizerBytes) counting() bool { return t.skim || t.lim.MaxDepth > 0 }

// suspendTag suspends the start tag, scanned up to p, at an attribute
// boundary: pos rewinds only to the current attribute's first byte
// (attrMark), the attributes already staged in pending/attrBuf are kept,
// and the next call resumes scanAttrs there. This is what keeps a
// many-attribute tag spanning k chunks at O(tag) total scanning instead of
// O(k·tag). Staged attribute values still aliasing the window are copied
// into attrBuf here — the refill is about to slide the window — so
// stabilization costs nothing on tags that never suspend.
func (t *TokenizerBytes) suspendTag(el openElem, attrMark, p int) error {
	// The staged attribute state of one tag grows with the tag itself;
	// bound it like any other single token so a pathological
	// many-attribute tag cannot accumulate past the budget across
	// suspensions.
	if t.lim.MaxTokenBytes > 0 && len(t.attrBuf) > t.lim.MaxTokenBytes {
		return t.tokenTooLong(p, len(t.attrBuf))
	}
	for i := t.stabilized; i < len(t.pending); i++ {
		if t.pending[i].Kind == Text && len(t.pending[i].Data) > 0 {
			vstart := len(t.attrBuf)
			t.attrBuf = append(t.attrBuf, t.pending[i].Data...)
			t.pending[i].Data = t.attrBuf[vstart:]
		}
	}
	t.stabilized = len(t.pending)
	t.rescanned += p - attrMark
	t.pos = attrMark
	t.tagActive = true
	t.tagElem = el
	return ErrNeedMoreData
}

// scanAttrs scans the attribute list of the start tag of el, from the
// attribute boundary at p to the closing '>' or '/>'. Each completed
// attribute stages its three child events in pending; on success the
// caller emits the element's StartElement, and Next then drains the
// staged events.
func (t *TokenizerBytes) scanAttrs(el openElem, p int) error {
	data := t.data
	for {
		attrMark := p
		if p = skipSpace(data, p); p >= len(data) {
			if t.suspendable() {
				return t.suspendTag(el, attrMark, p)
			}
			return t.errAt(p, "unterminated start tag <%s", t.tagNameOf(el))
		}
		switch data[p] {
		case '>':
			t.pos = p + 1
			return t.openElement(el)
		case '/':
			if p++; p >= len(data) && t.suspendable() {
				return t.suspendTag(el, attrMark, p)
			}
			if p >= len(data) || data[p] != '>' {
				return t.errAt(p, "malformed self-closing tag <%s", t.tagNameOf(el))
			}
			t.pos = p + 1
			return t.emptyElement(el.sym)
		}
		nameEnd, err := t.readName(p)
		if err != nil {
			if err == ErrNeedMoreData {
				err = t.suspendTag(el, attrMark, t.pos)
			}
			return err
		}
		name, aname := span{p, nameEnd}, data[p:nameEnd]
		if p = skipSpace(data, nameEnd); p >= len(data) {
			if t.suspendable() {
				return t.suspendTag(el, attrMark, p)
			}
			return t.errAt(p, "unterminated attribute %s", aname)
		}
		if data[p] != '=' {
			return t.errAt(p, "expected '=' after attribute name %s", aname)
		}
		if p = skipSpace(data, p+1); p >= len(data) {
			if t.suspendable() {
				return t.suspendTag(el, attrMark, p)
			}
			return t.errAt(p, "unterminated attribute %s", aname)
		}
		quote := data[p]
		if quote != '"' && quote != '\'' {
			return t.errAt(p, "expected quoted value for attribute %s", aname)
		}
		val, next, err := t.readAttrValue(aname, quote, p+1)
		if err != nil {
			if err == ErrNeedMoreData {
				err = t.suspendTag(el, attrMark, next)
			}
			return err
		}
		p = next
		var asym symtab.Sym
		if !t.skim { // a skim interns nothing and queues no events
			asym = t.name(data, name.start, name.end).sym
		}
		n := name.end - name.start
		if t.seenAttr(name, asym, uint32(nameHash(nameWord(data, name.start, n), n)>>32)) {
			return t.errAt(p, "duplicate attribute %s", aname)
		}
		if t.tagAttrs++; t.skim {
			continue
		}
		t.pending = append(t.pending,
			ByteEvent{Kind: StartElement, Sym: asym, Attribute: true, Off: t.base + attrMark},
			ByteEvent{Kind: Text, Data: val, Off: t.base + attrMark},
			ByteEvent{Kind: EndElement, Sym: asym, Attribute: true, Off: t.base + p},
		)
		t.staged = max(t.staged, len(t.pending))
	}
}

// seenAttr records an attribute name (at name, hash h of its word, sym
// its symbol, 0 when skimming) among the attribute names of the start tag
// being scanned and reports whether the tag already had it. The names of a
// tokenized tag are compared by symbol — their spans go stale as a stream
// window slides under a suspended tag — and a skimmed tag's by bytes.
func (t *TokenizerBytes) seenAttr(name span, sym symtab.Sym, h uint32) bool {
	if 2*t.tagAttrs >= len(t.attrSlots) {
		// Half full of this tag's names: double, and re-enter them.
		old := t.attrSlots
		t.attrSlots = make([]attrSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.epoch == t.attrEpoch {
				t.seenAttr(s.name, s.sym, s.hash)
			}
		}
	}
	data, mask := t.data, uint32(len(t.attrSlots)-1)
	for i := h * 0x9E3779B1 >> 7 & mask; ; i = (i + 1) & mask {
		s := &t.attrSlots[i]
		if s.epoch != t.attrEpoch {
			*s = attrSlot{t.attrEpoch, h, sym, name}
			return false
		}
		if s.hash == h && s.sym == sym && (!t.skim || bytes.Equal(data[s.name.start:s.name.end], data[name.start:name.end])) {
			return true
		}
	}
}

// readAttrValue scans a quoted attribute value from p, just after the
// opening quote, and returns it with the offset past the closing quote. The
// closing quote is one bulk IndexByte scan (resumed via the suspendAt memo
// across refills), and the delimited value is searched for '&' by one more.
// Reference-free values are input subslices (suspendTag copies them into
// attrBuf if the tag later suspends — queued Text events must survive
// window compaction); values with references decode into attrBuf, which
// survives until the next start tag with attributes, long enough for the
// queued events to be delivered; a skim only checks the references. With
// ErrNeedMoreData comes the offset the scan stopped at.
func (t *TokenizerBytes) readAttrValue(aname []byte, quote byte, p int) ([]byte, int, error) {
	data := t.data
	skip := t.scanFrom(p)
	end := bytes.IndexByte(data[p+skip:], quote)
	if end < 0 {
		if t.suspendable() {
			if t.lim.MaxTokenBytes > 0 && len(data)-p > t.lim.MaxTokenBytes {
				return nil, 0, t.tokenTooLong(p, len(data)-p)
			}
			t.noteScan(p, 0)
			return nil, p, ErrNeedMoreData
		}
		return nil, 0, t.errAt(len(data), "unterminated attribute value for %s", aname)
	}
	end += p + skip
	if t.lim.MaxTokenBytes > 0 && end-p > t.lim.MaxTokenBytes {
		return nil, 0, t.tokenTooLong(p, end-p)
	}
	raw := data[p:end]
	if lt := bytes.IndexByte(raw, '<'); lt >= 0 {
		return nil, 0, t.errAt(p+lt, "'<' in attribute value for %s", aname)
	}
	amp := bytes.IndexByte(raw, '&')
	if amp < 0 {
		return raw, end + 1, nil
	}
	if t.skim {
		return nil, end + 1, t.checkRun(p+amp, end)
	}
	vstart := len(t.attrBuf)
	var err error
	if t.attrBuf, err = t.decodeRun(t.attrBuf, p, p+amp, end); err != nil {
		return nil, end + 1, err
	}
	return t.attrBuf[vstart:], end + 1, nil
}

// readEndTag parses an end tag from the name at p, after "</". The fast
// path handles the overwhelmingly common shape — "</name>" exactly matching
// the open element — by the open element's word (isNamed), with no
// symbol-table probe at all; anything else (whitespace before '>',
// window boundary, mismatch) falls through to the general scanner.
// Elements opened by a skim close before the ones that were open when it
// began; the skim kernel closes them itself, so only an end tag it did not
// accept reaches the general scanner for them. A skimmed element has no
// symbol; its end tag returns 0.
func (t *TokenizerBytes) readEndTag(p int) (symtab.Sym, error) {
	data := t.data
	if n := len(t.stack); n > 0 && len(t.spans) == 0 {
		if top := &t.stack[n-1]; t.endTag(top, data, p) {
			t.pos = p + int(top.n) + 1
			t.stack = t.stack[:n-1]
			if n == 1 {
				t.rootSeen = true
			}
			return top.sym, nil
		}
	}
	end, err := t.readName(p)
	if err != nil {
		return 0, err
	}
	name := data[p:end]
	if p = skipSpace(data, end); p >= len(data) {
		if t.suspendable() {
			return 0, t.needMore(p)
		}
		return 0, t.errAt(p, "unterminated end tag </%s", name)
	}
	if data[p] != '>' {
		return 0, t.errAt(p, "malformed end tag </%s", name)
	}
	t.pos = p + 1
	if t.outside() {
		return 0, t.errf("end tag </%s> with no open element", name)
	}
	var sym symtab.Sym
	var matches bool
	if n := len(t.spans); n > 0 {
		matches = bytes.Equal(name, data[t.spans[n-1].start:t.spans[n-1].end])
	} else {
		top := t.stack[len(t.stack)-1]
		sym, matches = top.sym, t.isNamed(top, data, end-len(name), end)
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
