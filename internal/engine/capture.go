package engine

import (
	"streamxpath/internal/sax"
	"streamxpath/internal/symtab"
)

// CaptureMode selects how the engine materializes the subtree of a
// matched element for extraction-enabled subscriptions.
type CaptureMode uint8

const (
	// CaptureOff disables fragment capture entirely; the boolean verdict
	// path pays nothing.
	CaptureOff CaptureMode = iota
	// CaptureSlice records only the [start, end) byte offsets of the
	// matched element in the source document. It is the zero-copy mode for
	// whole-buffer matching: the fragment is a subslice of the caller's
	// document, contiguous by construction. It requires the entire
	// document to stay addressable at its original offsets, so it is not
	// usable under a chunked tokenizer whose window compacts away.
	CaptureSlice
	// CaptureSerial re-serializes the matched subtree from the event
	// stream as it passes, byte-identical to sax.Serialize over the same
	// events. It is the mode for chunked readers, where the subtree may
	// span compacted windows; memory is O(captured fragment), accounted
	// against Limits.MaxBufferedBytes.
	CaptureSerial
	// CaptureValue holds the matched element's string value as
	// tree.(*Node).StrVal defines it: the decoded text of the subtree,
	// attribute values included — what an attribute capture holds in every
	// mode. It needs no offsets, so it works under the chunked tokenizer.
	CaptureValue
)

// capture is one captured fragment: the subtree of a single matched
// element (or the decoded value of a matched attribute). Overlapping
// matches — many subscriptions selecting the same element — share one
// capture through refs; the capture recycles when the last holder
// releases it. A capture is "open" from the element's startElement until
// its endElement finalizes it (done); holders may retain open captures
// (commit entries, the per-subscription fragment slots), which is why
// refs and done are independent.
type capture struct {
	refs  int
	level int // the element's nesting level (attribute pseudo-levels included)
	start int // absolute document offset of the element's '<'
	end   int // absolute offset one past '</name>', set when finalized
	buf   []byte
	done  bool
	// valueOnly marks a capture whose buf holds the decoded string value:
	// every capture under CaptureValue, and an attribute's in every mode
	// (attribute values cannot be subsliced from the source, which holds
	// the raw encoded form).
	valueOnly bool
	// queued marks a capture on the emission queue; selected, that some
	// every-match subscription latched it.
	queued, selected bool
}

// capman is the engine's capture manager: a stack of open captures kept
// in sync with the element nesting, a same-element memo so overlapping
// matches share one capture, and byte accounting for the buffered-bytes
// budget. All open captures span ancestors-or-self of the current
// position, so every event byte appended in CaptureSerial mode goes to
// each of them.
type capman struct {
	mode CaptureMode
	tab  *symtab.Table

	open []*capture // unfinalized captures, innermost last
	all  []*capture // every capture allocated this document (recycled at reset)
	free []*capture

	bytes     int // live capture-buffer bytes (counted against MaxBufferedBytes)
	peakBytes int

	inAttr  bool // between an attribute pseudo start and its end
	tagOpen bool // serial mode: innermost start tag not yet closed with '>'

	// Current-element context, valid during the startElement hook window;
	// elemCap memoizes the capture created for the current element so
	// every match hook of one element shares it.
	curSym   symtab.Sym
	curOff   int
	curLevel int
	curAttr  bool
	elemCap  *capture

	// queue holds the captures of every-match candidates from qhead on, in
	// start order, one hold each; emit receives each selected value as it
	// leaves (flush), and qstats accounts for the queue per document.
	queue  []*capture
	qhead  int
	qbytes int
	qstats EmitStats
	emit   func(value []byte)
}

// EmitStats is the emission queue's accounting for one document: what full
// evaluation must buffer because a value can stream past before the
// evidence that selects it.
type EmitStats struct {
	// Emitted and Dropped count the candidates that left the queue selected
	// and unselected.
	Emitted, Dropped int
	// PeakPending is the most candidates queued at once, and
	// PeakBufferedBytes the most value bytes they held.
	PeakPending       int
	PeakBufferedBytes int
}

func newCapman(tab *symtab.Table) *capman {
	return &capman{tab: tab}
}

// reset prepares the manager for the next document in the given mode,
// recycling every capture of the previous one wholesale (holders are
// cleared by the matcher's own reset).
func (cm *capman) reset(mode CaptureMode) {
	cm.mode = mode
	for _, c := range cm.all {
		c.refs = 0
		c.buf = c.buf[:0]
		c.done = false
		cm.free = append(cm.free, c)
	}
	cm.all = cm.all[:0]
	cm.open = cm.open[:0]
	clear(cm.queue)
	cm.queue, cm.qhead, cm.qbytes, cm.qstats = cm.queue[:0], 0, 0, EmitStats{}
	cm.bytes = 0
	cm.peakBytes = 0
	cm.inAttr = false
	cm.tagOpen = false
	cm.elemCap = nil
}

func (cm *capman) alloc() *capture {
	var c *capture
	if k := len(cm.free); k > 0 {
		c = cm.free[k-1]
		cm.free = cm.free[:k-1]
	} else {
		c = &capture{}
	}
	buf := c.buf[:0]
	*c = capture{buf: buf}
	return c
}

func (cm *capman) grow(n int) {
	cm.bytes += n
	if cm.bytes > cm.peakBytes {
		cm.peakBytes = cm.bytes
	}
}

// reclaim drops a capture's buffered bytes. The capture object itself
// stays on the all list until reset (it may still sit on the open stack).
func (cm *capman) reclaim(c *capture) {
	cm.bytes -= len(c.buf)
	c.buf = c.buf[:0]
}

// release drops one holder reference. At zero the capture can never be
// re-referenced (the same-element memo is cleared every event), so its
// bytes are reclaimed — immediately if finalized, at finalize otherwise
// (open captures with no holders skip further appends either way).
func (cm *capman) release(c *capture) {
	c.refs--
	if c.refs == 0 && c.done {
		cm.reclaim(c)
	}
}

// elemCapture returns the capture for the current element, creating it
// on first call. Each call transfers one reference to the caller — the
// sharing point for overlapping matches. queue says the element is a
// candidate of an every-match subscription: the capture joins the emission
// queue, which takes a reference of its own.
func (cm *capman) elemCapture(queue bool) *capture {
	c := cm.elemCap
	if c != nil {
		c.refs++
	} else {
		c = cm.alloc()
		c.level = cm.curLevel
		c.start = cm.curOff
		c.valueOnly = cm.curAttr || cm.mode == CaptureValue
		c.refs = 1
		if cm.mode == CaptureSerial && !c.valueOnly {
			name := cm.tab.Name(cm.curSym)
			c.buf = append(c.buf, '<')
			c.buf = append(c.buf, name...)
			cm.grow(len(c.buf))
		}
		cm.open = append(cm.open, c)
		cm.all = append(cm.all, c)
		cm.elemCap = c
	}
	if queue && !c.queued {
		c.queued = true
		c.refs++
		cm.queue = append(cm.queue, c)
		cm.qstats.PeakPending = max(cm.qstats.PeakPending, len(cm.queue)-cm.qhead)
	}
	return c
}

// flush lets the queue's head leave while its fate is known: emitted once it
// is selected and finalized, dropped once it is unselected and the queue's
// hold is the last — no holder is left that could select it. Candidates
// behind an undecided head wait, so values leave in document order.
func (cm *capman) flush() {
	for cm.qhead < len(cm.queue) {
		c := cm.queue[cm.qhead]
		switch {
		case c.selected && c.done:
			cm.qstats.Emitted++
			if cm.emit != nil {
				cm.emit(c.buf)
			}
		case !c.selected && c.refs == 1:
			cm.qstats.Dropped++
		default:
			return
		}
		cm.queue[cm.qhead] = nil
		cm.qhead++
		cm.qbytes -= len(c.buf)
		cm.release(c)
	}
}

// closeTag emits the deferred '>' of the innermost start tag to every
// open serial capture. Every open capture contains the innermost element,
// so all of them take the byte.
func (cm *capman) closeTag() {
	if !cm.tagOpen {
		return
	}
	cm.tagOpen = false
	for _, c := range cm.open {
		if c.valueOnly || c.refs == 0 {
			continue
		}
		c.buf = append(c.buf, '>')
		cm.grow(1)
	}
}

// noteStart records a startElement event: it refreshes the current-
// element context (invalidating the same-element memo) and, in serial
// mode, appends the construct's opening bytes to every open capture.
// It runs before the match hooks, so a capture created for this element
// starts from its own '<'.
func (cm *capman) noteStart(sym symtab.Sym, isAttr bool, off, level int) {
	cm.elemCap = nil
	cm.curSym, cm.curOff, cm.curLevel, cm.curAttr = sym, off, level, isAttr
	if isAttr {
		cm.inAttr = true
		if cm.mode == CaptureSerial {
			name := cm.tab.Name(sym)
			for _, c := range cm.open {
				if c.valueOnly || c.refs == 0 {
					continue
				}
				n := len(c.buf)
				c.buf = append(c.buf, ' ')
				c.buf = append(c.buf, name...)
				c.buf = append(c.buf, '=', '"')
				cm.grow(len(c.buf) - n)
			}
		}
		return
	}
	if cm.mode == CaptureSerial && len(cm.open) > 0 {
		cm.closeTag()
		name := cm.tab.Name(sym)
		for _, c := range cm.open {
			if c.valueOnly || c.refs == 0 {
				continue
			}
			n := len(c.buf)
			c.buf = append(c.buf, '<')
			c.buf = append(c.buf, name...)
			cm.grow(len(c.buf) - n)
		}
	}
	cm.tagOpen = true
}

// noteText records character data: the raw decoded text for an open value
// capture, serializer-escaped bytes for enclosing serial captures
// (attribute-value escaping inside an attribute, text escaping in element
// content, with the pending '>' emitted first). A slice capture of an
// element holds offsets only.
func (cm *capman) noteText(data []byte) {
	if len(cm.open) == 0 || len(data) == 0 || (cm.mode == CaptureSlice && !cm.inAttr) {
		return
	}
	if cm.mode == CaptureSerial && !cm.inAttr {
		cm.closeTag()
	}
	for _, c := range cm.open {
		if c.refs == 0 {
			continue
		}
		n := len(c.buf)
		switch {
		case c.valueOnly:
			c.buf = append(c.buf, data...)
		case cm.mode != CaptureSerial:
			continue
		case cm.inAttr:
			c.buf = sax.AppendAttrEscaped(c.buf, data)
		default:
			c.buf = sax.AppendTextEscaped(c.buf, data)
		}
		cm.grow(len(c.buf) - n)
		if c.queued {
			cm.qbytes += len(c.buf) - n
			cm.qstats.PeakBufferedBytes = max(cm.qstats.PeakBufferedBytes, cm.qbytes)
		}
	}
}

// noteEnd records an endElement event, appending the closing bytes to
// open serial captures and finalizing the capture of the closing element
// (identified by level — the open stack nests with the elements, so it
// can only be the innermost). It runs after the matcher's endElement, so
// a scope resolution that latches the closing element's own capture sees
// it still open; the bytes complete here.
func (cm *capman) noteEnd(sym symtab.Sym, isAttr bool, off, level int) {
	cm.elemCap = nil
	if isAttr {
		cm.inAttr = false
		if cm.mode == CaptureSerial {
			for _, c := range cm.open {
				if c.valueOnly || c.refs == 0 {
					continue
				}
				c.buf = append(c.buf, '"')
				cm.grow(1)
			}
		}
		cm.finalize(level, off)
		return
	}
	if cm.mode == CaptureSerial && len(cm.open) > 0 {
		cm.closeTag()
		name := cm.tab.Name(sym)
		for _, c := range cm.open {
			if c.valueOnly || c.refs == 0 {
				continue
			}
			n := len(c.buf)
			c.buf = append(c.buf, '<', '/')
			c.buf = append(c.buf, name...)
			c.buf = append(c.buf, '>')
			cm.grow(len(c.buf) - n)
		}
	} else {
		cm.tagOpen = false
	}
	cm.finalize(level, off)
}

// finalize completes the capture of the construct closing at level, if it
// has one: the open stack nests with the elements, so it can only be the
// innermost.
func (cm *capman) finalize(level, off int) {
	n := len(cm.open)
	if n == 0 || cm.open[n-1].level != level {
		return
	}
	c := cm.open[n-1]
	cm.open = cm.open[:n-1]
	c.end = off
	c.done = true
	if c.refs == 0 {
		cm.reclaim(c)
	}
}
