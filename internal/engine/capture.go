package engine

import "streamxpath/internal/sax"

// CaptureMode selects how the engine materializes the subtree of a
// matched element for extraction-enabled subscriptions.
type CaptureMode uint8

const (
	// CaptureOff disables fragment capture entirely; the boolean verdict
	// path pays nothing.
	CaptureOff CaptureMode = iota
	// CaptureSlice returns the matched element as the document's own bytes,
	// [start, end) of the offsets its StartElement and EndElement carry. On
	// a buffered document (MatchBytes, or ProcessBytes over a whole-buffer
	// tokenizer) it records the offsets only, and the fragment is a
	// zero-copy subslice of the caller's document. On a reader (MatchReader)
	// the tokenizer's window keeps the bytes from the outermost open
	// capture's start on, and the fragment is copied out of it when the
	// element ends: memory is one copy of the outermost open fragment,
	// accounted against Limits.MaxBufferedBytes.
	CaptureSlice
	// CaptureValue holds the matched element's string value as
	// tree.(*Node).StrVal defines it: the decoded text of the subtree,
	// attribute values included — what an attribute capture holds in every
	// mode. It needs no offsets, so it works with any event source.
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
// position, so the outermost one's start is where a reader's window must
// keep the bytes from.
type capman struct {
	mode CaptureMode
	// win is the reader's tokenizer, whose window holds the open element
	// captures' bytes until they are copied out at their end; nil when the
	// offsets index the caller's buffer.
	win *sax.StreamTokenizer

	open []*capture // unfinalized captures, innermost last
	all  []*capture // every capture allocated this document (recycled at reset)
	free []*capture

	bytes     int // live capture-buffer bytes (counted against MaxBufferedBytes)
	peakBytes int

	inAttr bool // between an attribute pseudo start and its end

	// Current-element context, valid during the startElement hook window;
	// elemCap memoizes the capture created for the current element so
	// every match hook of one element shares it. at is the offset of the
	// last element event, start or end.
	curOff   int
	at       int
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

// reset prepares the manager for the next document in the given mode,
// recycling every capture of the previous one wholesale (holders are
// cleared by the matcher's own reset). The document's offsets index a
// buffer until the reader path sets win.
func (cm *capman) reset(mode CaptureMode) {
	cm.mode, cm.win = mode, nil
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

// add appends data to c's buffer, accounting for it.
func (cm *capman) add(c *capture, data []byte) {
	c.buf = append(c.buf, data...)
	cm.bytes += len(data)
	cm.peakBytes = max(cm.peakBytes, cm.bytes)
	if c.queued {
		cm.qbytes += len(data)
		cm.qstats.PeakBufferedBytes = max(cm.qstats.PeakBufferedBytes, cm.qbytes)
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

// noteStart records a startElement event: it refreshes the current-
// element context, invalidating the same-element memo. It runs before the
// match hooks, so a capture created for this element starts from its own
// '<'.
func (cm *capman) noteStart(isAttr bool, off, level int) {
	cm.elemCap = nil
	cm.curOff, cm.curLevel, cm.curAttr, cm.at = off, level, isAttr, off
	if isAttr {
		cm.inAttr = true
	}
}

// noteText records character data: the decoded text goes to every open
// value capture — inside an attribute, or under CaptureValue. A slice
// capture of an element holds offsets only.
func (cm *capman) noteText(data []byte) {
	if len(cm.open) == 0 || len(data) == 0 || (cm.mode != CaptureValue && !cm.inAttr) {
		return
	}
	for _, c := range cm.open {
		if c.refs > 0 && c.valueOnly {
			cm.add(c, data)
		}
	}
}

// noteEnd records an endElement event, finalizing the capture of the
// closing construct. It runs after the matcher's endElement, so a scope
// resolution that latches the closing element's own capture sees it still
// open; the bytes complete here.
func (cm *capman) noteEnd(isAttr bool, off, level int) {
	cm.elemCap = nil
	cm.at = off
	if isAttr {
		cm.inAttr = false
	}
	cm.finalize(level, off)
}

// finalize completes the capture of the construct closing at level, if it
// has one: the open stack nests with the elements, so it can only be the
// innermost. A held element capture on a reader copies its bytes out of
// the window, which keeps them only while the capture is open.
func (cm *capman) finalize(level, off int) {
	n := len(cm.open)
	if n == 0 || cm.open[n-1].level != level {
		return
	}
	c := cm.open[n-1]
	cm.open = cm.open[:n-1]
	c.end = off
	c.done = true
	switch {
	case c.refs == 0:
		cm.reclaim(c)
	case cm.win != nil && !c.valueOnly:
		cm.add(c, cm.win.Window(c.start, off))
	}
}

// keep returns the start of the outermost open element capture that has a
// holder, which a reader's window must keep its bytes from, or -1.
func (cm *capman) keep() int {
	for _, c := range cm.open {
		if c.refs > 0 && !c.valueOnly {
			return c.start
		}
	}
	return -1
}

// held is the bytes the captures hold at the last element event: their
// buffers, and on a reader the window's span from the keep offset.
func (cm *capman) held() int {
	if cm.win == nil {
		return cm.bytes
	}
	if k := cm.keep(); k >= 0 {
		return cm.bytes + cm.at - k
	}
	return cm.bytes
}
