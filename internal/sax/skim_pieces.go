package sax

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"
)

// A skimmed remainder is validated on every free core. The cursor — the
// goroutine that called Skim — splits it into pieces, each starting at the
// first '<' past a multiple of skimPieceBytes, and helper goroutines claim
// the pieces in order and run the skim kernel over each one in piece mode:
// nothing is known of the elements open beneath the piece's start, so an end
// tag with no element of the piece open is recorded (pieceClose) and taken.
// The cursor skims sequentially, as without pieces, and whenever it lands
// exactly on a piece's start it adopts the piece (adopt): it matches the
// recorded end tags by name against its own open elements, adds the piece's
// relative levels to its depth to check MaxDepth and keep deepest, and goes
// on from where the helper stopped.
//
// What a helper did not finish cleanly the cursor validates itself on the
// sequential path: the construct the kernel left to the scanners (the helper
// stopped there), a MaxTokenBytes breach (likewise), an end tag that does not
// match (the cursor resumes at it), the root closing inside the piece (the
// cursor resumes after it), a depth over budget (the whole piece), a piece no
// helper claimed before the cursor reached it, one a helper panicked on, and
// one the cursor passed over — a comment, a CDATA section or a PI held the
// '<' it starts at. So errors, offsets, messages and deepest are the
// sequential skim's by construction.
//
// Nothing allocates per skim once a tokenizer is warm: the job and its pieces
// are the tokenizer's and reused, helpers are long-lived goroutines fed job
// pointers over a channel, and a claim word stamped with the skim's
// generation lets a helper that arrives after its skim ended leave without
// reading a byte. The cursor does not return before every piece a helper
// claimed is finished, so no helper reads the document after Skim returns.

// skimPieceBytes is the nominal size of a piece: large enough that a
// piece's claim and adoption are noise beside validating it, small enough
// that a feed of a few hundred kilobytes keeps every core busy.
const skimPieceBytes = 16 << 10

// maxPieces bounds the pieces of one skim (the claim word counts them in 16
// bits); a remainder longer than maxPieces nominal pieces gets longer ones.
const maxPieces = 1 << 12

// pieceBelow stands in for the unknown number of elements open beneath a
// piece's start: a level in piece mode is pieceBelow above the piece's own.
const pieceBelow = 1 << 30

// maxHelpers bounds the helper goroutines, and the tasks queued for them.
const maxHelpers = 64

// helperLinger is how long a helper that has run out of pieces keeps looking
// for the next skim before it blocks. A blocked goroutine woken by a channel
// send waits in the sender's run queue until another core steals it, which
// took 75 µs on average on a 2-core VM — more than two 16 KiB pieces — and
// a matching loop posts its next skim within a few tens of microseconds. A
// lingering helper yields between looks, so it takes no time a runnable
// goroutine wants.
const helperLinger = 200 * time.Microsecond

// Piece states: open (unclaimed, or claimed and being validated), done (a
// helper's result is ready) and taken (the cursor validates it itself).
const (
	pieceOpen uint32 = iota
	pieceDone
	pieceTaken
)

// skimJob is one tokenizer's split remainder, reused from skim to skim.
type skimJob struct {
	// claim is gen<<32 | n<<16 | next: the generation of the skim, its
	// number of pieces, and the first piece no one has claimed. Pieces are
	// claimed by advancing next, only while gen is the claimer's.
	claim atomic.Uint64

	// Set by the cursor before it publishes a generation, read by helpers
	// after they claim a piece of it.
	gen      uint32
	data     []byte
	maxToken int
	pieces   []skimPiece // pieces[0] is the cursor's own stretch
	n        int

	// cur is the cursor's: the first piece whose start it has not reached.
	cur int
}

// skimPiece is one piece: its bounds, and what the helper that validated it
// found. The helper writes the results before it stores pieceDone; the
// cursor reads them after it loads it.
type skimPiece struct {
	start, end int // from a '<' to the next piece's start
	state      atomic.Uint32

	faulted bool         // the helper panicked
	stop    int          // where the kernel stopped: end, or a construct it left
	peak    int          // the deepest level before stop, pieceBelow-based
	spans   []span       // the piece's elements still open at stop
	closes  []pieceClose // its end tags of elements opened before it
}

// pieceClose is an end tag of an element opened before its piece: the span
// of its name (the '<' is two bytes before it) and the deepest level the
// piece reached before it.
type pieceClose struct {
	name span
	peak int
}

// skimFault, when set, is called as a piece's validation begins, on the
// goroutine that validates it: the fault-isolation tests' hook.
var skimFault func(piece int)

// split splits the remainder from t.pos into pieces and sets helpers on
// them, or returns nil where the skim stays sequential: a streaming
// tokenizer, one core, or a remainder shorter than two pieces. Under the
// test seam (t.pieceSize) it splits at that size however many cores there
// are, and the cursor validates every piece in piece mode before its own
// pass, so that each piece's adoption is exercised deterministically.
func (t *TokenizerBytes) split() *skimJob {
	size, helpers := t.pieceSize, 0
	if size == 0 {
		size, helpers = skimPieceBytes, runtime.GOMAXPROCS(0)-1
		if helpers == 0 {
			return nil
		}
	}
	data, from := t.data, t.pos
	if t.streaming || len(data)-from < 2*size {
		return nil
	}
	size = max(size, (len(data)-from)/maxPieces)
	j := t.job
	if j == nil {
		j = new(skimJob)
		t.job = j
	}
	j.n = 0
	j.add(from)
	last := from
	for at := from + size; at < len(data)-size/2 && j.n < maxPieces; at = max(at+size, last+1) {
		i := bytes.IndexByte(data[at:], '<')
		if i < 0 {
			break
		}
		last = at + i
		j.add(last)
	}
	if j.n < 2 {
		return nil
	}
	for i := 0; i < j.n-1; i++ {
		j.pieces[i].end = j.pieces[i+1].start
	}
	j.pieces[j.n-1].end = len(data)
	j.gen++
	j.data, j.maxToken, j.cur = data, t.lim.MaxTokenBytes, 1
	j.claim.Store(uint64(j.gen)<<32 | uint64(j.n)<<16 | 1)
	if helpers == 0 {
		j.help(j.gen)
	} else {
		j.post(min(helpers, j.n-1))
	}
	return j
}

// add appends a piece starting at start.
func (j *skimJob) add(start int) {
	if j.n == len(j.pieces) {
		j.pieces = append(j.pieces, skimPiece{})
	}
	s := &j.pieces[j.n]
	s.start, s.faulted = start, false
	s.state.Store(pieceOpen)
	j.n++
}

// next returns the start of the first piece at or past pos, the cursor, or
// the end of the input; the pieces the cursor has passed over are taken from
// the helpers, which have no use for them.
func (j *skimJob) next(pos int) int {
	for j.cur < j.n && j.pieces[j.cur].start < pos {
		j.take(j.cur)
		j.cur++
	}
	if j.cur == j.n {
		return len(j.data)
	}
	return j.pieces[j.cur].start
}

// reach is the cursor landing on the start of piece j.cur: it adopts the
// piece if a helper has validated it, and validates it itself if no helper
// has claimed it. While a helper is still on it, the cursor validates a
// later piece in piece mode meanwhile, or waits when none is left.
func (j *skimJob) reach(t *TokenizerBytes) {
	s := &j.pieces[j.cur]
	for {
		if s.state.Load() == pieceDone {
			if t.adopt(s) {
				t.skimPieces++
			}
			break
		}
		if j.take(j.cur) || !j.claimNext(j.gen) {
			if s.state.Load() == pieceTaken {
				break
			}
			runtime.Gosched()
		}
	}
	j.cur++
}

// take claims every unclaimed piece up to i for the cursor and reports
// whether i was among them.
func (j *skimJob) take(i int) bool {
	for {
		w := j.claim.Load()
		next := int(uint16(w))
		if next > i {
			return false
		}
		if j.claim.CompareAndSwap(w, w+uint64(i+1-next)) {
			for ; next <= i; next++ {
				j.pieces[next].state.Store(pieceTaken)
			}
			return true
		}
	}
}

// claimNext claims the first unclaimed piece of generation gen and validates
// it in piece mode. It reports false, having read nothing else of the job,
// when every piece is claimed or the skim of gen is over.
func (j *skimJob) claimNext(gen uint32) bool {
	for {
		w := j.claim.Load()
		if uint32(w>>32) != gen || uint16(w) >= uint16(w>>16) {
			return false
		}
		if j.claim.CompareAndSwap(w, w+1) {
			j.validate(int(uint16(w)))
			return true
		}
	}
}

// help is a helper's share of the skim of generation gen: pieces, in order,
// until none is left.
func (j *skimJob) help(gen uint32) {
	for j.claimNext(gen) {
	}
}

// validate runs the kernel over piece i in piece mode and publishes what it
// found. A panic is recovered and marks the piece faulted: the cursor then
// validates the piece itself, on the code that runs without pieces, so a
// fault a helper cannot survive surfaces there, on the caller's goroutine,
// and nowhere else.
func (j *skimJob) validate(i int) {
	s := &j.pieces[i]
	defer func() {
		s.faulted = recover() != nil
		s.state.Store(pieceDone)
	}()
	if skimFault != nil {
		skimFault(i)
	}
	k := skimState{spans: s.spans[:0], below: pieceBelow, piece: true, closes: s.closes[:0]}
	// A token breach stops the kernel at the run's start, where the cursor
	// finds it again.
	s.stop, _ = k.kernel(j.data[:s.end], s.start, 0, j.maxToken)
	s.spans, s.closes, s.peak = k.spans, k.closes, k.deepest
}

// finish ends the skim's claims and waits for the pieces helpers are still
// on, so that none reads the document once Skim has returned.
func (j *skimJob) finish() {
	for {
		w := j.claim.Load()
		if j.claim.CompareAndSwap(w, w&^0xffff|w>>16&0xffff) {
			for i := 1; i < int(uint16(w)); i++ {
				for j.pieces[i].state.Load() == pieceOpen {
					runtime.Gosched()
				}
			}
			j.data = nil
			return
		}
	}
}

// adopt takes over what a helper validated of piece s, whose start the
// cursor has reached, and reports whether that was anything. The recorded
// end tags close the cursor's open elements, innermost first, as long as
// their names match and the root is still open: at a mismatch the cursor
// resumes at the end tag, which the sequential path then reports; after the
// root's end tag it resumes just past it, since the helper took what
// follows for content of the root. Otherwise it takes the whole stretch the
// helper validated and the elements it left open. A stretch that would go
// deeper than MaxDepth is not taken at all, nor is anything outside the
// root.
func (t *TokenizerBytes) adopt(s *skimPiece) bool {
	open := t.depth()
	if s.faulted || open == 0 {
		return false
	}
	taken, resume, peak := len(s.closes), s.stop, s.peak
	for i, c := range s.closes {
		if !t.opens(i, c.name) {
			taken, resume, peak = i, c.name.start-2, c.peak
			break
		}
		if i+1 == open {
			taken, resume, peak = open, c.name.end+1, c.peak
			break
		}
	}
	level := open + peak - pieceBelow
	if t.lim.MaxDepth > 0 && level > t.lim.MaxDepth {
		return false
	}
	t.deepest = max(t.deepest, level)
	n := min(taken, len(t.spans))
	t.spans = t.spans[:len(t.spans)-n]
	t.stack = t.stack[:len(t.stack)-(taken-n)]
	switch {
	case taken == open:
		t.rootSeen = true
	case resume == s.stop:
		t.spans = append(t.spans, s.spans...)
	}
	t.pos = resume
	return resume > s.start
}

// opens reports whether the i-th innermost open element (0 the innermost)
// is named by the window span name.
func (t *TokenizerBytes) opens(i int, name span) bool {
	if n := len(t.spans); i < n {
		return bytes.Equal(t.data[t.spans[n-1-i].start:t.spans[n-1-i].end], t.data[name.start:name.end])
	}
	return t.isNamed(t.stack[len(t.stack)-1-(i-len(t.spans))], t.data, name.start, name.end)
}

// SkimPieces reports how many pieces of the last Skim a helper validated and
// the skim adopted: 0 when the remainder was not split.
func (t *TokenizerBytes) SkimPieces() int { return t.skimPieces }

// skimTask is a helper's assignment: a job, and the generation of the skim
// it was posted for.
type skimTask struct {
	job *skimJob
	gen uint32
}

// skimTasks holds up to one task per helper goroutine there can be, so a
// skim posting to idle helpers never blocks; skimHelpers counts the helpers
// started.
var (
	skimTasks   = make(chan skimTask, maxHelpers)
	skimHelpers atomic.Int32
)

// post offers the skim to up to helpers helper goroutines, starting them
// the first time they are wanted. A task that finds the queue full is
// dropped: the helpers already have work, and the cursor takes the pieces
// no one claims.
func (j *skimJob) post(helpers int) {
	helpers = min(helpers, maxHelpers)
	for h := skimHelpers.Load(); h < int32(helpers); h = skimHelpers.Load() {
		if skimHelpers.CompareAndSwap(h, h+1) {
			go skimHelper()
		}
	}
	for ; helpers > 0; helpers-- {
		select {
		case skimTasks <- skimTask{j, j.gen}:
		default:
			return
		}
	}
}

// skimHelper is a helper goroutine: it lives for the process and takes
// pieces of whatever skim it is offered, lingering after each (see
// helperLinger).
func skimHelper() {
	for task := range skimTasks {
		task.job.help(task.gen)
		for idle := time.Now(); time.Since(idle) < helperLinger; {
			select {
			case task = <-skimTasks:
				task.job.help(task.gen)
				idle = time.Now()
			default:
				runtime.Gosched()
			}
		}
	}
}
