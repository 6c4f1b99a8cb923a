package delivery

// minFIFO is the smallest backing array a fifo keeps: room for the few
// records a healthy tenant has queued at once, so a steady trickle neither
// grows nor shrinks it.
const minFIFO = 16

// fifo is a pump's queue of records waiting for a worker: a ring whose
// backing array doubles when the backlog fills it and halves when the
// backlog falls to a quarter of it, so what it holds follows the backlog,
// not the bound on it. Its owner serializes access.
type fifo struct {
	buf  []*Record
	head int // index of the oldest record
	n    int // records queued
}

// push appends rec at the tail.
func (q *fifo) push(rec *Record) {
	if q.n == len(q.buf) {
		q.resize(max(2*q.n, minFIFO))
	}
	q.buf[(q.head+q.n)%len(q.buf)] = rec
	q.n++
}

// pop removes and returns the oldest record; the fifo must not be empty.
func (q *fifo) pop() *Record {
	rec := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if len(q.buf) > minFIFO && q.n <= len(q.buf)/4 {
		q.resize(len(q.buf) / 2)
	}
	return rec
}

// takeAll empties the fifo and releases its array, returning the records
// oldest first.
func (q *fifo) takeAll() []*Record {
	out := make([]*Record, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	*q = fifo{}
	return out
}

// resize moves the queued records, oldest first, into a fresh array of
// size slots.
func (q *fifo) resize(size int) {
	buf := make([]*Record, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}
