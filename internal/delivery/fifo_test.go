package delivery

import "testing"

// TestFIFOFollowsBacklog drives the ring through growth, wrap-around and
// shrinking against a plain slice: records leave oldest first, and the
// backing array grows with the backlog and falls back to minFIFO as it
// drains.
func TestFIFOFollowsBacklog(t *testing.T) {
	var q fifo
	var want []*Record
	check := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := q.pop(); got != want[0] {
				t.Fatalf("pop %d: got record %s, want %s", i, got.SubID, want[0].SubID)
			}
			want = want[1:]
		}
		if q.n != len(want) {
			t.Fatalf("fifo holds %d, want %d", q.n, len(want))
		}
	}
	seq := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			rec := &Record{SubID: string(rune('a' + seq%26))}
			seq++
			q.push(rec)
			want = append(want, rec)
		}
	}
	// Keep a few records queued while the head walks round the ring.
	for i := 0; i < 40; i++ {
		push(3)
		check(2)
	}
	if len(q.buf) != 64 {
		t.Fatalf("a backlog of %d records sits in %d slots, want 64", q.n, len(q.buf))
	}
	push(5000)
	peak := len(q.buf)
	if peak < q.n || peak > 2*q.n {
		t.Fatalf("a backlog of %d records sits in %d slots", q.n, peak)
	}
	check(len(want))
	if len(q.buf) != minFIFO {
		t.Fatalf("drained fifo keeps %d slots, want %d", len(q.buf), minFIFO)
	}
	push(7)
	taken := q.takeAll()
	if len(taken) != 7 || taken[0] != want[0] || taken[6] != want[6] || q.n != 0 || q.buf != nil {
		t.Fatalf("takeAll returned %d records and left %d queued in %d slots", len(taken), q.n, len(q.buf))
	}
}
