// Package delivery is the outbound side of the dissemination daemon:
// it turns match verdicts into webhook POSTs with production-grade
// failure handling. Each tenant owns a pump (Manager.Open): a queue of
// records drained by worker goroutines. The queue's depth bounds the
// admission of fresh records — an Enqueue past it sheds, never blocks —
// but is not preallocated: the queue's memory follows its backlog and is
// released as the backlog drains. Failed attempts retry with exponential
// backoff and full jitter, and a retry re-enters the queue past the
// bound, without waiting and without being shed. A per-endpoint circuit
// breaker keeps one dead subscriber from starving retries for healthy
// ones, and deliveries that exhaust their attempt budget land in a
// per-tenant dead-letter ring. All timing goes through an injectable
// Clock so backoff and breaker transitions are deterministically
// unit-testable.
package delivery

import "time"

// Clock abstracts wall time for the manager: Now stamps records and
// drives breaker cooldowns, AfterFunc schedules retry wake-ups. The
// zero-config manager uses the real clock; tests inject a fake whose
// Advance fires timers deterministically.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f in its own goroutine after d elapses, returning
	// a handle whose Stop cancels a not-yet-fired timer.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the cancellation handle AfterFunc returns.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// realClock is the production Clock over package time.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// RealClock returns the wall-clock implementation used when
// Config.Clock is nil.
func RealClock() Clock { return realClock{} }
