package delivery

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// httpResp builds a minimal response for fake Doers.
func httpResp(code int) *http.Response {
	return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader(""))}
}

// checkInvariant asserts the drain accounting identity: every admitted
// record reached exactly one terminal outcome.
func checkInvariant(t *testing.T, s Stats) {
	t.Helper()
	if s.Enqueued != s.Successes+s.DeadLetters+s.Abandoned {
		t.Errorf("accounting broken: enqueued %d != successes %d + deadletters %d + abandoned %d",
			s.Enqueued, s.Successes, s.DeadLetters, s.Abandoned)
	}
	if s.Outstanding != 0 {
		t.Errorf("outstanding %d after drain, want 0", s.Outstanding)
	}
}

// TestRetryBackoffDeterministic drives one delivery through three
// failures on a fake clock and pins the exact backoff schedule the
// manager arms: full-jitter with the jitter source pinned to 1 must
// produce the pure exponential envelope, and no retry may fire before
// its timer.
func TestRetryBackoffDeterministic(t *testing.T) {
	clock := newFakeClock()
	var calls int
	var mu sync.Mutex
	doer := DoerFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 3 {
			return httpResp(500), nil
		}
		return httpResp(200), nil
	})
	m := NewManager(Config{
		Clock:            clock,
		Client:           doer,
		Workers:          1,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       10 * time.Second,
		MaxAttempts:      5,
		BreakerThreshold: 100, // keep the circuit out of this test
		Jitter:           func() float64 { return 1 },
	})
	defer m.Close()
	p := m.Open("t")

	if !p.Enqueue("sub", Webhook{URL: "http://sink.invalid/hook"}, []byte(`{"n":1}`)) {
		t.Fatal("enqueue shed")
	}
	// Each failure parks the record on exactly one timer; fire it and
	// the next failure parks the next one.
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		waitUntil(t, 5*time.Second, fmt.Sprintf("retry timer %d", i+1), func() bool { return clock.pendingTimers() == 1 })
		sched := clock.scheduledDurations()
		if got := sched[len(sched)-1]; got != want {
			t.Fatalf("retry %d scheduled after %v, want %v", i+1, got, want)
		}
		// Time short of the backoff must not release the retry.
		clock.Advance(want - time.Millisecond)
		if s := p.Stats(); s.Attempts != int64(i+1) {
			t.Fatalf("retry %d fired early: %d attempts", i+1, s.Attempts)
		}
		clock.Advance(time.Millisecond)
	}
	waitUntil(t, 5*time.Second, "delivery", func() bool { return p.Stats().Successes == 1 })

	s := p.Stats()
	if s.Attempts != 4 || s.Failures != 3 || s.Retries != 3 || s.DeadLetters != 0 {
		t.Fatalf("stats %+v, want 4 attempts / 3 failures / 3 retries", s)
	}
	checkInvariant(t, s)
}

// TestBreakerDefersWithoutBurningAttempts pins the breaker/retry
// interplay on a fake clock: once the circuit opens, a due retry is
// parked until the cooldown WITHOUT consuming an attempt, and the
// half-open probe that then fails both re-opens the circuit and — the
// attempt budget being genuinely exhausted — dead-letters the record
// with exactly MaxAttempts accounted.
func TestBreakerDefersWithoutBurningAttempts(t *testing.T) {
	clock := newFakeClock()
	doer := DoerFunc(func(r *http.Request) (*http.Response, error) { return httpResp(503), nil })
	m := NewManager(Config{
		Clock:            clock,
		Client:           doer,
		Workers:          1,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       10 * time.Millisecond,
		MaxAttempts:      3,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
		Jitter:           func() float64 { return 1 },
	})
	defer m.Close()
	p := m.Open("t")

	if !p.Enqueue("doomed", Webhook{URL: "http://dead.invalid/hook"}, []byte(`{}`)) {
		t.Fatal("enqueue shed")
	}
	// Attempt 1 fails, retry parked 10ms out.
	waitUntil(t, 5*time.Second, "first retry parked", func() bool { return clock.pendingTimers() == 1 })
	clock.Advance(10 * time.Millisecond)
	// Attempt 2 fails and trips the breaker (threshold 2); the retry
	// parks again.
	waitUntil(t, 5*time.Second, "second retry parked", func() bool {
		s := p.Stats()
		return s.Attempts == 2 && clock.pendingTimers() == 1
	})
	clock.Advance(10 * time.Millisecond)
	// The due retry meets an open circuit: it parks until the cooldown
	// and attempts stays at 2 — the deferral burned no budget.
	waitUntil(t, 5*time.Second, "breaker deferral parked", func() bool { return clock.pendingTimers() == 1 })
	s := p.Stats()
	if s.Attempts != 2 {
		t.Fatalf("breaker deferral consumed an attempt: %d", s.Attempts)
	}
	if len(s.Breakers) != 1 || s.Breakers[0].State != BreakerOpen {
		t.Fatalf("breakers %+v, want one open", s.Breakers)
	}
	if s.Retries != 2 {
		t.Fatalf("retries %d, want 2 (deferrals are not retries)", s.Retries)
	}
	// Cooldown expiry: the half-open probe runs, fails, exhausts the
	// budget, and the record dead-letters with all 3 attempts accounted.
	clock.Advance(time.Second)
	waitUntil(t, 5*time.Second, "dead letter", func() bool { return p.Stats().DeadLetters == 1 })
	s = p.Stats()
	if s.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", s.Attempts)
	}
	if s.Breakers[0].State != BreakerOpen {
		t.Fatalf("breaker %v after failed probe, want open", s.Breakers[0].State)
	}
	letters, dropped := p.DeadLetters()
	if len(letters) != 1 || dropped != 0 {
		t.Fatalf("dead letters %d dropped %d", len(letters), dropped)
	}
	dl := letters[0]
	if dl.Subscription != "doomed" || dl.Attempts != 3 || dl.LastError == "" {
		t.Fatalf("dead letter %+v", dl)
	}
	checkInvariant(t, s)
}

// TestFlakySucceedAfterNLosesNothing is the recovery acceptance test:
// a receiver that fails every delivery's first two attempts and then
// recovers loses zero deliveries — every payload arrives exactly once
// and the attempt accounting is exact.
func TestFlakySucceedAfterNLosesNothing(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction {
		if attempt < 3 {
			if attempt == 1 {
				return act500
			}
			return actRefuse // mix status failures with connection aborts
		}
		return actOK
	})
	defer recv.Close()

	const records = 25
	m := NewManager(Config{
		Workers:          4,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		MaxAttempts:      5,
		BreakerThreshold: 1000, // isolation covered elsewhere
	})
	p := m.Open("t")
	for i := 0; i < records; i++ {
		if !p.Enqueue("sub", Webhook{URL: recv.URL()}, []byte(fmt.Sprintf(`{"seq":%d}`, i))) {
			t.Fatalf("enqueue %d shed", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d deliveries", abandoned)
	}
	s := p.Stats()
	if s.Successes != records || s.DeadLetters != 0 {
		t.Fatalf("successes %d deadletters %d, want %d/0", s.Successes, s.DeadLetters, records)
	}
	if s.Attempts != records*3 || s.Retries != records*2 {
		t.Fatalf("attempts %d retries %d, want %d/%d", s.Attempts, s.Retries, records*3, records*2)
	}
	checkInvariant(t, s)
	got := recv.delivered()
	if len(got) != records {
		t.Fatalf("receiver acknowledged %d payloads, want %d", len(got), records)
	}
	seen := make(map[string]bool)
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate delivery %s", p)
		}
		seen[p] = true
	}
}

// TestDeadEndpointIsolation runs a permanently dead endpoint and a
// healthy one under the same tenant: the healthy subscriber's
// deliveries all land while the dead one trips its breaker and
// dead-letters every record with the full attempt budget accounted.
func TestDeadEndpointIsolation(t *testing.T) {
	dead := newFlakyReceiver(func(n, attempt int) flakyAction { return act500 })
	defer dead.Close()
	healthy := newFlakyReceiver(nil)
	defer healthy.Close()

	const deadRecs, okRecs = 3, 10
	m := NewManager(Config{
		Workers:          4,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		MaxAttempts:      4,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
	})
	p := m.Open("t")
	for i := 0; i < deadRecs; i++ {
		p.Enqueue("dead", Webhook{URL: dead.URL()}, []byte(fmt.Sprintf(`{"dead":%d}`, i)))
	}
	for i := 0; i < okRecs; i++ {
		p.Enqueue("ok", Webhook{URL: healthy.URL()}, []byte(fmt.Sprintf(`{"ok":%d}`, i)))
	}
	// The healthy endpoint must not wait for the dead one's breaker
	// dance: its deliveries complete while dead records are still being
	// retried.
	waitUntil(t, 10*time.Second, "healthy deliveries", func() bool {
		return len(healthy.delivered()) == okRecs
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d", abandoned)
	}
	s := p.Stats()
	if s.Successes != okRecs || s.DeadLetters != deadRecs {
		t.Fatalf("successes %d deadletters %d, want %d/%d", s.Successes, s.DeadLetters, okRecs, deadRecs)
	}
	letters, _ := p.DeadLetters()
	if len(letters) != deadRecs {
		t.Fatalf("%d dead letters, want %d", len(letters), deadRecs)
	}
	for _, dl := range letters {
		if dl.Subscription != "dead" || dl.Attempts != 4 {
			t.Fatalf("dead letter %+v, want subscription dead with 4 attempts", dl)
		}
	}
	// The breaker tripped: the dead endpoint saw fewer raw requests
	// than unmediated retries would send only if deferrals happened,
	// but the hard guarantee is its terminal state and the healthy
	// circuit staying closed.
	var deadState, okState BreakerState = -1, -1
	for _, b := range s.Breakers {
		switch b.URL {
		case dead.URL():
			deadState = b.State
		case healthy.URL():
			okState = b.State
		}
	}
	if deadState != BreakerOpen {
		t.Errorf("dead endpoint breaker %v, want open", deadState)
	}
	if okState != BreakerClosed {
		t.Errorf("healthy endpoint breaker %v, want closed", okState)
	}
	checkInvariant(t, s)
}

// TestOverflowSheds pins the bounded-queue degradation: with the single
// worker wedged on a hanging endpoint and the queue full, Enqueue
// refuses immediately (never blocks) and counts the shed.
func TestOverflowSheds(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	recv := newFlakyReceiver(func(n, attempt int) flakyAction {
		select {
		case <-release:
			return actOK
		default:
		}
		<-release
		return actOK
	})
	defer recv.Close()
	defer once.Do(func() { close(release) })

	m := NewManager(Config{QueueDepth: 2, Workers: 1, Timeout: 30 * time.Second})
	p := m.Open("t")
	hook := Webhook{URL: recv.URL()}
	if !p.Enqueue("s", hook, []byte(`{"n":0}`)) {
		t.Fatal("first enqueue shed")
	}
	// Wait for the worker to pull it and wedge in the receiver, so the
	// queue is provably empty again.
	waitUntil(t, 5*time.Second, "worker wedged", func() bool { return recv.seen() == 1 })
	for i := 1; i <= 2; i++ {
		if !p.Enqueue("s", hook, []byte(fmt.Sprintf(`{"n":%d}`, i))) {
			t.Fatalf("enqueue %d shed with queue space free", i)
		}
	}
	start := time.Now()
	if p.Enqueue("s", hook, []byte(`{"n":3}`)) {
		t.Fatal("overflow enqueue admitted")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, want immediate", elapsed)
	}
	if s := p.Stats(); s.Sheds != 1 || s.Enqueued != 3 {
		t.Fatalf("sheds %d enqueued %d, want 1/3", s.Sheds, s.Enqueued)
	}
	once.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d", abandoned)
	}
	s := p.Stats()
	if s.Successes != 3 {
		t.Fatalf("successes %d, want 3", s.Successes)
	}
	checkInvariant(t, s)
}

// TestDrainFlushesPending: a drain with budget left flushes every
// queued delivery against a live (if slow) receiver — nothing is
// abandoned.
func TestDrainFlushesPending(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction {
		time.Sleep(2 * time.Millisecond)
		return actOK
	})
	defer recv.Close()
	m := NewManager(Config{Workers: 2})
	p := m.Open("t")
	const records = 20
	for i := 0; i < records; i++ {
		p.Enqueue("s", Webhook{URL: recv.URL()}, []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d", abandoned)
	}
	s := p.Stats()
	if s.Successes != records {
		t.Fatalf("successes %d, want %d", s.Successes, records)
	}
	checkInvariant(t, s)
}

// TestDrainAbandonsOnExpiry: when the drain window expires with a
// receiver hanging, every remaining record — queued, parked, and in
// flight — is accounted as abandoned, workers exit, and no goroutines
// leak.
func TestDrainAbandonsOnExpiry(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction { return actHang })
	defer recv.Close()
	before := runtime.NumGoroutine()

	m := NewManager(Config{Workers: 2, Timeout: 30 * time.Second, QueueDepth: 16})
	p := m.Open("t")
	const records = 5
	for i := 0; i < records; i++ {
		if !p.Enqueue("s", Webhook{URL: recv.URL()}, []byte(`{}`)) {
			t.Fatalf("enqueue %d shed", i)
		}
	}
	waitUntil(t, 5*time.Second, "workers wedged", func() bool { return recv.seen() >= 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	abandoned := m.Drain(ctx)
	if abandoned != records {
		t.Fatalf("abandoned %d, want %d", abandoned, records)
	}
	s := p.Stats()
	if s.Abandoned != records || s.Successes != 0 {
		t.Fatalf("stats %+v", s)
	}
	checkInvariant(t, s)
	// Drain tore the workers and timers down: the goroutine population
	// returns to (near) its pre-manager level once the canceled HTTP
	// handlers unwind.
	waitUntil(t, 5*time.Second, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}

// TestDropTenant tears one tenant's pump down without touching others.
func TestDropTenant(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction { return actHang })
	defer recv.Close()
	healthy := newFlakyReceiver(nil)
	defer healthy.Close()

	m := NewManager(Config{Workers: 1, Timeout: 30 * time.Second})
	defer m.Close()
	gone, stays := m.Open("gone"), m.Open("stays")
	gone.Enqueue("s", Webhook{URL: recv.URL()}, []byte(`{}`))
	stays.Enqueue("s", Webhook{URL: healthy.URL()}, []byte(`{}`))
	waitUntil(t, 5*time.Second, "hang engaged", func() bool { return recv.seen() == 1 })

	gone.Drop()
	if s := m.Stats("gone"); s.Enqueued != 0 {
		t.Fatalf("dropped tenant still visible: %+v", s)
	}
	waitUntil(t, 5*time.Second, "surviving tenant delivery", func() bool {
		return m.Stats("stays").Successes == 1
	})
}

// TestDeliveryHammer exercises concurrent enqueues across tenants with
// deterministic per-record flakiness under -race, then drains and
// checks the exact accounting identity on every tenant.
func TestDeliveryHammer(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction {
		if attempt < 3 {
			return act500
		}
		return actOK
	})
	defer recv.Close()

	tenants := []string{"a", "b", "c"}
	perTenant := 40
	if testing.Short() {
		perTenant = 12
	}
	m := NewManager(Config{
		Workers:          4,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		MaxAttempts:      6,
		BreakerThreshold: 10000,
	})
	pumps := make(map[string]*Pump, len(tenants))
	for _, tn := range tenants {
		pumps[tn] = m.Open(tn)
	}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(tn string, g int) {
				defer wg.Done()
				for i := 0; i < perTenant/4; i++ {
					if !pumps[tn].Enqueue("s", Webhook{URL: recv.URL()}, []byte(fmt.Sprintf(`{"t":%q,"g":%d,"i":%d}`, tn, g, i))) {
						t.Errorf("tenant %s shed", tn)
						return
					}
				}
			}(tn, g)
		}
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d", abandoned)
	}
	for _, tn := range tenants {
		s := pumps[tn].Stats()
		if s.Successes != int64(perTenant) || s.DeadLetters != 0 {
			t.Errorf("tenant %s: successes %d deadletters %d, want %d/0", tn, s.Successes, s.DeadLetters, perTenant)
		}
		checkInvariant(t, s)
	}
	if got, want := len(recv.delivered()), perTenant*len(tenants); got != want {
		t.Fatalf("receiver acknowledged %d, want %d", got, want)
	}
}

// TestDefaultClientKeepsAConnectionPerWorker: the default client holds as
// many idle connections to an endpoint as the tenant has workers. 400
// deliveries arrive in waves of 4 — the endpoint answers a wave only once all
// four requests are in, so each wave needs four connections, and between
// waves all four are idle. On http.DefaultTransport's 2 idle connections per
// host every wave closes two and the next dials two (about 200 dials); the
// manager's own transport dials 4 times in all.
func TestDefaultClientKeepsAConnectionPerWorker(t *testing.T) {
	const workers, waves = 4, 100
	var (
		dials   atomic.Int64
		mu      sync.Mutex
		arrived int
		wave    = make(chan struct{})
	)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		mu.Lock()
		arrived++
		full := wave
		if arrived == workers {
			arrived, wave = 0, make(chan struct{})
			close(full)
		}
		mu.Unlock()
		select {
		case <-full:
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	m := NewManager(Config{Workers: workers})
	defer m.Close()
	p := m.Open("t")
	for i := 1; i <= waves; i++ {
		for j := 0; j < workers; j++ {
			if !p.Enqueue("s", Webhook{URL: srv.URL}, []byte(`{}`)) {
				t.Fatalf("wave %d: delivery shed", i)
			}
		}
		waitUntil(t, 10*time.Second, fmt.Sprintf("wave %d", i), func() bool { return p.Stats().Successes == int64(i*workers) })
	}
	if n := dials.Load(); n > workers {
		t.Errorf("%d deliveries from %d workers opened %d connections, want at most %d", waves*workers, workers, n, workers)
	}
}

// TestDeadLetterRingEviction bounds the ring: depth 2 with three
// exhausted records keeps the two newest and counts the eviction.
func TestDeadLetterRingEviction(t *testing.T) {
	recv := newFlakyReceiver(func(n, attempt int) flakyAction { return act500 })
	defer recv.Close()
	m := NewManager(Config{
		Workers:          1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       time.Millisecond,
		MaxAttempts:      1,
		BreakerThreshold: 100,
		DeadLetterDepth:  2,
	})
	p := m.Open("t")
	for i := 0; i < 3; i++ {
		p.Enqueue(fmt.Sprintf("s%d", i), Webhook{URL: recv.URL()}, []byte(`{}`))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.Drain(ctx)
	letters, dropped := p.DeadLetters()
	if len(letters) != 2 || dropped != 1 {
		t.Fatalf("ring %d letters %d dropped, want 2/1", len(letters), dropped)
	}
	if letters[0].Subscription != "s1" || letters[1].Subscription != "s2" {
		t.Fatalf("ring kept %s,%s want s1,s2", letters[0].Subscription, letters[1].Subscription)
	}
}

// TestRetryNeverBlocksOnFullQueue: QueueDepth bounds fresh records only. With
// the one worker wedged and a fresh record filling the queue, a parked retry
// whose timer fires goes onto the queue past the bound at once — its timer
// goroutine does not wait for a worker — and is not shed.
func TestRetryNeverBlocksOnFullQueue(t *testing.T) {
	clock := newFakeClock()
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	defer unwedge()
	var mu sync.Mutex
	tries := make(map[string]int)
	doer := DoerFunc(func(r *http.Request) (*http.Response, error) {
		sub := r.Header.Get("X-Xpfilterd-Subscription")
		mu.Lock()
		tries[sub]++
		n := tries[sub]
		mu.Unlock()
		switch {
		case sub == "retry" && n == 1:
			return httpResp(500), nil
		case sub == "wedge":
			select {
			case <-release:
			case <-r.Context().Done():
				return nil, r.Context().Err()
			}
		}
		return httpResp(200), nil
	})
	seen := func(sub string) int {
		mu.Lock()
		defer mu.Unlock()
		return tries[sub]
	}
	m := NewManager(Config{
		Clock:            clock,
		Client:           doer,
		QueueDepth:       1,
		Workers:          1,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 100,
		Jitter:           func() float64 { return 1 },
	})
	defer m.Close()
	p := m.Open("t")
	hook := Webhook{URL: "http://sink.invalid/hook"}

	if !p.Enqueue("retry", hook, []byte(`{}`)) {
		t.Fatal("retry record shed")
	}
	waitUntil(t, 5*time.Second, "retry parked", func() bool { return clock.pendingTimers() == 1 })
	if !p.Enqueue("wedge", hook, []byte(`{}`)) {
		t.Fatal("wedge record shed")
	}
	waitUntil(t, 5*time.Second, "worker wedged", func() bool { return seen("wedge") == 1 })
	if !p.Enqueue("fresh", hook, []byte(`{}`)) {
		t.Fatal("fresh record shed with the queue empty")
	}
	if p.Enqueue("over", hook, []byte(`{}`)) {
		t.Fatal("fresh record admitted past QueueDepth")
	}

	clock.Advance(100 * time.Millisecond)
	waitUntil(t, 5*time.Second, "retry queued past the bound", func() bool { return p.Stats().Queued == 2 })
	if s := p.Stats(); s.Sheds != 1 || s.Retries != 1 || s.Enqueued != 3 {
		t.Fatalf("sheds %d retries %d enqueued %d, want 1/1/3", s.Sheds, s.Retries, s.Enqueued)
	}

	unwedge()
	waitUntil(t, 5*time.Second, "every record delivered", func() bool { return p.Stats().Successes == 3 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if abandoned := m.Drain(ctx); abandoned != 0 {
		t.Fatalf("abandoned %d", abandoned)
	}
	s := p.Stats()
	if s.Queued != 0 || s.Sheds != 1 {
		t.Fatalf("queued %d sheds %d after drain, want 0/1", s.Queued, s.Sheds)
	}
	checkInvariant(t, s)
}
