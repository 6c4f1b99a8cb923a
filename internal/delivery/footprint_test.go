//go:build !race

package delivery

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// heapAfterGC is the live heap: HeapAlloc after two collections, the second
// of which frees what the first one's finalizers and sweep left behind.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleTenantFootprint pins what a tenant's pump holds while nothing is
// queued: its workers, breakers and counters, not its QueueDepth (a
// preallocated queue of 1<<18 slots held 2 MiB per tenant). Then a
// 20,000-record backlog against a slow receiver must give its memory back
// once it drains.
func TestIdleTenantFootprint(t *testing.T) {
	const tenants, burst = 64, 20000
	// A POST waits for the gate to close: open for the idle tenants, shut
	// while the burst queues up.
	var gate atomic.Pointer[chan struct{}]
	open := make(chan struct{})
	close(open)
	gate.Store(&open)
	doer := DoerFunc(func(r *http.Request) (*http.Response, error) {
		<-*gate.Load()
		return httpResp(200), nil
	})
	m := NewManager(Config{Client: doer, QueueDepth: 1 << 18})
	defer m.Close()
	hook := Webhook{URL: "http://sink.invalid/hook"}
	payload := []byte(`{}`)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}

	before := heapAfterGC()
	pumps := make([]*Pump, tenants)
	for i, name := range names {
		pumps[i] = m.Open(name)
		if !pumps[i].Enqueue("s", hook, payload) {
			t.Fatalf("%s: enqueue shed", name)
		}
	}
	for i, p := range pumps {
		waitUntil(t, 5*time.Second, names[i]+" delivered", func() bool { return p.Stats().Successes == 1 })
	}
	held := heapAfterGC()
	per := float64(held-before) / tenants
	t.Logf("%.0f bytes per idle tenant", per)
	if per > 16<<10 {
		t.Errorf("an idle tenant holds %.0f bytes, want at most %d", per, 16<<10)
	}

	slow := make(chan struct{})
	gate.Store(&slow)
	p := pumps[0]
	for i := 0; i < burst; i++ {
		if !p.Enqueue("s", hook, payload) {
			t.Fatalf("burst record %d shed", i)
		}
	}
	if q := p.Stats().Queued; q < burst-int64(m.cfg.Workers) {
		t.Fatalf("%d records queued behind the slow receiver, want at least %d", q, burst-m.cfg.Workers)
	}
	close(slow)
	waitUntil(t, 30*time.Second, "burst drained", func() bool { return p.Stats().Outstanding == 0 })
	if after := heapAfterGC(); after > held+64<<10 {
		t.Errorf("a drained %d-record backlog left the heap at %d bytes, up from %d", burst, after, held)
	}
}
