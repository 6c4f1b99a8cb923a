package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServerTimeoutDefaults pins the hardened http.Server
// configuration: every timeout bounded by default, negative values
// disabling one explicitly.
func TestServerTimeoutDefaults(t *testing.T) {
	srv := New(Config{}, discardLogger())
	t.Cleanup(srv.Registry().Close)
	hs := srv.httpSrv
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 5*time.Minute {
		t.Errorf("ReadTimeout = %v", hs.ReadTimeout)
	}
	if hs.WriteTimeout != 5*time.Minute {
		t.Errorf("WriteTimeout = %v", hs.WriteTimeout)
	}

	srv2 := New(Config{IdleTimeout: -1, ReadTimeout: 2 * time.Second, WriteTimeout: -1}, discardLogger())
	t.Cleanup(srv2.Registry().Close)
	hs2 := srv2.httpSrv
	if hs2.IdleTimeout != 0 || hs2.ReadTimeout != 2*time.Second || hs2.WriteTimeout != 0 {
		t.Errorf("overrides: idle %v read %v write %v", hs2.IdleTimeout, hs2.ReadTimeout, hs2.WriteTimeout)
	}
}

// TestSlowLorisBodyDisconnected proves the ReadTimeout closes a
// connection whose client sends headers and then stalls mid-body —
// the slow-loris pattern ReadHeaderTimeout alone cannot catch.
func TestSlowLorisBodyDisconnected(t *testing.T) {
	cfg := Config{Addr: "127.0.0.1:0", ReadTimeout: 300 * time.Millisecond}
	srv := New(cfg, discardLogger())
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers complete promptly; the promised body never arrives.
	fmt.Fprintf(conn, "POST /v1/tenants/t/match HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n")

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server tore the connection down
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection survived a stalled body for %v; ReadTimeout not enforced", elapsed)
	}
}

// TestMaxSubscriptionsCap covers the satellite cap: the server default,
// the per-tenant override at creation, the explicit -1 unlimited
// escape, and that replaces and deletes keep working at the cap.
func TestMaxSubscriptionsCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSubs: 2})

	put := func(tenant, id, query string) resp {
		return do(t, "PUT", ts.URL+"/v1/tenants/"+tenant+"/subscriptions/"+id,
			strings.NewReader(query))
	}

	if r := put("acme", "a", "/news/item"); r.status != http.StatusCreated {
		t.Fatalf("a: %d %s", r.status, r.body)
	}
	if r := put("acme", "b", "/news//p"); r.status != http.StatusCreated {
		t.Fatalf("b: %d %s", r.status, r.body)
	}
	r := put("acme", "c", "/feed/entry")
	if r.status != http.StatusTooManyRequests || errCode(t, r) != "limit_exceeded" {
		t.Fatalf("over cap: status %d body %s", r.status, r.body)
	}
	// Replacing at the cap is fine — the set doesn't grow.
	if r := put("acme", "a", "/news/item/title"); r.status != http.StatusOK {
		t.Fatalf("replace at cap: %d %s", r.status, r.body)
	}
	// Deleting frees a slot.
	if r := do(t, "DELETE", ts.URL+"/v1/tenants/acme/subscriptions/b", nil); r.status != http.StatusOK {
		t.Fatalf("delete: %d %s", r.status, r.body)
	}
	if r := put("acme", "c", "/feed/entry"); r.status != http.StatusCreated {
		t.Fatalf("after delete: %d %s", r.status, r.body)
	}

	// Tenant-creation override: a tighter cap...
	if r := do(t, "PUT", ts.URL+"/v1/tenants/uno", strings.NewReader(`{"maxSubscriptions": 1}`)); r.status != http.StatusCreated {
		t.Fatalf("create uno: %d %s", r.status, r.body)
	}
	if r := put("uno", "only", "/news/item"); r.status != http.StatusCreated {
		t.Fatalf("uno first: %d %s", r.status, r.body)
	}
	if r := put("uno", "more", "/news/item"); r.status != http.StatusTooManyRequests {
		t.Fatalf("uno second: %d %s", r.status, r.body)
	}
	// ...and the explicit unlimited escape.
	if r := do(t, "PUT", ts.URL+"/v1/tenants/open", strings.NewReader(`{"maxSubscriptions": -1}`)); r.status != http.StatusCreated {
		t.Fatalf("create open: %d %s", r.status, r.body)
	}
	for i := 0; i < 5; i++ {
		if r := put("open", fmt.Sprintf("s%d", i), "/news/item"); r.status != http.StatusCreated {
			t.Fatalf("open s%d: %d %s", i, r.status, r.body)
		}
	}

	// The cap is visible on the tenant resource.
	r = do(t, "GET", ts.URL+"/v1/tenants/uno", nil)
	if !strings.Contains(string(r.body), `"maxSubscriptions":1`) {
		t.Fatalf("tenant info missing cap: %s", r.body)
	}
}

// TestTenantWorkersBounded: a tenant config may not ask for more engines than
// the server resolves per tenant (-workers, GOMAXPROCS when unset). An
// oversized request answers 400 invalid_config and creates nothing; one
// within the bound is created as before.
func TestTenantWorkersBounded(t *testing.T) {
	for _, c := range []struct {
		workers, most int
	}{{2, 2}, {0, runtime.GOMAXPROCS(0)}} {
		_, ts := newTestServer(t, Config{Workers: c.workers})
		for _, n := range []int{c.most + 1, 100000000} {
			r := do(t, "PUT", ts.URL+"/v1/tenants/big", strings.NewReader(fmt.Sprintf(`{"workers": %d}`, n)))
			if r.status != http.StatusBadRequest || !strings.Contains(string(r.body), "invalid_config") {
				t.Fatalf("-workers %d: PUT with workers %d: %d %s, want 400 invalid_config", c.workers, n, r.status, r.body)
			}
			if r := do(t, "GET", ts.URL+"/v1/tenants/big", nil); r.status != http.StatusNotFound {
				t.Fatalf("-workers %d: a refused PUT with workers %d created the tenant: GET %d %s", c.workers, n, r.status, r.body)
			}
		}
		if r := do(t, "PUT", ts.URL+"/v1/tenants/fits", strings.NewReader(fmt.Sprintf(`{"workers": %d}`, c.most))); r.status != http.StatusCreated {
			t.Fatalf("-workers %d: PUT with workers %d: %d %s, want 201", c.workers, c.most, r.status, r.body)
		}
	}
}
