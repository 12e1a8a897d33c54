package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestReadinessConditions(t *testing.T) {
	r := NewReadiness()
	if ok, failing := r.Ready(); !ok || failing != nil {
		t.Fatalf("empty tracker: ready=%v failing=%v, want vacuously ready", ok, failing)
	}

	r.Register("db-loaded")
	r.Register("serving")
	ok, failing := r.Ready()
	if ok {
		t.Fatal("registered conditions must default to not ready")
	}
	if want := []string{"db-loaded", "serving"}; len(failing) != 2 || failing[0] != want[0] || failing[1] != want[1] {
		t.Fatalf("failing = %v, want %v (sorted)", failing, want)
	}

	r.Set("db-loaded", true)
	r.Set("serving", true)
	if ok, _ := r.Ready(); !ok {
		t.Fatal("all conditions set, still not ready")
	}

	// Setting an unregistered name registers it.
	r.Set("update-quiesce", false)
	if ok, failing := r.Ready(); ok || failing[0] != "update-quiesce" {
		t.Fatalf("ready=%v failing=%v after Set of new condition", ok, failing)
	}

	// A nil tracker is always ready and Set is a no-op.
	var nilR *Readiness
	nilR.Set("x", false)
	if ok, _ := nilR.Ready(); !ok {
		t.Fatal("nil tracker must be ready")
	}
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("test_requests_total", "Test counter.").With().Add(3)
	ready := NewReadiness()
	ready.Register("db-loaded")

	a := NewAdmin(reg, ready)
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, _ := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before conditions hold = %d, want 503", code)
	}
	if !strings.Contains(body, "not ready: db-loaded") {
		t.Errorf("/readyz body %q must name the failing condition", body)
	}

	ready.Set("db-loaded", true)
	if code, body, _ := get("/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/readyz after conditions hold = %d %q", code, body)
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	if !strings.Contains(body, "test_requests_total 3") {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}
}

func TestAdminTraceAndPprofEndpoints(t *testing.T) {
	ring := NewTraceRing(4)
	s := NewRootSpan(NewTraceID(), "server.query", true)
	s.endAt(7 * time.Millisecond)
	ring.Add(s)

	// Default admin: no ring mounted, pprof off.
	bare := httptest.NewServer(NewAdmin(NewRegistry(), nil).Handler())
	defer bare.Close()
	for _, path := range []string{"/debug/traces", "/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("bare admin %s = %d, want 404", path, resp.StatusCode)
		}
	}

	full := httptest.NewServer(NewAdmin(NewRegistry(), nil, WithTraceRing(ring), WithPprof()).Handler())
	defer full.Close()

	resp, err := http.Get(full.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces = %d", resp.StatusCode)
	}
	var spans []SpanSnapshot
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("/debug/traces body not JSON: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].Name != "server.query" {
		t.Fatalf("/debug/traces served %+v, want the ringed trace", spans)
	}

	// min_ms filters through the mounted handler too.
	resp, err = http.Get(full.URL + "/debug/traces?min_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &spans); err != nil || len(spans) != 0 {
		t.Fatalf("min_ms=100 served %s (err %v), want []", body, err)
	}

	resp, err = http.Get(full.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline with WithPprof = %d, want 200", resp.StatusCode)
	}
}

func TestAdminServeAndShutdown(t *testing.T) {
	a := NewAdmin(NewRegistry(), nil)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Serve(lis) }()

	// Nil readiness: always ready.
	url := "http://" + lis.Addr().String() + "/readyz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/readyz = %d with nil readiness", resp.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admin endpoint never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
