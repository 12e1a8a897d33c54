package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Readiness tracks named boolean conditions; the process is ready only
// when every registered condition holds. Conditions default to false at
// registration — a server is unready until it proves otherwise
// (database loaded, listener accepting), and flips unready again around
// update quiesces and at drain start so an orchestrator stops routing
// before in-flight queries finish.
type Readiness struct {
	mu    sync.Mutex
	conds map[string]bool
}

// NewReadiness returns a tracker with no conditions (vacuously ready).
func NewReadiness() *Readiness {
	return &Readiness{conds: make(map[string]bool)}
}

// Register adds a condition in the not-ready state. Registering an
// existing name resets it to false.
func (r *Readiness) Register(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conds[name] = false
}

// Set flips a condition. Setting an unregistered name registers it.
func (r *Readiness) Set(name string, ok bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conds[name] = ok
}

// Ready reports whether every condition holds, and the names of the
// failing ones (sorted) when not.
func (r *Readiness) Ready() (bool, []string) {
	if r == nil {
		return true, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var failing []string
	for name, ok := range r.conds {
		if !ok {
			failing = append(failing, name)
		}
	}
	sort.Strings(failing)
	return len(failing) == 0, failing
}

// Admin is the operator-facing HTTP endpoint: /metrics (Prometheus
// text exposition), /healthz (process up — 200 as long as the listener
// answers), /readyz (200 only while every readiness condition holds;
// 503 with the failing condition names otherwise), plus /debug/traces
// (the trace ring buffer as JSON) when a ring is attached and the
// net/http/pprof handlers under /debug/pprof/ when enabled. It is
// served on its own listener, separate from the binary query protocol,
// so probes and scrapes survive query-plane overload and drain.
type Admin struct {
	reg    *Registry
	ready  *Readiness
	traces *TraceRing
	pprof  bool

	mu  sync.Mutex
	srv *http.Server
}

// AdminOption customises an Admin endpoint.
type AdminOption func(*Admin)

// WithTraceRing serves the ring's recent traces as JSON at
// /debug/traces (filterable with ?min_ms=N).
func WithTraceRing(r *TraceRing) AdminOption {
	return func(a *Admin) { a.traces = r }
}

// WithPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on the admin mux. Off unless requested: profiles can
// stall a loaded process and expose more internals than metrics do, so
// they are an explicit operator opt-in.
func WithPprof() AdminOption {
	return func(a *Admin) { a.pprof = true }
}

// NewAdmin builds an admin endpoint over the registry and readiness
// tracker. Either may be nil: a nil registry serves an empty exposition,
// a nil readiness is always ready.
func NewAdmin(reg *Registry, ready *Readiness, opts ...AdminOption) *Admin {
	a := &Admin{reg: reg, ready: ready}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Handler returns the admin mux; useful for tests and for mounting the
// endpoints on an existing server.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	if a.traces != nil {
		mux.Handle("/debug/traces", a.traces)
	}
	if a.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ok, failing := a.ready.Ready(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, name := range failing {
				fmt.Fprintf(w, "not ready: %s\n", name)
			}
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if a.reg == nil {
		return
	}
	if err := a.reg.WriteText(w); err != nil {
		// Headers are gone; all we can do is note it mid-body.
		fmt.Fprintf(w, "# scrape error: %v\n", err)
	}
}

// Serve accepts admin connections on lis until Shutdown. It blocks,
// mirroring net/http: the returned error is http.ErrServerClosed after
// a clean Shutdown.
func (a *Admin) Serve(lis net.Listener) error {
	srv := &http.Server{
		Handler:           a.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	a.mu.Lock()
	a.srv = srv
	a.mu.Unlock()
	return srv.Serve(lis)
}

// Shutdown gracefully stops the admin server. This should run last in a
// drain: /readyz must keep answering 503 while queries drain, so the
// orchestrator sees the flip rather than a connection refusal.
func (a *Admin) Shutdown(ctx context.Context) error {
	a.mu.Lock()
	srv := a.srv
	a.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
