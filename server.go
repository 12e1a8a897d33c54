package impir

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/gpupir"
	"github.com/impir/impir/internal/impir"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pim"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// EngineKind selects the machine a server's one engine (internal/engine)
// is priced on. Answers are identical whatever the kind; only the
// modeled latencies differ.
type EngineKind int

const (
	// EnginePIM is the paper's contribution: DPF evaluation on the host
	// CPU, dpXOR on UPMEM PIM DPUs. The default.
	EnginePIM EngineKind = iota + 1
	// EngineCPU is the processor-centric baseline (Google-DPF style).
	EngineCPU
	// EngineGPU is the GPU baseline of Lam et al. (modeled RTX 4090).
	EngineGPU
)

func (k EngineKind) String() string {
	switch k {
	case EnginePIM:
		return "pim"
	case EngineCPU:
		return "cpu"
	case EngineGPU:
		return "gpu"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ParseEngineKind converts a command-line engine name.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "pim", "impir", "im-pir":
		return EnginePIM, nil
	case "cpu", "cpu-pir":
		return EngineCPU, nil
	case "gpu", "gpu-pir":
		return EngineGPU, nil
	default:
		return 0, fmt.Errorf("impir: unknown engine %q (want pim, cpu, or gpu)", s)
	}
}

// ServerConfig configures one PIR server. The zero value is the paper's
// IM-PIR evaluation setup: 2048 DPUs at 350 MHz, 16 tasklets, a single
// cluster, subtree-parallel host evaluation, a 256-deep request queue,
// and no cross-client coalescing.
type ServerConfig struct {
	// Engine selects the machine that prices the engine's passes; zero
	// value means EnginePIM.
	Engine EngineKind
	// DPUs is the PIM DPU count (PIM pricer only; 0 = 2048). Must be a
	// multiple of Clusters.
	DPUs int
	// Clusters divides the DPUs into independent clusters, each holding
	// a full DB replica (PIM pricer only; 0 = 1).
	Clusters int
	// Tasklets is the per-DPU thread count (PIM pricer only; 0 = 16).
	Tasklets int
	// EvalWorkers is the host-side DPF evaluation thread count (PIM
	// pricer only; 0 = 8).
	EvalWorkers int
	// Threads is the CPU baseline's worker count for expand and scan
	// (CPU pricer only; 0 = 32).
	Threads int
	// QueueDepth bounds the request scheduler's admission queue; requests
	// beyond it are rejected with ErrServerBusy (a MsgBusy frame on the
	// wire) instead of queueing without bound. 0 means 256; negative is
	// an error.
	QueueDepth int
	// CoalesceWindow is how long the scheduler holds a single query to
	// gather concurrent single queries — across client connections — into
	// one §3.4 batch pipeline pass. 0 disables coalescing.
	CoalesceWindow time.Duration
	// MaxCoalesce caps how many single queries one coalesced pass serves.
	// 0 means 64; negative is an error.
	MaxCoalesce int
	// AllowWireUpdates accepts MsgUpdate frames from connected network
	// clients (Client.Update). OFF by default: the query port serves
	// untrusted PIR clients, and an unauthorised
	// update would corrupt records or desynchronise replicas. Enable it
	// only where the update path is restricted to the database owner
	// (operator-only listener, network ACLs, or mutual TLS). Local
	// Server.Update calls are always allowed.
	AllowWireUpdates bool
	// SlowQueryThreshold logs the span tree of every wire query frame
	// whose end-to-end dispatch takes at least this long, as one line of
	// JSON — the object /debug/traces serves for that query (shard, pass
	// width, fused flag, queue wait, engine pass and its phase
	// breakdown) — and keeps it in the trace ring. 0 disables
	// slow-query tracing.
	SlowQueryThreshold time.Duration
	// TraceShard labels traces with this server's shard in a sharded
	// deployment (e.g. "0"). Empty means unsharded — the label is
	// omitted from traces.
	TraceShard string
	// SlowQueryLogf directs slow-query trace lines and other transport
	// logs (default: the standard logger).
	SlowQueryLogf func(format string, args ...any)
	// TraceSampleRate head-samples wire queries that arrive without a
	// client trace context into the server's trace ring buffer: 0 keeps
	// only client-sampled and slow queries, 1 keeps everything. Sampled
	// traces are served as JSON at the admin endpoint's /debug/traces.
	TraceSampleRate float64
	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/ on the admin endpoint. Off by default — profiles can
	// stall a loaded process, so they are an explicit operator opt-in.
	EnablePprof bool
}

// Statically ensure the scheduler satisfies the transport's interface.
var _ transport.Dispatcher = (*scheduler.Scheduler)(nil)

// ErrServerBusy reports a server whose admission queue was full: the
// request was rejected without an engine pass. Retry after a backoff.
// Returned by Answer/AnswerBatch/AnswerShare locally and by Client
// retrievals when a remote server responds with a MsgBusy frame.
var ErrServerBusy = transport.ErrServerBusy

// Server is one PIR server: an engine behind a request scheduler, plus
// an optional network listener. In a two-server deployment, run two
// Servers on independent machines with byte-identical databases.
//
// All request paths — local Answer* calls and the TCP transport — go
// through the scheduler, which bounds the admission queue, coalesces
// concurrent single queries from different clients into batch passes,
// and quiesces in-flight queries around Update.
type Server struct {
	eng              *engine.Engine
	sched            *scheduler.Scheduler
	srv              *transport.Server
	allowWireUpdates bool
	slowQuery        time.Duration
	traceShard       string
	logf             func(format string, args ...any)
	sampler          obs.Sampler

	// Operability plane: every server carries a metrics registry, a
	// readiness tracker, a trace ring and an admin endpoint, whether or
	// not the admin listener is ever started — local users can still
	// WriteMetrics and RecentTraces.
	reg    *obs.Registry
	sm     *obs.ServerMetrics
	ready  *obs.Readiness
	traces *obs.TraceRing
	admin  *obs.Admin
}

// NewServer builds a server with the configured engine behind a request
// scheduler.
func NewServer(cfg ServerConfig) (*Server, error) {
	pricer, err := newPricer(cfg)
	if err != nil {
		return nil, err
	}
	eng := engine.New(pricer)
	reg := obs.NewRegistry()
	sm := obs.NewServerMetrics(reg)
	ready := obs.NewReadiness()
	ready.Register(obs.CondDBLoaded)
	ready.Register(obs.CondServing)
	ready.Set(obs.CondUpdateQuiesce, true)
	sched, err := scheduler.New(eng, scheduler.Config{
		QueueDepth:     cfg.QueueDepth,
		CoalesceWindow: cfg.CoalesceWindow,
		MaxCoalesce:    cfg.MaxCoalesce,
		Obs:            sm,
		Readiness:      ready,
	})
	if err != nil {
		return nil, fmt.Errorf("impir: %w", err)
	}
	// The scheduler counts straight into sm's cells, so a scrape and
	// QueueStats() read the same counters. The hook only sets the
	// point-in-time gauges: queue depth, database epoch and shape, and
	// readiness.
	reg.OnScrape(func() {
		st := sched.Stats()
		sm.SetQueue(st.Depth, st.Epoch)
		sm.MirrorReadiness(ready)
		if db := eng.Database(); db != nil {
			sm.SetDB(db.NumRecords(), db.RecordSize())
		}
	})
	traces := obs.NewTraceRing(obs.DefaultTraceRingSize)
	adminOpts := []obs.AdminOption{obs.WithTraceRing(traces)}
	if cfg.EnablePprof {
		adminOpts = append(adminOpts, obs.WithPprof())
	}
	return &Server{
		eng:              eng,
		sched:            sched,
		allowWireUpdates: cfg.AllowWireUpdates,
		slowQuery:        cfg.SlowQueryThreshold,
		traceShard:       cfg.TraceShard,
		logf:             cfg.SlowQueryLogf,
		sampler:          obs.NewSampler(cfg.TraceSampleRate),
		reg:              reg,
		sm:               sm,
		ready:            ready,
		traces:           traces,
		admin:            obs.NewAdmin(reg, ready, adminOpts...),
	}, nil
}

// newPricer builds the configured machine's pricer.
func newPricer(cfg ServerConfig) (engine.Pricer, error) {
	kind := cfg.Engine
	if kind == 0 {
		kind = EnginePIM
	}
	switch kind {
	case EnginePIM:
		ecfg := impir.DefaultConfig()
		if cfg.DPUs != 0 {
			ecfg.DPUs = cfg.DPUs
			// Size the simulated machine to the requested DPU count so
			// small test servers do not allocate 2048 DPU structs.
			if cfg.DPUs < ecfg.PIM.NumDPUs() {
				ecfg.PIM = shrinkPIM(ecfg.PIM, cfg.DPUs)
			}
		}
		if cfg.Clusters != 0 {
			ecfg.Clusters = cfg.Clusters
		}
		if cfg.Tasklets != 0 {
			ecfg.PIM.TaskletsPerDPU = cfg.Tasklets
		}
		if cfg.EvalWorkers != 0 {
			ecfg.EvalWorkers = cfg.EvalWorkers
		}
		return impir.NewPricer(ecfg)
	case EngineCPU:
		return engine.NewCPUPricer(cfg.Threads)
	case EngineGPU:
		return gpupir.NewPricer(gpupir.Config{})
	default:
		return nil, fmt.Errorf("impir: unknown engine kind %d", kind)
	}
}

// shrinkPIM sizes a PIM topology down to about n DPUs, keeping ranks of
// the original width where possible.
func shrinkPIM(cfg pim.Config, n int) pim.Config {
	if n < cfg.DPUsPerRank {
		cfg.DPUsPerRank = n
		cfg.Ranks = 1
		return cfg
	}
	cfg.Ranks = (n + cfg.DPUsPerRank - 1) / cfg.DPUsPerRank
	return cfg
}

// Load copies the database's N records into the server's engine, with no
// padding. Under the PIM pricer this also lays them out on the modeled
// DPUs' MRAM, a one-time cost outside the query path. Clients still see
// the padded index space of 2^d records: the hello reports 2^d records
// and the padded form's digest (DB.Digest), and an index from N on
// retrieves zeros.
// A successful load satisfies the db-loaded readiness condition.
func (s *Server) Load(db *DB) error {
	if err := s.eng.LoadDatabase(db); err != nil {
		return err
	}
	s.ready.Set(obs.CondDBLoaded, true)
	return nil
}

// EngineName reports the machine the engine is priced on: "IM-PIR",
// "CPU-PIR" or "GPU-PIR".
func (s *Server) EngineName() string { return s.eng.Name() }

// Database returns the engine's copy of the loaded database — the N
// records Load was given, unpadded — or nil.
func (s *Server) Database() *DB { return s.eng.Database() }

// Answer processes one query key through the scheduler and returns this
// server's subresult and the phase breakdown. The subresult alone
// reveals nothing; the client reconstructs the record from both servers'
// subresults. A context cancelled while the request waits in the
// admission queue dequeues it without an engine pass; one cancelled
// mid-pass does not abort the pass. When the server has a coalescing
// window, concurrent Answer calls may be served by one shared batch
// pipeline pass (§3.4); the returned breakdown is then the pass's
// per-query average.
func (s *Server) Answer(ctx context.Context, key *Key) ([]byte, Breakdown, error) {
	return s.sched.Query(ctx, key)
}

// AnswerBatch processes a batch of keys through the engine's batch
// pipeline (§3.4) and reports throughput statistics. Cancellation is
// cooperative at batch granularity: cancelled while queued dequeues the
// batch, cancelled mid-pass does not abort it.
func (s *Server) AnswerBatch(ctx context.Context, keys []*Key) ([][]byte, BatchStats, error) {
	return s.sched.QueryBatch(ctx, keys)
}

// Update applies a bulk record update to the loaded database replica
// (§3.3 of the paper): updates maps record index to its new contents
// (exactly RecordSize bytes each). It rewrites the host copy every pass
// scans, whichever pricer models the pass. An index at or beyond the N
// loaded records is refused: the padding beyond them is not stored and
// always reads as zeros. Callers must update every server of a
// deployment identically.
//
// Update is safe to call while queries are in flight: the scheduler
// quiesces — it drains the executing engine pass, applies the update
// atomically, bumps the database epoch, and resumes — so no query ever
// observes a half-applied update. Concurrent updates serialise.
//
// Update deliberately takes no context: an update interrupted part-way
// would leave this replica diverged from its peers, which a digest check
// only catches at the next connect. It is atomic per server — validate
// everything, then apply.
func (s *Server) Update(updates map[uint64][]byte) error {
	// The scheduler validates the whole update set against the loaded
	// geometry before its quiesce gate — one source of truth shared with
	// the wire path — so a wrong-length record or out-of-range index
	// fails with a clear error before any in-flight pass is drained or
	// the engine touched.
	if err := s.sched.Update(updates); err != nil {
		return fmt.Errorf("impir: %w", err)
	}
	return nil
}

// QueueStats snapshots the request scheduler's admission and coalescing
// counters — queue depth, waits, coalesced pass sizes, busy rejections,
// and the database update epoch.
func (s *Server) QueueStats() metrics.SchedulerStats {
	return s.sched.Stats()
}

// Serve exposes the server over a TCP listener using the IM-PIR wire
// protocol. party is this server's index (0 or 1). Serve returns
// immediately; use Close to stop.
func (s *Server) Serve(lis net.Listener, party uint8) error {
	if s.srv != nil {
		return errors.New("impir: server already serving")
	}
	opts := []transport.ServerOption{
		transport.WithObserver(s.sm),
		transport.WithTraceRing(s.traces),
		transport.WithTraceSampler(s.sampler),
	}
	if s.allowWireUpdates {
		opts = append(opts, transport.WithWireUpdates())
	}
	if s.slowQuery > 0 {
		opts = append(opts, transport.WithSlowQuery(s.slowQuery))
	}
	if s.traceShard != "" {
		opts = append(opts, transport.WithShard(s.traceShard))
	}
	if s.logf != nil {
		opts = append(opts, transport.WithLogf(s.logf))
	}
	srv, err := transport.NewServer(lis, s.sched, party, opts...)
	if err != nil {
		return err
	}
	s.srv = srv
	s.ready.Set(obs.CondServing, true)
	return nil
}

// ServeAdmin serves the operator endpoint — GET /metrics (Prometheus
// text exposition), /healthz (process liveness) and /readyz (503 until
// the database is loaded and the query listener accepts, and again
// while an update quiesces or a drain is underway) — on lis. It blocks
// until ShutdownAdmin (or Shutdown, which stops the admin endpoint
// last); the returned error is http.ErrServerClosed after a clean stop.
//
// The admin endpoint is its own listener, separate from the binary
// query protocol, so probes and scrapes keep answering through
// query-plane overload and drain. It exposes only operational
// aggregates; nothing per-query or secret-dependent is registered.
func (s *Server) ServeAdmin(lis net.Listener) error {
	return s.admin.Serve(lis)
}

// AdminAddr returns the admin listener address, or "" before ServeAdmin.
func (s *Server) AdminAddr() string { return s.admin.Addr() }

// WriteMetrics renders the server's metric families in the Prometheus
// text exposition format — the same bytes GET /metrics serves — for
// in-process consumers (tests, the load generator's artifact).
func (s *Server) WriteMetrics(w io.Writer) error { return s.reg.WriteText(w) }

// RecentTraces snapshots the server's trace ring — sampled and slow
// queries as party-local span trees, newest first, at least min long
// (0 keeps all). The same data GET /debug/traces serves.
func (s *Server) RecentTraces(min time.Duration) []TraceSnapshot {
	spans := s.traces.Snapshot(min)
	out := make([]TraceSnapshot, 0, len(spans))
	for _, sp := range spans {
		out = append(out, sp.Snapshot())
	}
	return out
}

// Shutdown stops the server gracefully: /readyz flips to 503 first (so
// an orchestrator stops routing), then the listener stops accepting,
// requests already admitted (queued or executing) complete and have
// their responses written, connections close, the engine is released,
// and the admin endpoint — which kept answering the 503 throughout the
// drain — stops last. ctx bounds the drain; on expiry remaining work is
// abandoned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Set(obs.CondServing, false)
	var err error
	if s.srv != nil {
		err = s.srv.Shutdown(ctx)
		s.srv = nil
	}
	if derr := s.sched.Drain(ctx); err == nil {
		err = derr
	}
	s.sched.Close()
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	if aerr := s.admin.Shutdown(ctx); err == nil {
		err = aerr
	}
	return err
}

// Addr returns the listening address, or nil when not serving.
func (s *Server) Addr() net.Addr {
	if s.srv == nil {
		return nil
	}
	return s.srv.Addr()
}

// Close stops the network listener (if any), the scheduler, and the
// engine immediately. Queued requests fail; use Shutdown to drain them
// first.
func (s *Server) Close() error {
	s.ready.Set(obs.CondServing, false)
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		s.srv = nil
	}
	s.sched.Close()
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if aerr := s.admin.Shutdown(ctx); err == nil {
		err = aerr
	}
	return err
}
