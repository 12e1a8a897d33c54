package impir

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// Observer is the client-side telemetry of one store opened by
// impir.Open, and of its keyword view when opened through OpenKV. It
// holds the registry of the store's counters and latency histograms —
// Store.Stats() and KVClient.Stats() read the same cells — and a ring
// of the span trees of its traced operations. An Observer serves
// exactly one store: Open refuses one already in use.
//
// Tracing opens one root span per logical operation (Retrieve,
// RetrieveBatch, Update). Below the root, the fan-out layers attach
// children as the call spreads out — one per shard sub-query, one per
// party, one per replica attempt — so a single slow retrieval
// decomposes into which shard, party, replica, hedge attempt, queue
// wait, and engine phase cost the time. Sampling is decided at the head
// by SampleRate; an unsampled operation carries a nil span through the
// entire call path at zero allocation. With SlowThreshold set, every
// operation is traced and the ring additionally keeps unsampled ones
// that ran at least that long — the client-side mirror of the server's
// slow-query tracing. The servers learn only the head decision: an
// operation traced just for the threshold reaches them as unsampled and
// stays out of their rings.
//
// The metrics live strictly on the client: they see record indices'
// timing (never their values) and are never sent to a server. Tracing
// sends each server only its own attempt's fresh span ID and the head
// sampling bit (see the package doc).
//
//	o := impir.NewObserver(impir.ObserverConfig{SampleRate: 0.01})
//	store, _ := impir.Open(ctx, d, o.Option())
//	go http.ListenAndServe("localhost:9090", o) // /metrics, /debug/traces
type Observer struct {
	cells   *clientCells
	sampler obs.Sampler
	slow    time.Duration
	ring    *obs.TraceRing
	handler http.Handler
	claimed atomic.Bool
}

// ObserverConfig configures an Observer's tracing; its counters and
// latency histograms are always on.
type ObserverConfig struct {
	// SampleRate is the head-sampling fraction: 0 samples nothing,
	// 1 samples everything.
	SampleRate float64
	// SlowThreshold, when positive, traces EVERY operation and keeps
	// unsampled ones in the ring when they run at least this long.
	// This trades the zero-allocation unsampled path for never missing
	// a slow operation.
	SlowThreshold time.Duration
}

// TraceSnapshot is one immutable span tree from a trace ring: the
// root carries the operation, children carry the fan-out (shard →
// party → attempt). See the README's span field glossary.
type TraceSnapshot = obs.SpanSnapshot

// Client-side operation labels.
const (
	opRetrieve      = "retrieve"
	opRetrieveBatch = "retrieve_batch"
	opUpdate        = "update"
)

// NewObserver builds an Observer with an empty registry and trace ring.
func NewObserver(cfg ObserverConfig) *Observer {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(obs.DefaultTraceRingSize)
	return &Observer{
		cells:   newClientCells(reg),
		sampler: obs.NewSampler(cfg.SampleRate),
		slow:    cfg.SlowThreshold,
		ring:    ring,
		handler: obs.NewAdmin(reg, nil, obs.WithTraceRing(ring)).Handler(),
	}
}

// Option returns the ClientOption that makes the Observer the store's;
// pass it to Open or OpenKV.
func (o *Observer) Option() ClientOption {
	return func(c *clientConfig) { c.observer = o }
}

// ServeHTTP serves the Observer's telemetry through the same handler
// as a server's admin endpoint: GET /metrics (Prometheus text
// exposition) and GET /debug/traces?min_ms=N (the ring as JSON), with
// that handler's /healthz and an always-ready /readyz. Mount it at the
// root of a mux, or serve it on its own listener.
func (o *Observer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	o.handler.ServeHTTP(w, req)
}

// RecentTraces snapshots the ring's span trees, newest first, keeping
// those at least min long (0 keeps all).
func (o *Observer) RecentTraces(min time.Duration) []TraceSnapshot {
	return recentTraces(o.ring, min)
}

// recentTraces snapshots ring's span trees, newest first, keeping those
// at least min long.
func recentTraces(ring *obs.TraceRing, min time.Duration) []TraceSnapshot {
	spans := ring.Snapshot(min)
	out := make([]TraceSnapshot, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Snapshot())
	}
	return out
}

// claim hands the Observer's cells to the one store it serves,
// resolving its per-shard cells; a nil Observer yields detached cells
// that no registry holds.
func (o *Observer) claim(shards int) (*clientCells, error) {
	if o == nil {
		o = &Observer{cells: newClientCells(nil)}
	} else if !o.claimed.CompareAndSwap(false, true) {
		return nil, errors.New("impir: the Observer already serves another store; build one per Open")
	}
	o.cells.addShards(shards)
	return o.cells, nil
}

// begin opens the root span for one logical operation, or returns nil
// when the operation is not traced (always on a nil Observer). The
// no-tracing check runs before any ID is drawn, keeping the unsampled
// path allocation free.
func (o *Observer) begin(ctx context.Context, op string) *obs.Span {
	if o == nil || (!o.sampler.Enabled() && o.slow <= 0) {
		return nil
	}
	traceID := obs.NewTraceID()
	sampled := o.sampler.SampleTrace(traceID)
	if !sampled && o.slow <= 0 {
		return nil
	}
	span := obs.NewRootSpan(traceID, op, sampled)
	span.SetAttrBool("sampled", sampled)
	for _, a := range obs.OpAttrsFromContext(ctx) {
		span.SetAttr(a.Key, a.Value)
	}
	return span
}

// finish ends a root span begin opened and decides ring admission:
// sampled operations always, unsampled ones only over the slow
// threshold. A nil span (an untraced operation) is ignored.
func (o *Observer) finish(span *obs.Span, err error) {
	if span == nil {
		return
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if span.Sampled() || (o.slow > 0 && span.Duration() >= o.slow) {
		o.ring.Add(span)
	}
}

// clientCells are a Client's counters — their only storage. Every cell
// is resolved when the store opens, so the call path increments
// pointers: no lock, no label lookup, no allocation.
type clientCells struct {
	reg                     *obs.Registry // nil: detached, unobserved cells
	retrieve, batch, update opCells

	retries, hedges, hedgeWins               *obs.Counter
	codedBatches, codedQueries, codedDummies *obs.Counter
	codeFallbacks                            *obs.Counter
	shards                                   []shardCells
}

// opCells count one operation type's outcomes and latency.
type opCells struct {
	ok, busy, failed *obs.Counter
	latency          *obs.Histogram // nil: untimed
}

// shardCells are one shard cohort's counters, indexed by the shard*
// constants (see metrics.ShardStats for their meaning).
type shardCells [numShardCells]*obs.Counter

const (
	shardQueries = iota
	shardBatches
	shardBatchQueries
	shardUpdateRows
	shardErrors
	shardNanos // exact wall time: a µs histogram sum would round it
	numShardCells
)

// cellSpec ties one label-less counter family to its cell and to the
// stats field the cell's typed read fills.
type cellSpec struct {
	cell       **obs.Counter
	field      *uint64
	name, help string
}

func registerCells(reg *obs.Registry, prefix string, specs []cellSpec) {
	for _, s := range specs {
		*s.cell = reg.NewCounter(prefix+s.name+"_total", s.help).With()
	}
}

func readCells(specs []cellSpec) {
	for _, s := range specs {
		*s.field = (*s.cell).Value()
	}
}

// newClientCells registers a store's families on reg. On a nil reg the
// cells are detached and untimed: nothing could read their latency.
func newClientCells(reg *obs.Registry) *clientCells {
	c := &clientCells{reg: reg}
	requests := reg.NewCounter("impir_client_requests_total",
		"Store operations by type and outcome.", "op", "outcome")
	var latency *obs.HistogramVec
	if reg != nil {
		latency = reg.NewHistogram("impir_client_latency_seconds",
			"Whole-operation latency (fan-out, hedges and retries included), by operation.", nil, "op")
	}
	op := func(name string) opCells {
		o := opCells{ok: requests.With(name, "ok"), busy: requests.With(name, "busy"), failed: requests.With(name, "error")}
		if latency != nil {
			o.latency = latency.With(name)
		}
		return o
	}
	c.retrieve, c.batch, c.update = op(opRetrieve), op(opRetrieveBatch), op(opUpdate)
	registerCells(reg, "impir_client_", c.scalars(new(StoreStats)))
	return c
}

// scalars lists the store-wide counters and the StoreStats fields they fill.
func (c *clientCells) scalars(st *StoreStats) []cellSpec {
	return []cellSpec{
		{&c.retries, &st.Retries, "retries", "Extra whole-operation attempts spent from retry budgets."},
		{&c.hedges, &st.Hedges, "hedges", "Hedge attempts launched beyond a party's primary replica."},
		{&c.hedgeWins, &st.HedgeWins, "hedge_wins", "Party sub-requests won by a non-primary replica."},
		{&c.codedBatches, &st.CodedBatches, "coded_batches", "Batches served through the batch-code planner."},
		{&c.codedQueries, &st.CodedQueries, "coded_queries", "Constant-shape sub-queries issued by coded batches."},
		{&c.codedDummies, &st.CodedDummies, "coded_dummies", "Coded-batch sub-queries that were dummies."},
		{&c.codeFallbacks, &st.CodeFallbacks, "code_fallbacks", "Coded batches that fell back to the uncoded path."},
	}
}

// addShards registers the per-shard families and resolves n shards' cells.
func (c *clientCells) addShards(n int) {
	c.shards = make([]shardCells, n)
	for i, f := range [numShardCells]struct{ name, help string }{
		shardQueries:      {"queries", "Single sub-queries fanned out to the shard cohort."},
		shardBatches:      {"batches", "Batched round trips to the shard cohort."},
		shardBatchQueries: {"batch_queries", "Sub-queries carried by batched round trips."},
		shardUpdateRows:   {"update_rows", "Updated records routed to the shard cohort."},
		shardErrors:       {"errors", "Failed sub-requests against the shard cohort."},
		shardNanos:        {"time_nanoseconds", "Wall time of the shard cohort's sub-requests."},
	} {
		vec := c.reg.NewCounter("impir_client_shard_"+f.name+"_total", f.help, "shard")
		for s := range c.shards {
			c.shards[s][i] = vec.With(strconv.Itoa(s))
		}
	}
}

// done counts one logical operation begun at start: ok, busy when a
// server's admission queue (MsgBusy) refused it, else error — so
// operators can tell overload apart from breakage.
func (o *opCells) done(start time.Time, err error) {
	if o.latency != nil {
		o.latency.Observe(time.Since(start))
	}
	switch {
	case err == nil:
		o.ok.Inc()
	case errors.Is(err, ErrServerBusy):
		o.busy.Inc()
	default:
		o.failed.Inc()
	}
}

// stats reads the cells as a StoreStats.
func (c *clientCells) stats() StoreStats {
	st := StoreStats{
		Retrievals:      c.retrieve.ok.Value(),
		BatchRetrievals: c.batch.ok.Value(),
		Updates:         c.update.ok.Value(),
		Shards:          make([]metrics.ShardStats, len(c.shards)),
	}
	readCells(c.scalars(&st))
	for _, op := range []*opCells{&c.retrieve, &c.batch, &c.update} {
		busy := op.busy.Value()
		st.Busy += busy
		st.Errors += busy + op.failed.Value()
	}
	for i, sh := range c.shards {
		st.Shards[i] = metrics.ShardStats{
			Queries:      sh[shardQueries].Value(),
			Batches:      sh[shardBatches].Value(),
			BatchQueries: sh[shardBatchQueries].Value(),
			UpdateRows:   sh[shardUpdateRows].Value(),
			Errors:       sh[shardErrors].Value(),
			TotalTime:    time.Duration(sh[shardNanos].Value()),
		}
	}
	return st
}

// kvCells are a KVClient's counters (see metrics.KVStats).
type kvCells struct {
	gets, batchGets, batchKeys, hits, misses *obs.Counter
	puts, deletes, probedBuckets, errors     *obs.Counter
}

func (k *kvCells) specs(st *KVStats) []cellSpec {
	return []cellSpec{
		{&k.gets, &st.Gets, "gets", "Single-key lookups."},
		{&k.batchGets, &st.BatchGets, "batch_gets", "Batched lookup round trips."},
		{&k.batchKeys, &st.BatchKeys, "batch_keys", "Keys carried by batched lookups."},
		{&k.hits, &st.Hits, "hits", "Lookups that found their key (client-side only)."},
		{&k.misses, &st.Misses, "misses", "Lookups that did not find their key (client-side only)."},
		{&k.puts, &st.Puts, "puts", "Put operations."},
		{&k.deletes, &st.Deletes, "deletes", "Delete operations."},
		{&k.probedBuckets, &st.ProbedBuckets, "probed_buckets", "Bucket records privately retrieved."},
		{&k.errors, &st.Errors, "errors", "Failed keyword operations."},
	}
}

func newKVCells(reg *obs.Registry) *kvCells {
	k := new(kvCells)
	registerCells(reg, "impir_kv_", k.specs(new(KVStats)))
	return k
}

func (k *kvCells) stats() (st KVStats) {
	readCells(k.specs(&st))
	return st
}
