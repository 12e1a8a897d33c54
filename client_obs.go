package impir

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// ClientObs is the client-side observability bundle for impir.Open: the
// registry holding one store's counters (and its keyword client's, via
// OpenKV) as a Prometheus text exposition. Store.Stats() and
// KVClient.Stats() read the same cells. A bundle serves exactly one
// store: Open refuses a bundle already in use.
//
// Everything recorded here lives strictly on the client: these metrics
// see record indices' timing (never their values) and nothing here is
// ever sent to a server.
//
//	co := impir.NewClientObs()
//	store, _ := impir.Open(ctx, d, co.Option())
//	http.Handle("/metrics", co)
type ClientObs struct {
	cells   *clientCells
	claimed atomic.Bool
}

// Client-side operation labels.
const (
	opRetrieve      = "retrieve"
	opRetrieveBatch = "retrieve_batch"
	opUpdate        = "update"
)

// NewClientObs builds an empty client observability bundle.
func NewClientObs() *ClientObs {
	return &ClientObs{cells: newClientCells(obs.NewRegistry())}
}

// Option returns the ClientOption that makes the bundle's registry the
// store's; pass it to Open.
func (o *ClientObs) Option() ClientOption {
	return func(c *clientConfig) { c.obs = o }
}

// claim hands the bundle's cells to the one store it serves, resolving
// its per-shard cells; a nil bundle yields detached cells that no
// registry holds.
func (o *ClientObs) claim(shards int) (*clientCells, error) {
	if o == nil {
		o = &ClientObs{cells: newClientCells(nil)}
	} else if !o.claimed.CompareAndSwap(false, true) {
		return nil, errors.New("impir: the ClientObs already serves another store; build one per Open")
	}
	o.cells.addShards(shards)
	return o.cells, nil
}

// WriteMetrics renders the bundle's families in the Prometheus text
// exposition format.
func (o *ClientObs) WriteMetrics(w io.Writer) error { return o.cells.reg.WriteText(w) }

// ServeHTTP makes the bundle an http.Handler serving its exposition, so
// an application can mount it on its own mux:
//
//	http.Handle("/metrics", co)
func (o *ClientObs) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.WriteMetrics(w)
}

// ClientCallStats summarises one operation type's recorded calls.
type ClientCallStats struct {
	Calls  uint64 // completed operations (all outcomes)
	Errors uint64 // failed operations, busy rejections included
	Busy   uint64 // failures that were server busy rejections
	P50    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// ClientObsSnapshot is an in-process view of the bundle's per-operation
// call stats; the store's other counters are its Stats().
type ClientObsSnapshot struct {
	Retrieve, RetrieveBatch, Update ClientCallStats
}

// Snapshot returns the bundle's current call counts and latency
// quantiles.
func (o *ClientObs) Snapshot() ClientObsSnapshot {
	c := o.cells
	return ClientObsSnapshot{c.retrieve.callStats(), c.batch.callStats(), c.update.callStats()}
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

func (o *opCells) callStats() ClientCallStats {
	s := o.latency.Snapshot()
	busy := o.busy.Value()
	return ClientCallStats{
		Calls:  s.Count,
		Errors: o.failed.Value() + busy,
		Busy:   busy,
		P50:    s.Quantile(0.50),
		P99:    s.Quantile(0.99),
		Max:    s.Max,
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
