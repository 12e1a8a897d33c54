package impir

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/impir/impir/internal/obs"
)

// ClientObs is the client-side observability bundle for impir.Open: an
// interceptor pair that records per-call latency histograms and
// outcome counters for every Retrieve/RetrieveBatch, plus mirrors of
// the attached stores' retry/hedge/hedge-win counters — scrapeable as a
// Prometheus text exposition or snapshotable in-process.
//
// Everything recorded here lives strictly on the client: the
// interceptor chain runs above the PIR encoding, so these metrics see
// record indices' timing (never their values) and nothing here is ever
// sent to a server.
//
//	co := impir.NewClientObs()
//	store, _ := impir.Open(ctx, d, co.Option())
//	co.Attach(store) // mirror the store's retry/hedge counters
//	http.Handle("/metrics", co)
type ClientObs struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // op, outcome
	latency  *obs.HistogramVec // op

	retries      *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	codedBatches *obs.Counter
	sideInfoHits *obs.Counter
	fallbacks    *obs.Counter

	mu     sync.Mutex
	stores []Store
}

// Client-side operation and outcome labels.
const (
	opRetrieve      = "retrieve"
	opRetrieveBatch = "retrieve_batch"

	outcomeOK    = "ok"
	outcomeBusy  = "busy"
	outcomeError = "error"
)

// NewClientObs builds an empty client observability bundle.
func NewClientObs() *ClientObs {
	reg := obs.NewRegistry()
	o := &ClientObs{
		reg: reg,
		requests: reg.NewCounter("impir_client_requests_total",
			"Store operations by type and outcome.", "op", "outcome"),
		latency: reg.NewHistogram("impir_client_latency_seconds",
			"Whole-operation latency (fan-out, hedges and retries included), by operation.",
			nil, "op"),
		retries: reg.NewCounter("impir_client_retries_total",
			"Extra whole-operation attempts spent from retry budgets (mirrored from store stats at scrape time).").With(),
		hedges: reg.NewCounter("impir_client_hedges_total",
			"Hedge attempts launched beyond a party's primary replica (mirrored at scrape time).").With(),
		hedgeWins: reg.NewCounter("impir_client_hedge_wins_total",
			"Party sub-requests won by a non-primary replica (mirrored at scrape time).").With(),
		codedBatches: reg.NewCounter("impir_client_coded_batches_total",
			"Batches served through the batch-code planner (mirrored at scrape time).").With(),
		sideInfoHits: reg.NewCounter("impir_client_side_info_hits_total",
			"Records served from the side-information cache and spent as dummies (mirrored at scrape time).").With(),
		fallbacks: reg.NewCounter("impir_client_code_fallbacks_total",
			"Coded batches that fell back to the uncoded path (mirrored at scrape time).").With(),
	}
	reg.OnScrape(o.mirrorStores)
	return o
}

// Option returns the ClientOption installing the bundle's interceptors;
// pass it to Open.
func (o *ClientObs) Option() ClientOption {
	return func(c *clientConfig) {
		c.unary = append(c.unary, o.interceptUnary)
		c.batch = append(c.batch, o.interceptBatch)
	}
}

// Attach registers a store whose Stats() retry/hedge counters the
// bundle mirrors into the exposition at scrape time. Attach each store
// the bundle's interceptors are installed on; attaching is separate
// from Option because the store only exists after Open returns.
func (o *ClientObs) Attach(store Store) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stores = append(o.stores, store)
}

func (o *ClientObs) mirrorStores() {
	o.mu.Lock()
	stores := append([]Store{}, o.stores...)
	o.mu.Unlock()
	var retries, hedges, hedgeWins, coded, sideInfo, fallbacks uint64
	for _, st := range stores {
		s := st.Stats()
		retries += s.Retries
		hedges += s.Hedges
		hedgeWins += s.HedgeWins
		coded += s.CodedBatches
		sideInfo += s.SideInfoHits
		fallbacks += s.CodeFallbacks
	}
	o.retries.Set(retries)
	o.hedges.Set(hedges)
	o.hedgeWins.Set(hedgeWins)
	o.codedBatches.Set(coded)
	o.sideInfoHits.Set(sideInfo)
	o.fallbacks.Set(fallbacks)
}

func (o *ClientObs) record(op string, start time.Time, err error) {
	o.latency.With(op).Observe(time.Since(start))
	switch {
	case err == nil:
		o.requests.With(op, outcomeOK).Inc()
	case errors.Is(err, ErrServerBusy):
		o.requests.With(op, outcomeBusy).Inc()
	default:
		o.requests.With(op, outcomeError).Inc()
	}
}

func (o *ClientObs) interceptUnary(ctx context.Context, index uint64, invoke UnaryInvoker) ([]byte, error) {
	start := time.Now()
	rec, err := invoke(ctx, index)
	o.record(opRetrieve, start, err)
	return rec, err
}

func (o *ClientObs) interceptBatch(ctx context.Context, indices []uint64, invoke BatchInvoker) ([][]byte, error) {
	start := time.Now()
	recs, err := invoke(ctx, indices)
	o.record(opRetrieveBatch, start, err)
	return recs, err
}

// WriteMetrics renders the bundle's families in the Prometheus text
// exposition format.
func (o *ClientObs) WriteMetrics(w io.Writer) error { return o.reg.WriteText(w) }

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

// ClientObsSnapshot is an in-process view of the bundle's counters for
// applications that want numbers rather than an exposition.
type ClientObsSnapshot struct {
	Retrieve      ClientCallStats
	RetrieveBatch ClientCallStats
	// Retries, Hedges and HedgeWins aggregate the attached stores'
	// client-side counters, as do the coded-batch and side-information
	// counters (non-zero only for coded deployments).
	Retries      uint64
	Hedges       uint64
	HedgeWins    uint64
	CodedBatches uint64
	SideInfoHits uint64
	Fallbacks    uint64
}

// Snapshot returns the bundle's current counters and latency quantiles.
func (o *ClientObs) Snapshot() ClientObsSnapshot {
	o.mirrorStores()
	return ClientObsSnapshot{
		Retrieve:      o.callStats(opRetrieve),
		RetrieveBatch: o.callStats(opRetrieveBatch),
		Retries:       o.retries.Value(),
		Hedges:        o.hedges.Value(),
		HedgeWins:     o.hedgeWins.Value(),
		CodedBatches:  o.codedBatches.Value(),
		SideInfoHits:  o.sideInfoHits.Value(),
		Fallbacks:     o.fallbacks.Value(),
	}
}

func (o *ClientObs) callStats(op string) ClientCallStats {
	s := o.latency.With(op).Snapshot()
	busy := o.requests.With(op, outcomeBusy).Value()
	return ClientCallStats{
		Calls:  s.Count,
		Errors: o.requests.With(op, outcomeError).Value() + busy,
		Busy:   busy,
		P50:    s.Quantile(0.50),
		P99:    s.Quantile(0.99),
		Max:    s.Max,
	}
}
