package impir

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// Store is the unified client surface of an IM-PIR deployment: one
// policy-bearing handle over whatever topology the deployment manifest
// describes — a flat server pair, a sharded cluster, replica sets per
// party, a batch code, or any combination. Open returns a Store whose
// concrete type is always *Client; the interface lets callers and tests
// substitute their own.
//
// Every call accepts per-call options overriding the Open-level
// defaults: timeouts, hedging, and retry budgets resolve per operation,
// not per connection.
type Store interface {
	// Retrieve privately fetches one record by (global) index.
	Retrieve(ctx context.Context, index uint64, opts ...CallOption) ([]byte, error)
	// RetrieveBatch privately fetches several records in one round trip
	// per server.
	RetrieveBatch(ctx context.Context, indices []uint64, opts ...CallOption) ([][]byte, error)
	// Update pushes a bulk record update — a public operator action — to
	// every replica that holds an affected record.
	Update(ctx context.Context, updates map[uint64][]byte, opts ...CallOption) error
	// NumRecords returns the record count the store serves (padded for
	// flat deployments, exact for sharded ones, logical for coded ones).
	NumRecords() uint64
	// RecordSize returns the record size in bytes.
	RecordSize() int
	// Stats snapshots the client-side counters.
	Stats() StoreStats
	// Close releases every server connection.
	Close() error
}

// StoreStats is a snapshot of a Store's client-side counters.
type StoreStats = metrics.StoreStats

var _ Store = (*Client)(nil)

// Open connects to a whole deployment described by a unified manifest
// and returns it as one logical Store. It is the single entry point for
// every topology:
//
//	d, _ := impir.LoadDeployment("deployment.json")
//	store, _ := impir.Open(ctx, d)
//	defer store.Close()
//	record, _ := store.Retrieve(ctx, 42)
//
// Every deployment opens as a *Client: a single shard's geometry is
// learned from — and, when the manifest declares it, validated against
// — the server handshake, and a deployment declaring a batch_code
// section routes RetrieveBatch through the multi-message batch planner
// (honouring WithSideInfoCache). Options configure the encoding, TLS,
// the interceptor chain, and the default per-call policy; per-call
// options on each operation override those defaults. Deployments whose
// manifest carries a keyword table still open as an index store here —
// use OpenKV for the key→value view.
func Open(ctx context.Context, d Deployment, opts ...ClientOption) (Store, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := clientConfig{encoding: EncodingAuto, defaults: callOptions{hedge: true}}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.encoding == nil {
		return nil, errors.New("impir: nil encoding")
	}
	c, err := openClient(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// OpenKV opens a deployment whose manifest carries a keyword table and
// returns the key→value view: a KVClient probing the underlying index
// Store with the constant-shape cuckoo batches. The deployment may be
// flat, sharded, or coded; the keyword layer composes with each.
func OpenKV(ctx context.Context, d Deployment, opts ...ClientOption) (*KVClient, error) {
	if d.Keyword == nil {
		return nil, errors.New("impir: deployment manifest carries no keyword table (set Deployment.Keyword or use WithKeyword)")
	}
	store, err := Open(ctx, d, opts...)
	if err != nil {
		return nil, err
	}
	kv, err := newKVClient(store, *d.Keyword)
	if err != nil {
		store.Close()
		return nil, err
	}
	return kv, nil
}

// defaultHedgeDelay is the floor before a party's share is hedged to
// its next-fastest replica when no per-call delay is set. The effective
// delay adapts upward to twice the primary's observed latency, so
// hedges fire on tail stalls, not on ordinary slowness.
const defaultHedgeDelay = 10 * time.Millisecond

// callOptions is the resolved per-call policy: Open-level defaults
// overridden by the CallOptions of one operation.
type callOptions struct {
	timeout    time.Duration // whole-operation deadline; 0 = none
	hedge      bool          // hedge across a party's replica set
	hedgeDelay time.Duration // floor before the first hedge; 0 = defaultHedgeDelay
	retries    int           // extra whole-operation attempts on transient failure
}

// CallOption adjusts the policy of a single Store operation, overriding
// the Open-level defaults installed with WithDefaultCallOptions.
type CallOption func(*callOptions)

// WithCallTimeout bounds the whole operation — every fan-out, hedge and
// retry included — by d. Zero removes an Open-level default timeout.
func WithCallTimeout(d time.Duration) CallOption {
	return func(co *callOptions) { co.timeout = d }
}

// WithHedging enables or disables hedged replica fan-out for the call.
// Hedging is on by default; it is a no-op for single-replica parties.
// Hedged replicas of the same party receive the same share that party
// would have received anyway — hedging trades a little duplicate work
// for tail latency, never privacy.
func WithHedging(on bool) CallOption {
	return func(co *callOptions) { co.hedge = on }
}

// WithHedgeDelay sets the floor before a lagging primary replica's
// share is hedged to the party's next-fastest replica. The effective
// delay is max(d, 2× the primary's observed latency), so a well-tuned
// floor approximates the deployment's p50.
func WithHedgeDelay(d time.Duration) CallOption {
	return func(co *callOptions) { co.hedgeDelay = d }
}

// WithRetries grants the call a budget of n extra whole-operation
// attempts after transient failures (server busy, broken or poisoned
// connections — which are transparently redialed before the next
// attempt, unifying the redial path with the retry path). Context
// cancellation and deadline expiry are never retried.
func WithRetries(n int) CallOption {
	return func(co *callOptions) {
		if n >= 0 {
			co.retries = n
		}
	}
}

// UnaryInvoker advances a Retrieve call to the next interceptor, or to
// the transport when invoked by the last one.
type UnaryInvoker func(ctx context.Context, index uint64) ([]byte, error)

// UnaryInterceptor intercepts Retrieve calls: it may inspect the
// context and index, short-circuit by returning without invoking, or
// wrap the invocation with logging, metrics, tracing, deadlines…
// Interceptors run in registration order, first outermost. The index an
// interceptor sees never leaves the client: everything below the
// interceptor chain is the PIR encoding, so observability code here
// sees what the servers cannot.
type UnaryInterceptor func(ctx context.Context, index uint64, invoke UnaryInvoker) ([]byte, error)

// BatchInvoker advances a RetrieveBatch call to the next interceptor,
// or to the transport when invoked by the last one.
type BatchInvoker func(ctx context.Context, indices []uint64) ([][]byte, error)

// BatchInterceptor intercepts RetrieveBatch calls; see UnaryInterceptor.
type BatchInterceptor func(ctx context.Context, indices []uint64, invoke BatchInvoker) ([][]byte, error)

// policy is the Client's call engine: the interceptor chain, the default
// call options, and the retry loop. The Client resolves a call and hands
// the whole pipeline here as the core operation, so interceptors and
// retries run exactly once per logical operation, never once per shard,
// party, or coded sub-query.
type policy struct {
	unary    []UnaryInterceptor
	batch    []BatchInterceptor
	defaults callOptions
	retries  *obs.Counter // counts every extra attempt
}

// resolve merges per-call options over the store defaults.
func (p *policy) resolve(opts []CallOption) callOptions {
	co := p.defaults
	for _, o := range opts {
		o(&co)
	}
	return co
}

// retryable reports whether a failed attempt may be re-tried: the
// caller aborting (cancellation, deadline) is final; everything else —
// busy servers, dropped or poisoned connections, replica failures — may
// succeed on a fresh attempt over redialed connections.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// withBudget runs core under the call's timeout and retry budget.
func (p *policy) withBudget(ctx context.Context, co callOptions, core func(ctx context.Context) error) error {
	if co.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, co.timeout)
		defer cancel()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		err := core(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= co.retries || !retryable(err) {
			return lastErr
		}
		p.retries.Inc()
		// attempt+1 extra attempts spent so far; the root span (installed
		// above this loop by the tracing interceptor) keeps the final tally.
		obs.SpanFromContext(ctx).SetAttrInt("retries", int64(attempt+1))
	}
}

// doUnary runs one Retrieve through the interceptor chain, the timeout,
// and the retry budget, in that nesting order: interceptors see one
// logical operation however many attempts it takes.
func (p *policy) doUnary(ctx context.Context, co callOptions, index uint64, core func(ctx context.Context, index uint64) ([]byte, error)) ([]byte, error) {
	inv := UnaryInvoker(func(ctx context.Context, index uint64) ([]byte, error) {
		var rec []byte
		err := p.withBudget(ctx, co, func(ctx context.Context) error {
			var cerr error
			rec, cerr = core(ctx, index)
			return cerr
		})
		if err != nil {
			return nil, err
		}
		return rec, nil
	})
	for i := len(p.unary) - 1; i >= 0; i-- {
		ic, next := p.unary[i], inv
		inv = func(ctx context.Context, index uint64) ([]byte, error) {
			return ic(ctx, index, next)
		}
	}
	return inv(ctx, index)
}

// doBatch is doUnary for RetrieveBatch.
func (p *policy) doBatch(ctx context.Context, co callOptions, indices []uint64, core func(ctx context.Context, indices []uint64) ([][]byte, error)) ([][]byte, error) {
	inv := BatchInvoker(func(ctx context.Context, indices []uint64) ([][]byte, error) {
		var recs [][]byte
		err := p.withBudget(ctx, co, func(ctx context.Context) error {
			var cerr error
			recs, cerr = core(ctx, indices)
			return cerr
		})
		if err != nil {
			return nil, err
		}
		return recs, nil
	})
	for i := len(p.batch) - 1; i >= 0; i-- {
		ic, next := p.batch[i], inv
		inv = func(ctx context.Context, indices []uint64) ([][]byte, error) {
			return ic(ctx, indices, next)
		}
	}
	return inv(ctx, indices)
}

// fmtParty names a party for error messages, with its replica count
// when hedging makes "which replica" ambiguous.
func fmtParty(p, replicas int) string {
	if replicas > 1 {
		return fmt.Sprintf("party %d (%d replicas)", p, replicas)
	}
	return fmt.Sprintf("party %d", p)
}
