package impir

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/impir/impir/internal/metrics"
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
// section routes RetrieveBatch through the multi-message batch planner.
// Options configure the encoding — an
// encoding that cannot serve a cohort's party count is refused before
// that cohort dials — TLS, telemetry (an Observer), and the
// default per-call policy; per-call options on each operation override
// those defaults. Deployments whose manifest carries a keyword table
// still open as an index store here — use OpenKV for the key→value view.
func Open(ctx context.Context, d Deployment, opts ...ClientOption) (Store, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := clientConfig{defaults: callOptions{hedge: true}}
	for _, opt := range opts {
		opt(&cfg)
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
// attempts after transient failures (server busy, broken connections —
// which are transparently redialed before the next attempt, unifying
// the redial path with the retry path). Context
// cancellation and deadline expiry are never retried.
func WithRetries(n int) CallOption {
	return func(co *callOptions) {
		if n >= 0 {
			co.retries = n
		}
	}
}

// fmtParty names a party for error messages, with its replica count
// when hedging makes "which replica" ambiguous.
func fmtParty(p, replicas int) string {
	if replicas > 1 {
		return fmt.Sprintf("party %d (%d replicas)", p, replicas)
	}
	return fmt.Sprintf("party %d", p)
}
