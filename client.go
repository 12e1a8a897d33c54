package impir

import (
	"cmp"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/cluster"
	"github.com/impir/impir/internal/obs"
)

// Client is a connection to a whole PIR deployment; Open returns one for
// every topology. Every logical operation runs one call: it resolves the
// per-call options, opens the Observer's root span, applies the timeout,
// runs attempts under the retry budget, then ends the span and counts
// the outcome. Each attempt of a retrieval runs one pipeline, which
// sees the caller's logical indices whatever the topology:
//
//	code     logical indices → served rows: the identity on an uncoded
//	         deployment, the batch-code planner on a coded one
//	shard    rows → one sub-batch per shard cohort (a flat deployment is
//	         a one-shard plan over the servers' padded row count)
//	exchange every cohort's frames written, one share per party, before
//	         any reply is read; a party's share hedged across its
//	         replicas
//	decode   subresults XORed into records, mapped back to the indices
//
// Privacy: every shard cohort receives a well-formed sub-query for every
// broadcast row — the real local index on the owning shard, a uniform
// dummy elsewhere — so no cohort learns whether it owned the record, and
// every cohort's batch has the same shape. A PIR sub-query reveals
// nothing about its index, and which sub-queries were real or dummy
// exists only client-side. The client keeps no records between calls:
// every read asks the servers, so another client's write shows up in
// the next read.
//
// A call runs on its caller's goroutine and aborts as a whole when any
// shard's party fails (all of its replicas) or the context is
// cancelled: a proper subset of subresults is uniformly random and is
// never returned. Concurrent calls share each server connection, and
// the exchanges a call abandons are drained by the connection's next
// reader; a connection an I/O failure broke is redialed before it is
// written again, and a replica that stays dead only degrades its party
// to the surviving replicas.
//
// A Client may be shared by concurrent goroutines.
type Client struct {
	plan   cluster.Manifest  // shard row ranges; no addresses
	shards []*cohort         // one per shard, in plan order
	code   *batchcode.Layout // nil: the identity code
	cells  *clientCells

	defaults callOptions // per-call options override them
	observer *Observer   // nil: untraced
}

type clientConfig struct {
	encoding Encoding
	tlsCfg   *tls.Config
	defaults callOptions
	observer *Observer // nil: detached cells, untraced
}

// ClientOption customises Open.
type ClientOption func(*clientConfig)

// WithEncoding overrides the query encoding. The default, EncodingAuto,
// picks the DPF encoding for two-party cohorts and the naive share
// encoding for larger ones.
func WithEncoding(e Encoding) ClientOption {
	return func(cfg *clientConfig) { cfg.encoding = e }
}

// WithTLS dials every server over TLS with the given configuration. PIR
// hides the query from the servers themselves; TLS hides traffic from
// everyone else.
func WithTLS(tlsCfg *tls.Config) ClientOption {
	return func(cfg *clientConfig) { cfg.tlsCfg = tlsCfg }
}

// WithDefaultCallOptions installs store-level defaults applied to every
// call; per-call CallOptions override them.
func WithDefaultCallOptions(opts ...CallOption) ClientOption {
	return func(cfg *clientConfig) {
		for _, o := range opts {
			o(&cfg.defaults)
		}
	}
}

// openClient connects every shard's cohort concurrently and lays the
// plan and the code over them.
func openClient(ctx context.Context, d Deployment, cfg clientConfig) (*Client, error) {
	c := &Client{shards: make([]*cohort, len(d.Shards)), defaults: cfg.defaults, observer: cfg.observer}
	errs := make([]error, len(d.Shards))
	var wg sync.WaitGroup
	for s, shard := range d.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.shards[s], errs[s] = openCohort(ctx, c, s, shard, d.RecordSize, cfg)
			if errs[s] != nil && len(d.Shards) > 1 {
				errs[s] = fmt.Errorf("impir: shard %d: %w", s, errs[s])
			}
		}()
	}
	wg.Wait()
	err := cmp.Or(errs...)
	if err == nil {
		err = c.layOut(d)
	}
	if err == nil {
		c.cells, err = cfg.observer.claim(len(d.Shards))
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// layOut builds the shard plan — a flat deployment's one range is the
// row count its servers pad to, which the manifest may leave to the
// handshake — and, on a coded deployment, the batch-code layout,
// cross-checked against the served geometry.
func (c *Client) layOut(d Deployment) error {
	c.plan = cluster.Manifest{RecordSize: c.shards[0].recordSize}
	for s, shard := range d.Shards {
		n := shard.NumRecords
		if len(d.Shards) == 1 {
			n = c.shards[s].geom.numRecords
		}
		c.plan.Shards = append(c.plan.Shards, cluster.Shard{FirstRecord: shard.FirstRecord, NumRecords: n})
	}
	if err := c.plan.Validate(); err != nil {
		return err
	}
	if d.BatchCode == nil {
		return nil
	}
	code := *d.BatchCode
	if c.plan.NumRecords() < code.TotalRows() {
		return fmt.Errorf("impir: deployment serves %d rows but the batch code lays out %d; the servers are not holding the coded database",
			c.plan.NumRecords(), code.TotalRows())
	}
	if c.plan.RecordSize != code.RecordSize {
		return fmt.Errorf("impir: deployment serves %d-byte records but the batch code declares %d",
			c.plan.RecordSize, code.RecordSize)
	}
	var err error
	c.code, err = batchcode.NewLayout(code)
	return err
}

// NumRecords returns the record count callers address: the logical
// count of a coded deployment, the total of a sharded one, and the 2^d
// index space the servers of a flat one announce.
func (c *Client) NumRecords() uint64 {
	if c.code != nil {
		return c.code.Manifest().NumRecords
	}
	return c.plan.NumRecords()
}

// RecordSize returns the record size in bytes.
func (c *Client) RecordSize() int { return c.plan.RecordSize }

// Shards returns the shard count (1 for a flat deployment).
func (c *Client) Shards() int { return len(c.shards) }

// Servers returns the number of non-colluding parties in the first
// shard's cohort (the historical name: with single-replica parties,
// parties == servers).
func (c *Client) Servers() int { return len(c.shards[0].parties) }

// Encoding reports the first shard's resolved query encoding ("dpf" or
// "shares"); each cohort resolves its own from its party count.
func (c *Client) Encoding() string { return c.shards[0].enc.String() }

// Retrieve privately fetches one record: one well-formed sub-query per
// shard cohort, one share per party within each. Every share is written
// before any reply is read, so the call costs its slowest server, not
// the sum. No server learns the index.
func (c *Client) Retrieve(ctx context.Context, index uint64, opts ...CallOption) ([]byte, error) {
	if err := c.check(index); err != nil {
		return nil, err
	}
	var recs [][]byte
	err := c.call(ctx, &c.cells.retrieve, opRetrieve, opts, func(ctx context.Context, co callOptions) (err error) {
		recs, err = c.fetch(ctx, co, []uint64{index}, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// RetrieveBatch privately fetches several records in one round trip per
// server. On a coded deployment the batch costs a constant number of
// sub-queries whatever its size; batches over the declared cap, or whose
// matching overflows, fall back to one sub-query per record (counted in
// Stats().CodeFallbacks). An empty batch is a no-op: it returns an
// empty (non-nil) slice without touching the network, so callers
// assembling batches programmatically need no zero-length special case.
func (c *Client) RetrieveBatch(ctx context.Context, indices []uint64, opts ...CallOption) ([][]byte, error) {
	if len(indices) == 0 {
		return [][]byte{}, nil
	}
	if err := c.check(indices...); err != nil {
		return nil, err
	}
	var recs [][]byte
	err := c.call(ctx, &c.cells.batch, opRetrieveBatch, opts, func(ctx context.Context, co callOptions) (err error) {
		// The root span (nil when untraced) records the batch width.
		obs.SpanFromContext(ctx).SetAttrInt("batch_size", int64(len(indices)))
		recs, err = c.fetch(ctx, co, indices, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// call runs one logical operation. In order, it applies the per-call
// options over the store defaults, opens the Observer's root span (with
// the context's op attributes), applies the timeout, and runs attempt
// until it succeeds, fails for good, or spends the retry budget; then
// it ends the span and counts the outcome in op. The span, the timeout,
// the retry budget and the counts therefore cover one logical
// operation, however many shards, parties, coded slots, hedges and
// retries it spans.
func (c *Client) call(ctx context.Context, op *opCells, name string, opts []CallOption,
	attempt func(ctx context.Context, co callOptions) error) error {
	start, co := time.Now(), c.defaults
	for _, o := range opts {
		o(&co)
	}
	span := c.observer.begin(ctx, name)
	ctx = obs.ContextWithSpan(ctx, span)
	if co.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, co.timeout)
		defer cancel()
	}
	var err error
	for n := 0; ; n++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			break
		}
		if err = attempt(ctx, co); err == nil || n >= co.retries || !retryable(err) {
			break
		}
		c.cells.retries.Inc()
		span.SetAttrInt("retries", int64(n+1))
	}
	c.observer.finish(span, err)
	op.done(start, err)
	return err
}

// retryable reports whether a failed attempt may be re-tried: the
// caller aborting (cancellation, deadline) is final; everything else —
// busy servers, broken connections, replica failures — may succeed on a
// fresh attempt over redialed connections.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func (c *Client) check(indices ...uint64) error {
	for _, idx := range indices {
		if idx >= c.NumRecords() {
			return fmt.Errorf("impir: index %d outside database of %d records", idx, c.NumRecords())
		}
	}
	return nil
}

// fetch is one attempt of the pipeline below the policy: code, shard,
// exchange, decode. batch selects the wire frame — false sends every
// cohort one single query (Retrieve).
func (c *Client) fetch(ctx context.Context, co callOptions, indices []uint64, batch bool) ([][]byte, error) {
	rows, local, decode, err := c.encode(indices, batch)
	if err != nil {
		return nil, err
	}
	plan, err := c.plan.PlanBatch(rows, local)
	if err != nil {
		return nil, err
	}
	// Every row of the identity code is real; a coded plan's slots may be
	// dummies, which its spans do not tell apart.
	owners := plan.Owners
	if c.code != nil {
		owners = nil
	}
	flights, err := c.run(ctx, owners, func(f *flight) error {
		return f.prepareRead(ctx, co, plan.Locals[f.co.shard], batch)
	})
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, len(rows))
	for i, s := range plan.Owners {
		recs[i] = flights[s].answers[plan.Pos[i]]
	}
	return decode(recs), nil
}

// encode is the code step: it maps logical indices to the rows to
// fetch, the number of leading rows that stay on their own shard, and
// how to decode the rows' records. The identity code maps each index to
// its own row, and a coded single retrieval reads the record's first
// copy. A coded batch becomes the planner's constant-shape slot vector,
// whose bucket slots each stay on the shard holding the bucket; a batch
// the planner cannot place falls back to first copies, one row per
// record — the uncoded shape, which shows the batch's size.
func (c *Client) encode(indices []uint64, batch bool) ([]uint64, int, func([][]byte) [][]byte, error) {
	if c.code == nil {
		return indices, 0, func(recs [][]byte) [][]byte { return recs }, nil
	}
	if batch {
		plan, ok, err := c.code.PlanBatch(indices, nil)
		if err != nil {
			return nil, 0, nil, err
		}
		if ok {
			return plan.Indices, c.code.Manifest().Buckets, func(recs [][]byte) [][]byte {
				out := make([][]byte, len(indices))
				for i, src := range plan.Sources {
					if src.Kind == batchcode.FromDup {
						out[i] = append([]byte(nil), out[src.Dup]...)
					} else {
						out[i] = recs[src.Slot]
					}
				}
				c.cells.codedBatches.Inc()
				c.cells.codedQueries.Add(uint64(len(plan.Indices)))
				c.cells.codedDummies.Add(uint64(len(plan.Indices) - plan.Real))
				return out
			}, nil
		}
	}
	rows := make([]uint64, len(indices))
	for i, idx := range indices {
		rows[i] = c.code.Row(idx, 0)
	}
	return rows, 0, func(recs [][]byte) [][]byte {
		if batch {
			c.cells.codeFallbacks.Inc()
		}
		return recs
	}, nil
}

// run is the one exchange loop of every call, on the caller's
// goroutine. It prepares every shard's flight, then writes every frame
// in (shard, party, replica) order, then reads every reply in the same
// order. No call holds a connection while it waits: a write holds one
// only for its frame, and a read waits only for replies already
// written. A read's first failure ends the call, and every exchange
// written but not read is abandoned; an update reads every
// acknowledgement and joins the failures. A one-shard store — a flat
// deployment — opens no shard span. owners, when given, are the shards
// owning each real sub-query; they label the shard spans client-side
// only — every cohort's wire traffic has the same shape.
func (c *Client) run(ctx context.Context, owners []int, prepare func(f *flight) error) ([]flight, error) {
	root := obs.SpanFromContext(ctx)
	flights := make([]flight, len(c.shards))
	defer func() {
		for i := range flights {
			flights[i].end(context.Canceled)
		}
	}()
	for s, sh := range c.shards {
		f := &flights[s]
		f.co, f.parent = sh, root
		if len(c.shards) > 1 {
			f.span = root.StartChild("shard")
			f.span.SetAttrInt("shard", int64(s))
			if owners != nil {
				owned := 0
				for _, o := range owners {
					if o == s {
						owned++
					}
				}
				f.span.SetAttrInt("real", int64(owned))
				f.span.SetAttrBool("dummy", owned == 0)
			}
			f.parent = f.span
		}
		if err := prepare(f); err != nil {
			return nil, f.end(err)
		}
	}
	for s := range flights {
		if err := flights[s].write(ctx); err != nil {
			return nil, flights[s].end(err)
		}
	}
	var errs []error
	for s := range flights {
		if err := flights[s].end(flights[s].read(ctx)); err != nil {
			if errs = append(errs, err); flights[s].updates == nil {
				return nil, err
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return flights, nil
}

// Update pushes a §3.3 bulk record update: updates maps record index to
// its new contents (exactly RecordSize bytes each). Each row travels
// only to the shard that holds it — on a coded deployment, to every
// coded copy of the record — and there to EVERY replica of every party.
// Updates are an operator/owner action, not a private query — servers
// learn which records changed, by design — and each server applies its
// set atomically under its scheduler's epoch quiescing, so concurrent
// retrievals never observe a torn update. Updates are never hedged and
// need every affected replica reachable: a replica skipped by an update
// would serve stale records as if they were current. Servers reject wire
// updates unless started with ServerConfig.AllowWireUpdates.
//
// Every affected replica receives its frame before any acknowledgement
// is awaited, and every acknowledgement is read within the call's
// deadline, after a failed one too. The error joins every failed
// replica's, each naming its shard, party and replica; the replicas it
// does not name applied the update, so replicas may have diverged.
// Retry the same update until it succeeds everywhere — the per-server
// application is idempotent, and a WithRetries budget spends itself on
// exactly this — or tear the deployment down; a divergence is also
// caught by the digest cross-check at the next connect.
func (c *Client) Update(ctx context.Context, updates map[uint64][]byte, opts ...CallOption) error {
	if len(updates) == 0 {
		return errors.New("impir: empty update set")
	}
	rows := updates
	if c.code != nil {
		rows = make(map[uint64][]byte, len(updates)*c.code.Manifest().Choices)
		for idx, rec := range updates {
			if err := c.check(idx); err != nil {
				return err
			}
			for j := 0; j < c.code.Manifest().Choices; j++ {
				rows[c.code.Row(idx, j)] = rec
			}
		}
	}
	routed, err := c.plan.RouteUpdate(rows)
	if err != nil {
		return err
	}
	err = c.call(ctx, &c.cells.update, opUpdate, opts, func(ctx context.Context, _ callOptions) error {
		_, err := c.run(ctx, nil, func(f *flight) error {
			return f.prepareUpdate(ctx, routed[f.co.shard])
		})
		return err
	})
	// Routed rows count per LOGICAL update, however many attempts it took.
	for s, sub := range routed {
		c.cells.shards[s][shardUpdateRows].Add(uint64(len(sub)))
	}
	return err
}

// Stats snapshots the client-side counters: a typed read of its cells.
func (c *Client) Stats() StoreStats { return c.cells.stats() }

// Close closes every server connection. A closed Client stays closed:
// later calls fail rather than redial.
func (c *Client) Close() error {
	var err error
	for _, sh := range c.shards {
		if sh != nil {
			if cerr := sh.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
