package impir

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/impir/impir/internal/fanout"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/transport"
)

// Client is a connection to one cohort of a PIR deployment: ≥ 2
// mutually non-colluding parties, each running one or more
// interchangeable replicas. Open returns a *Client for single-shard
// deployments; the historical Dial entry point wraps Open's flat path.
//
// Every retrieval encodes one query share per PARTY and sends each
// share to that party's fastest-known replica, hedging to the
// next-fastest replicas when the primary lags (first valid answer per
// party wins, losers are cancelled) — replicas of one party form one
// trust domain holding identical data, so hedging trades duplicate work
// for tail latency without touching the privacy argument. Parties are
// queried concurrently and a retrieval aborts as a whole when any PARTY
// fails (all of its replicas) or the context is cancelled: a proper
// subset of subresults is uniformly random and must never be mistaken
// for a record.
//
// A Client may be shared by concurrent goroutines; overlapping
// retrievals are serialised per server connection. A query abandoned
// mid-flight — by cancellation, a losing hedge, or a peer failure —
// poisons its connection (the wire protocol has no cancellation frame),
// but the Client heals itself: the next call transparently redials
// poisoned connections before fanning out. A replica that stays dead
// only degrades its party to the surviving replicas; calls keep
// succeeding as long as every party retains one live replica. A
// redialed connection is validated against the geometry learned at
// connect time; the full cross-replica digest check runs only at
// connect (replica contents may legitimately change between redials via
// Update).
type Client struct {
	parties    [][]string // party → replica addresses
	tlsCfg     *tls.Config
	coder      queryCoder
	geom       geometry
	recordSize int
	policy     policy

	mu    sync.Mutex // guards conns replacement on redial and ewma
	conns [][]*transport.Conn
	ewma  [][]float64 // observed replica latency, EWMA, nanoseconds; 0 = unknown

	statsMu sync.Mutex
	stats   metrics.StoreStats
}

type clientConfig struct {
	encoding Encoding
	tlsCfg   *tls.Config
	unary    []UnaryInterceptor
	batch    []BatchInterceptor
	defaults callOptions
	sideInfo int
}

func resolveClientConfig(opts []ClientOption) clientConfig {
	cfg := clientConfig{encoding: EncodingAuto, defaults: defaultCallOptions()}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// newPolicy builds the store's call engine from its config, wiring the
// retry counter to the owning client's stats.
func (cfg clientConfig) newPolicy(onRetry func()) policy {
	return policy{unary: cfg.unary, batch: cfg.batch, defaults: cfg.defaults, onRetry: onRetry}
}

// shardConfig strips the interceptor chain for per-shard sub-clients of
// a cluster: interceptors run once per logical operation at the top.
func (cfg clientConfig) shardConfig() clientConfig {
	cfg.unary, cfg.batch = nil, nil
	return cfg
}

// ClientOption customises Open (and the deprecated Dial* wrappers).
type ClientOption func(*clientConfig)

// WithEncoding overrides the query encoding. The default, EncodingAuto,
// picks the DPF encoding for two-party deployments and the naive share
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

// WithUnaryInterceptor appends interceptors to the store's Retrieve
// chain; they run in registration order, first outermost.
func WithUnaryInterceptor(is ...UnaryInterceptor) ClientOption {
	return func(cfg *clientConfig) { cfg.unary = append(cfg.unary, is...) }
}

// WithBatchInterceptor appends interceptors to the store's
// RetrieveBatch chain; they run in registration order, first outermost.
func WithBatchInterceptor(is ...BatchInterceptor) ClientOption {
	return func(cfg *clientConfig) { cfg.batch = append(cfg.batch, is...) }
}

// WithSideInfoCache keeps the last n decoded records in a client-side
// LRU and spends hits as side information on coded deployments: a
// cached record is dropped from the batch planner's real assignment and
// its bucket query replaced by a well-formed dummy, so the wire traffic
// is byte-identical with or without the hit. Only effective when the
// deployment declares a batch_code section (Open ignores it otherwise —
// the uncoded paths have no constant shape to hide hits behind).
func WithSideInfoCache(n int) ClientOption {
	return func(cfg *clientConfig) { cfg.sideInfo = n }
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

// Dial connects to every server of a flat PIR deployment — one
// single-replica party per address.
//
// Deprecated: use Open with a Deployment (FlatDeployment(addrs...) for
// this exact topology); Open adds replica sets, hedging, per-call
// policy, and the interceptor chain, and returns the same *Client for
// single-shard deployments.
func Dial(ctx context.Context, addrs []string, opts ...ClientOption) (*Client, error) {
	cfg := resolveClientConfig(opts)
	if cfg.encoding == nil {
		return nil, errors.New("impir: nil encoding")
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("impir: a PIR deployment needs ≥ 2 non-colluding servers, got %d address(es)", len(addrs))
	}
	return openFlat(ctx, FlatDeployment(addrs...).Shards[0], 0, cfg)
}

// openFlat connects one cohort: every replica of every party, with
// cross-replica validation and — when the manifest declares geometry —
// a handshake check against it.
func openFlat(ctx context.Context, shard DeploymentShard, recordSize int, cfg clientConfig) (*Client, error) {
	parties := shard.cohorts()
	if len(parties) < 2 {
		return nil, fmt.Errorf("impir: a PIR cohort needs ≥ 2 non-colluding parties, got %d", len(parties))
	}
	coder, err := cfg.encoding.resolve(len(parties))
	if err != nil {
		return nil, err
	}

	c := &Client{parties: parties, tlsCfg: cfg.tlsCfg, coder: coder}
	c.policy = cfg.newPolicy(func() {
		c.bump(func(st *metrics.StoreStats) { st.Retries++ })
	})
	c.stats.Shards = make([]metrics.ShardStats, 1)

	// Dial every replica of every party concurrently. A party tolerates
	// dead replicas at open as it does later: it needs one live replica,
	// and the dead ones are retried transparently on each call.
	conns := make([][]*transport.Conn, len(parties))
	dialErrs := make([][]error, len(parties))
	c.ewma = make([][]float64, len(parties))
	var wg sync.WaitGroup
	for p, replicas := range parties {
		conns[p] = make([]*transport.Conn, len(replicas))
		dialErrs[p] = make([]error, len(replicas))
		c.ewma[p] = make([]float64, len(replicas))
		for r := range replicas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conns[p][r], dialErrs[p][r] = c.dialReplica(ctx, p, r)
			}()
		}
	}
	wg.Wait()
	c.conns = conns

	for p := range conns {
		alive := 0
		for _, conn := range conns[p] {
			if conn != nil {
				alive++
			}
		}
		if alive == 0 {
			err = fmt.Errorf("impir: %s unreachable: %w", fmtParty(p, len(parties[p])), firstNonNil(dialErrs[p]))
			break
		}
	}
	if err == nil {
		err = c.validate()
	}
	if err == nil && recordSize > 0 && c.recordSize != recordSize {
		err = fmt.Errorf("impir: servers serve %d-byte records, manifest says %d", c.recordSize, recordSize)
	}
	if err == nil && shard.NumRecords > 0 {
		if want := nextPow2(shard.NumRecords); c.geom.numRecords != want {
			err = fmt.Errorf("impir: servers serve %d records, manifest range of %d pads to %d",
				c.geom.numRecords, shard.NumRecords, want)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func firstNonNil(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return errors.New("no replicas")
}

// validate cross-checks the replicas every connected server presented
// during its handshake: identical digests and geometry, non-empty
// database — across parties AND within each party's replica set (a flat
// cohort serves one database; a replica mismatch silently breaks
// reconstruction). It also learns the cohort geometry.
func (c *Client) validate() error {
	var first *transport.Conn
	for p, reps := range c.conns {
		for r, conn := range reps {
			if conn == nil {
				continue
			}
			if first == nil {
				first = conn
				continue
			}
			info, finfo := conn.Info(), first.Info()
			if info.Digest != finfo.Digest {
				return fmt.Errorf("impir: party %d replica %d holds a different database replica (digest mismatch)", p, r)
			}
			if info.NumRecords != finfo.NumRecords || info.RecordSize != finfo.RecordSize ||
				info.Domain != finfo.Domain {
				return fmt.Errorf("impir: party %d replica %d disagrees on database geometry", p, r)
			}
		}
	}
	if first == nil {
		return errors.New("impir: no server connections")
	}
	info := first.Info()
	if info.NumRecords == 0 {
		return errors.New("impir: servers report an empty database")
	}
	c.geom = geometry{domain: int(info.Domain), numRecords: info.NumRecords}
	c.recordSize = int(info.RecordSize)
	return nil
}

// dialReplica (re)establishes the connection to party p's replica r
// under the Client's dial options.
func (c *Client) dialReplica(ctx context.Context, p, r int) (*transport.Conn, error) {
	addr := c.parties[p][r]
	if c.tlsCfg != nil {
		return transport.DialTLS(ctx, addr, c.tlsCfg)
	}
	return transport.Dial(ctx, addr)
}

// liveConns returns a usable connection snapshot, transparently
// redialing connections a previously abandoned exchange poisoned (or
// that never came up). With needAll false — the retrieval path — a
// replica that stays dead leaves a nil slot and only its PARTY must
// retain a live replica; with needAll true — the update path — every
// replica must be reachable, because an update must land on all of
// them. A fresh connection must present the geometry learned at connect
// time; the digest is deliberately not re-checked (Update legitimately
// changes it — replica agreement is cross-checked at connect).
//
// Dialing happens outside the Client mutex: a slow or unreachable
// server stalls only the call that needs it, never concurrent calls
// over healthy connections and never Close.
func (c *Client) liveConns(ctx context.Context, needAll bool) ([][]*transport.Conn, error) {
	c.mu.Lock()
	if c.conns == nil {
		c.mu.Unlock()
		return nil, errors.New("impir: client is closed")
	}
	snapshot := snapshotConns(c.conns)
	c.mu.Unlock()

	var broken []connSlot
	for p, reps := range snapshot {
		for r, conn := range reps {
			if conn == nil || conn.Broken() {
				broken = append(broken, connSlot{p, r})
			}
		}
	}
	if len(broken) == 0 {
		return snapshot, nil
	}

	fresh := make([]*transport.Conn, len(broken))
	dialErrs := make([]error, len(broken))
	var wg sync.WaitGroup
	for i, s := range broken {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := c.dialReplica(ctx, s.p, s.r)
			if err != nil {
				dialErrs[i] = fmt.Errorf("impir: redial %s replica %d: %w", fmtParty(s.p, len(c.parties[s.p])), s.r, err)
				return
			}
			info := conn.Info()
			if info.NumRecords != c.geom.numRecords || int(info.Domain) != c.geom.domain ||
				int(info.RecordSize) != c.recordSize {
				conn.Close()
				dialErrs[i] = fmt.Errorf("impir: redialed party %d replica %d presents a different database geometry", s.p, s.r)
				return
			}
			fresh[i] = conn
		}()
	}
	wg.Wait()

	c.mu.Lock()
	if c.conns == nil {
		c.mu.Unlock()
		for _, conn := range fresh {
			if conn != nil {
				conn.Close()
			}
		}
		return nil, errors.New("impir: client is closed")
	}
	for i, s := range broken {
		// A concurrent liveConns may have healed this slot while we
		// dialed; keep the existing healthy connection and drop ours.
		if cur := c.conns[s.p][s.r]; cur != nil && !cur.Broken() {
			if fresh[i] != nil {
				fresh[i].Close()
			}
			continue
		}
		if cur := c.conns[s.p][s.r]; cur != nil {
			cur.Close()
		}
		c.conns[s.p][s.r] = fresh[i] // possibly nil: replica stays down
	}
	out := snapshotConns(c.conns)
	c.mu.Unlock()

	for p, reps := range out {
		alive := 0
		for _, conn := range reps {
			if conn != nil && !conn.Broken() {
				alive++
			}
		}
		if needAll && alive < len(reps) {
			return nil, fmt.Errorf("impir: not every replica of %s is reachable (updates must land on all replicas): %w",
				fmtParty(p, len(reps)), firstSlotErr(dialErrs, broken, p))
		}
		if alive == 0 {
			return nil, fmt.Errorf("impir: %s has no live replicas: %w",
				fmtParty(p, len(reps)), firstSlotErr(dialErrs, broken, p))
		}
	}
	return out, nil
}

func snapshotConns(conns [][]*transport.Conn) [][]*transport.Conn {
	out := make([][]*transport.Conn, len(conns))
	for p, reps := range conns {
		out[p] = append([]*transport.Conn(nil), reps...)
	}
	return out
}

// connSlot addresses one replica connection by (party, replica) index.
type connSlot struct{ p, r int }

func firstSlotErr(errs []error, broken []connSlot, party int) error {
	for i, s := range broken {
		if s.p == party && errs[i] != nil {
			return errs[i]
		}
	}
	return errors.New("replica down")
}

// Servers returns the number of non-colluding parties of the cohort
// (the historical name: with single-replica parties, parties == servers).
func (c *Client) Servers() int { return len(c.parties) }

// Replicas returns the total replica count across all parties.
func (c *Client) Replicas() int {
	n := 0
	for _, reps := range c.parties {
		n += len(reps)
	}
	return n
}

// NumRecords returns the (power-of-two padded) record count of the
// deployment.
func (c *Client) NumRecords() uint64 { return c.geom.numRecords }

// RecordSize returns the record size in bytes.
func (c *Client) RecordSize() int { return c.recordSize }

// Encoding reports the resolved query encoding ("dpf" or "shares").
func (c *Client) Encoding() string { return c.coder.name() }

// Stats snapshots the client-side counters.
func (c *Client) Stats() StoreStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := c.stats
	out.Shards = append([]metrics.ShardStats(nil), c.stats.Shards...)
	return out
}

func (c *Client) bump(f func(*metrics.StoreStats)) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	f(&c.stats)
}

// Retrieve privately fetches record index: one query share per party,
// issued to all parties concurrently (hedged across each party's
// replicas), XOR of all subresults. No party learns the index; each
// sees only its pseudorandom share.
func (c *Client) Retrieve(ctx context.Context, index uint64, opts ...CallOption) ([]byte, error) {
	if index >= c.geom.numRecords {
		return nil, fmt.Errorf("impir: index %d outside database of %d records", index, c.geom.numRecords)
	}
	co := c.policy.resolve(opts)
	rec, err := c.policy.doUnary(ctx, co, index, func(ctx context.Context, index uint64) ([]byte, error) {
		return c.retrieve(ctx, co, index)
	})
	c.bump(func(st *metrics.StoreStats) {
		if err == nil {
			st.Retrievals++
		} else {
			countFailure(st, err)
		}
	})
	return rec, err
}

// retrieve is the core operation under the policy engine: encode, fan
// out, reconstruct. Shard clients of a ClusterClient are driven here
// directly with the cluster's resolved options, bypassing their own
// policy.
func (c *Client) retrieve(ctx context.Context, co callOptions, index uint64) ([]byte, error) {
	queries, err := c.coder.encode(c.geom, len(c.parties), index)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	subresults, err := c.fanOut(ctx, co, queries)
	c.record(1, 0, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, len(subresults))
	for i, rs := range subresults {
		recs[i] = rs[0]
	}
	return Reconstruct(recs...)
}

// RetrieveBatch privately fetches several records in one round trip per
// party, under either encoding. An empty batch is a no-op: it returns
// an empty (non-nil) slice without touching the network, so callers
// assembling batches programmatically — like the keyword layer's padded
// probe plans — need no zero-length special case.
func (c *Client) RetrieveBatch(ctx context.Context, indices []uint64, opts ...CallOption) ([][]byte, error) {
	if len(indices) == 0 {
		return [][]byte{}, nil
	}
	for _, idx := range indices {
		if idx >= c.geom.numRecords {
			return nil, fmt.Errorf("impir: index %d outside database of %d records", idx, c.geom.numRecords)
		}
	}
	co := c.policy.resolve(opts)
	recs, err := c.policy.doBatch(ctx, co, indices, func(ctx context.Context, indices []uint64) ([][]byte, error) {
		return c.retrieveBatch(ctx, co, indices)
	})
	c.bump(func(st *metrics.StoreStats) {
		if err == nil {
			st.BatchRetrievals++
		} else {
			countFailure(st, err)
		}
	})
	return recs, err
}

// retrieveBatch is RetrieveBatch's core operation; see retrieve.
func (c *Client) retrieveBatch(ctx context.Context, co callOptions, indices []uint64) ([][]byte, error) {
	queries, err := c.coder.encodeBatch(c.geom, len(c.parties), indices)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	subresults, err := c.fanOut(ctx, co, queries)
	c.record(0, uint64(len(indices)), time.Since(start), err)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(indices))
	for i := range indices {
		recs := make([][]byte, len(subresults))
		for s, rs := range subresults {
			if i >= len(rs) {
				return nil, fmt.Errorf("impir: party %d returned %d of %d batch subresults", s, len(rs), len(indices))
			}
			recs[s] = rs[i]
		}
		rec, err := Reconstruct(recs...)
		if err != nil {
			return nil, fmt.Errorf("impir: batch item %d: %w", i, err)
		}
		out[i] = rec
	}
	return out, nil
}

// record accumulates one round trip's cohort counters.
func (c *Client) record(queries, batchQueries uint64, d time.Duration, err error) {
	c.bump(func(st *metrics.StoreStats) {
		sh := &st.Shards[0]
		sh.Queries += queries
		if batchQueries > 0 {
			sh.Batches++
			sh.BatchQueries += batchQueries
		}
		sh.TotalTime += d
		if err != nil {
			sh.Errors++
		}
	})
}

// fanOut issues one pre-encoded query share per party, all parties
// concurrent, each share hedged across its party's replicas, and
// collects every party's subresults. The first PARTY failure cancels
// the remaining queries and fails the whole retrieval — a lone
// subresult is never returned. Connections poisoned by an earlier
// abandoned exchange are transparently redialed first.
func (c *Client) fanOut(ctx context.Context, co callOptions, queries []serverQuery) ([][][]byte, error) {
	conns, err := c.liveConns(ctx, false)
	if err != nil {
		return nil, err
	}
	span := obs.SpanFromContext(ctx)
	subresults := make([][][]byte, len(conns))
	g, gctx := fanout.WithContext(ctx)
	for p := range conns {
		g.Go(func() error {
			psp := span.StartChild("party")
			psp.SetAttrInt("party", int64(p))
			psp.SetAttrInt("replicas", int64(len(conns[p])))
			rs, err := c.partyDo(obs.ContextWithSpan(gctx, psp), co, p, conns[p], queries[p])
			if err != nil {
				psp.SetAttr("error", err.Error())
				psp.End()
				return fmt.Errorf("impir: %s: %w", fmtParty(p, len(conns[p])), err)
			}
			psp.End()
			subresults[p] = rs
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return subresults, nil
}

// partyDo executes one party's share against its replica set:
// fastest-first by observed latency, hedging to the next replica when
// the primary lags (or immediately when it fails), first valid answer
// wins, losers cancelled. Single-replica parties — and calls with
// hedging off — use the primary alone.
func (c *Client) partyDo(ctx context.Context, co callOptions, p int, conns []*transport.Conn, q serverQuery) ([][]byte, error) {
	order, primaryEWMA := c.replicaOrder(p, conns)
	if len(order) == 0 {
		return nil, errors.New("no live replicas")
	}
	psp := obs.SpanFromContext(ctx)
	n := 1
	if co.hedge {
		n = len(order)
	}
	if n == 1 {
		att := psp.StartChild("attempt")
		att.SetAttrInt("replica", int64(order[0]))
		start := time.Now()
		rs, err := q.do(attemptContext(ctx, att), conns[order[0]])
		if err == nil {
			c.observeLatency(p, order[0], time.Since(start), false)
			att.SetAttr("outcome", "ok")
		} else {
			att.SetAttr("outcome", "error")
			att.SetAttr("error", err.Error())
		}
		att.End()
		return rs, err
	}

	delay := co.hedgeDelay
	if delay <= 0 {
		delay = defaultHedgeDelay
	}
	// Adapt upward: hedge when the primary takes twice its usual time,
	// not merely longer than a fixed floor tuned for someone else's
	// deployment.
	if adaptive := 2 * time.Duration(primaryEWMA); adaptive > delay {
		delay = adaptive
	}
	psp.SetAttr("hedge_delay", delay.String())

	rs, winner, err := fanout.Hedge(ctx, n, delay, func(ctx context.Context, i int) ([][]byte, error) {
		if i > 0 {
			c.bump(func(st *metrics.StoreStats) { st.Hedges++ })
		}
		att := psp.StartChild("attempt")
		att.SetAttrInt("replica", int64(order[i]))
		att.SetAttrBool("hedge", i > 0)
		start := time.Now()
		rs, err := q.do(attemptContext(ctx, att), conns[order[i]])
		if err == nil {
			c.observeLatency(p, order[i], time.Since(start), false)
			att.SetAttr("outcome", "ok")
		} else if ctx.Err() != nil {
			// A cancelled exchange only tells us the replica took AT
			// LEAST this long — it lost the race, or the whole call was
			// abandoned early. Feed it in as a lower bound (it can raise
			// the estimate, never drag it down), which demotes
			// chronically slow replicas from primary without letting an
			// early external cancellation make a slow replica look fast.
			c.observeLatency(p, order[i], time.Since(start), true)
			if context.Cause(ctx) == fanout.ErrHedgeLost {
				att.SetAttr("outcome", "lost")
				att.SetAttrBool("cancelled", true)
			} else {
				att.SetAttr("outcome", "cancelled")
			}
		} else {
			att.SetAttr("outcome", "error")
			att.SetAttr("error", err.Error())
		}
		att.End()
		return rs, err
	})
	if err != nil {
		return nil, err
	}
	if winner > 0 {
		c.bump(func(st *metrics.StoreStats) { st.HedgeWins++ })
	}
	psp.SetAttrInt("winner_replica", int64(order[winner]))
	return rs, nil
}

// attemptContext attaches the attempt span's ID as the wire trace
// context for this one exchange. Each attempt span draws its ID
// independently at random, so every party — indeed every replica —
// receives a different, unlinkable ID; see the privacy argument in
// impir.go. Untraced calls (nil span) attach nothing and produce the
// exact legacy wire image.
func attemptContext(ctx context.Context, att *obs.Span) context.Context {
	if att == nil {
		return ctx
	}
	return transport.ContextWithTrace(ctx, att.ID(), true)
}

// replicaOrder returns party p's live replica indices fastest-first by
// EWMA latency — unmeasured replicas first in listed order (they may
// well be fast; the first call finds out) — plus the chosen primary's
// EWMA (0 when unmeasured) for the adaptive hedge delay.
func (c *Client) replicaOrder(p int, conns []*transport.Conn) ([]int, float64) {
	c.mu.Lock()
	ewma := append([]float64(nil), c.ewma[p]...)
	c.mu.Unlock()
	order := make([]int, 0, len(conns))
	for r, conn := range conns {
		if conn != nil {
			order = append(order, r)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case ewma[a] < ewma[b]:
			return -1
		case ewma[a] > ewma[b]:
			return 1
		default:
			return 0
		}
	})
	if len(order) == 0 {
		return nil, 0
	}
	return order, ewma[order[0]]
}

// ewmaAlpha weights the latest latency observation; ~1/3 keeps the
// estimate responsive to mode shifts without thrashing on one outlier.
const ewmaAlpha = 0.3

// observeLatency folds one latency sample into party p replica r's
// estimate. A lowerBound sample (from a cancelled exchange, whose true
// duration is unknown but at least d) may only raise the estimate.
func (c *Client) observeLatency(p, r int, d time.Duration, lowerBound bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ewma == nil || p >= len(c.ewma) || r >= len(c.ewma[p]) {
		return
	}
	cur := c.ewma[p][r]
	if lowerBound && cur != 0 && float64(d) <= cur {
		return
	}
	if cur == 0 {
		c.ewma[p][r] = float64(d)
	} else {
		c.ewma[p][r] = (1-ewmaAlpha)*cur + ewmaAlpha*float64(d)
	}
}

// Update pushes a §3.3 bulk record update to EVERY replica of every
// party: updates maps record index to its new contents (exactly
// RecordSize bytes each). Updates are an operator/owner action, not a
// private query — servers learn which records changed, by design — and
// each server applies the set atomically under its scheduler's epoch
// quiescing, so concurrent Retrieve calls never observe a torn update.
// Updates are never hedged, and require every replica reachable: a
// replica skipped by an update would serve stale records as if they
// were current. Servers reject wire updates unless started with
// ServerConfig.AllowWireUpdates; see that field for the threat model.
//
// All replicas are updated concurrently and the first failure cancels
// the rest, which can leave replicas diverged (some updated, some not).
// The caller must then retry the same update until it succeeds
// everywhere — the per-server application is idempotent, and a retry
// budget (WithRetries) spends itself on exactly this — or tear the
// deployment down; a divergence is also caught by the digest
// cross-check at the next connect.
func (c *Client) Update(ctx context.Context, updates map[uint64][]byte, opts ...CallOption) error {
	if len(updates) == 0 {
		return errors.New("impir: empty update set")
	}
	for idx, rec := range updates {
		if idx >= c.geom.numRecords {
			return fmt.Errorf("impir: update index %d outside database of %d records", idx, c.geom.numRecords)
		}
		if len(rec) != c.recordSize {
			return fmt.Errorf("impir: update for record %d has %d bytes, want the record size %d",
				idx, len(rec), c.recordSize)
		}
	}
	co := c.policy.resolve(opts)
	err := c.policy.doUpdate(ctx, co, func(ctx context.Context) error {
		return c.updateCore(ctx, updates)
	})
	c.bump(func(st *metrics.StoreStats) {
		if err == nil {
			st.Updates++
		} else {
			countFailure(st, err)
		}
		st.Shards[0].UpdateRows += uint64(len(updates))
	})
	return err
}

// updateCore pushes one validated update set to every replica.
func (c *Client) updateCore(ctx context.Context, updates map[uint64][]byte) error {
	conns, err := c.liveConns(ctx, true)
	if err != nil {
		return err
	}
	g, gctx := fanout.WithContext(ctx)
	for p := range conns {
		for r := range conns[p] {
			conn := conns[p][r]
			g.Go(func() error {
				if err := conn.Update(gctx, updates); err != nil {
					return fmt.Errorf("impir: update party %d replica %d: %w", p, r, err)
				}
				return nil
			})
		}
	}
	return g.Wait()
}

// Close closes every server connection. A closed Client stays closed:
// later calls fail rather than redial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for _, reps := range c.conns {
		for _, conn := range reps {
			if conn != nil {
				if cerr := conn.Close(); err == nil {
					err = cerr
				}
			}
		}
	}
	c.conns = nil
	return err
}
