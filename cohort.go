package impir

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/impir/impir/internal/fanout"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/transport"
)

// cohort is the connection to one shard's cohort: ≥ 2 mutually
// non-colluding parties, each running one or more interchangeable
// replicas holding the shard.
//
// Every sub-query encodes one share per PARTY and sends each share to
// that party's fastest-known replica, hedging to the next-fastest
// replicas when the primary lags (first valid answer per party wins,
// losers are cancelled) — replicas of one party form one trust domain
// holding identical data, so hedging trades duplicate work for tail
// latency without touching the privacy argument. Parties are queried
// concurrently and a sub-query aborts as a whole when any PARTY fails
// (all of its replicas) or the context is cancelled: a proper subset of
// subresults is uniformly random and must never be mistaken for a
// record.
//
// Overlapping sub-queries are serialised per server connection. One
// abandoned mid-flight — by cancellation, a losing hedge, or a peer
// failure — poisons its connection (the wire protocol has no
// cancellation frame), but the cohort heals itself: the next call
// transparently redials poisoned connections before fanning out. A
// replica that stays dead only degrades its party to the surviving
// replicas. A redialed connection is validated against the geometry
// learned at connect time; the full cross-replica digest check runs only
// at connect (replica contents may legitimately change between redials
// via Update).
type cohort struct {
	store      *Client // owner of the cells this cohort counts into
	shard      int
	parties    [][]string // party → replica addresses
	tlsCfg     *tls.Config
	enc        Encoding // resolved: EncodingDPF or EncodingShares
	geom       geometry
	recordSize int

	mu    sync.Mutex // guards conns replacement on redial and ewma
	conns [][]*transport.Conn
	ewma  [][]float64 // observed replica latency, EWMA, nanoseconds; 0 = unknown
}

// openCohort connects one shard's cohort: every replica of every party,
// with cross-replica validation and — when the manifest declares
// geometry — a handshake check against it.
func openCohort(ctx context.Context, store *Client, shard int, ds DeploymentShard, recordSize int, cfg clientConfig) (*cohort, error) {
	parties := ds.cohorts()
	enc, err := cfg.encoding.resolve(len(parties))
	if err != nil {
		return nil, err
	}
	c := &cohort{store: store, shard: shard, parties: parties, tlsCfg: cfg.tlsCfg, enc: enc}

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
	if err == nil && ds.NumRecords > 0 {
		if want := nextPow2(ds.NumRecords); c.geom.numRecords != want {
			err = fmt.Errorf("impir: servers serve %d records, manifest range of %d pads to %d",
				c.geom.numRecords, ds.NumRecords, want)
		}
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func nextPow2(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(n-1)
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
// database — across parties AND within each party's replica set (a
// cohort serves one database; a replica mismatch silently breaks
// reconstruction). It also learns the cohort geometry.
func (c *cohort) validate() error {
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

// dialReplica (re)establishes the connection to party p's replica r.
func (c *cohort) dialReplica(ctx context.Context, p, r int) (*transport.Conn, error) {
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
// Dialing happens outside the cohort mutex: a slow or unreachable
// server stalls only the call that needs it, never concurrent calls
// over healthy connections and never Close.
func (c *cohort) liveConns(ctx context.Context, needAll bool) ([][]*transport.Conn, error) {
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

// query privately fetches the cohort's sub-batch of shard-local rows —
// as one single-query frame per party when batch is false — and
// reconstructs each row's record from the parties' subresults.
func (c *cohort) query(ctx context.Context, co callOptions, locals []uint64, batch bool) ([][]byte, error) {
	queries, err := encode(c.enc, c.geom, len(c.parties), locals, batch)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	subresults, err := c.send(ctx, co, queries)
	sh := &c.store.cells.shards[c.shard]
	sh[shardNanos].Add(uint64(time.Since(start)))
	if batch {
		sh[shardBatches].Inc()
		sh[shardBatchQueries].Add(uint64(len(locals)))
	} else {
		sh[shardQueries].Inc()
	}
	if err != nil {
		sh[shardErrors].Inc()
		return nil, err
	}
	out := make([][]byte, len(locals))
	for i := range out {
		recs := make([][]byte, len(subresults))
		for p, rs := range subresults {
			if i >= len(rs) {
				return nil, fmt.Errorf("impir: party %d returned %d of %d batch subresults", p, len(rs), len(locals))
			}
			recs[p] = rs[i]
		}
		if out[i], err = Reconstruct(recs...); err != nil {
			return nil, fmt.Errorf("impir: batch item %d: %w", i, err)
		}
	}
	return out, nil
}

// send issues one pre-encoded query share per party, all parties
// concurrent, each share hedged across its party's replicas, and
// collects every party's subresults. The first PARTY failure cancels
// the remaining queries and fails the whole sub-query — a lone
// subresult is never returned. Connections poisoned by an earlier
// abandoned exchange are transparently redialed first.
func (c *cohort) send(ctx context.Context, co callOptions, queries []serverQuery) ([][][]byte, error) {
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
func (c *cohort) partyDo(ctx context.Context, co callOptions, p int, conns []*transport.Conn, q serverQuery) ([][]byte, error) {
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
			c.store.cells.hedges.Inc()
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
		c.store.cells.hedgeWins.Inc()
	}
	psp.SetAttrInt("winner_replica", int64(order[winner]))
	return rs, nil
}

// attemptContext attaches the attempt span's ID and the operation's
// head-sampling decision as the wire trace context for this one
// exchange. Each attempt span draws its ID independently at random, so
// every party — indeed every replica — receives a different,
// unlinkable ID; see the privacy argument in impir.go. Untraced calls
// (nil span) attach nothing and produce the exact legacy wire image.
func attemptContext(ctx context.Context, att *obs.Span) context.Context {
	if att == nil {
		return ctx
	}
	return transport.ContextWithTrace(ctx, att.ID(), att.Sampled())
}

// replicaOrder returns party p's live replica indices fastest-first by
// EWMA latency — unmeasured replicas first in listed order (they may
// well be fast; the first call finds out) — plus the chosen primary's
// EWMA (0 when unmeasured) for the adaptive hedge delay.
func (c *cohort) replicaOrder(p int, conns []*transport.Conn) ([]int, float64) {
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
func (c *cohort) observeLatency(p, r int, d time.Duration, lowerBound bool) {
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

// update pushes one validated, shard-local update set to every replica
// of every party, concurrently; the first failure cancels the rest.
func (c *cohort) update(ctx context.Context, updates map[uint64][]byte) error {
	conns, err := c.liveConns(ctx, true)
	if err == nil {
		g, gctx := fanout.WithContext(ctx)
		for p := range conns {
			for r, conn := range conns[p] {
				g.Go(func() error {
					if err := conn.Update(gctx, updates); err != nil {
						return fmt.Errorf("impir: update party %d replica %d: %w", p, r, err)
					}
					return nil
				})
			}
		}
		err = g.Wait()
	}
	if err != nil {
		// Failed attempts count per attempt, retries included: they are
		// real wire traffic.
		c.store.cells.shards[c.shard][shardErrors].Inc()
	}
	return err
}

// close closes every server connection. A closed cohort stays closed:
// later calls fail rather than redial.
func (c *cohort) close() error {
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
