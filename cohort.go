package impir

import (
	"cmp"
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
// latency without touching the privacy argument. A sub-query aborts as
// a whole when any PARTY fails (all of its replicas) or the context is
// cancelled: a proper subset of subresults is uniformly random and must
// never be mistaken for a record.
//
// A server connection carries many exchanges at once, its replies read
// in the order its frames were written, so concurrent calls and hedges
// share it without waiting for each other's replies. An exchange
// abandoned mid-flight — by cancellation, a losing hedge, or a failure
// elsewhere in its call — costs nothing: the next reader drops its
// reply. Only an I/O failure breaks a connection, and the next call
// redials it. A replica that stays dead only degrades its party to the
// surviving replicas.
type cohort struct {
	store      *Client // owner of the cells this cohort counts into
	shard      int
	parties    [][]string // party → replica addresses
	tlsCfg     *tls.Config
	enc        Encoding // resolved: EncodingDPF or EncodingShares
	geom       geometry
	recordSize int

	// rw is held shared by a read's flight and exclusively by an
	// update's, from prepare to end, so no read of this client straddles
	// its update: a hedge may write a party's frame after the flight
	// has read another party's reply.
	rw    sync.RWMutex
	mu    sync.Mutex // guards conns replacement on redial and ewma
	conns [][]*transport.Conn
	ewma  [][]float64 // observed replica latency, EWMA, nanoseconds; 0 = unknown
}

// openCohort connects one shard's cohort: it dials every replica of
// every party as a call redials them — a party needs one live replica,
// and the dead ones are retried on each call — then validates the
// replicas against each other and, when the manifest declares
// geometry, against it.
func openCohort(ctx context.Context, store *Client, shard int, ds DeploymentShard, recordSize int, cfg clientConfig) (*cohort, error) {
	parties := ds.cohorts()
	enc, err := cfg.encoding.resolve(len(parties))
	if err != nil {
		return nil, err
	}
	c := &cohort{store: store, shard: shard, parties: parties, tlsCfg: cfg.tlsCfg, enc: enc,
		conns: make([][]*transport.Conn, len(parties)), ewma: make([][]float64, len(parties))}
	for p, replicas := range parties {
		c.conns[p] = make([]*transport.Conn, len(replicas))
		c.ewma[p] = make([]float64, len(replicas))
	}
	if _, err = c.liveConns(ctx, false); err == nil {
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
// Once the cohort has learned its geometry, a fresh connection must
// present it; the digest is deliberately not re-checked (Update
// legitimately changes it — replica agreement is cross-checked at
// connect).
func (c *cohort) dialReplica(ctx context.Context, p, r int) (*transport.Conn, error) {
	var conn *transport.Conn
	var err error
	if c.tlsCfg != nil {
		conn, err = transport.DialTLS(ctx, c.parties[p][r], c.tlsCfg)
	} else {
		conn, err = transport.Dial(ctx, c.parties[p][r])
	}
	if err != nil {
		return nil, fmt.Errorf("impir: dial %s replica %d: %w", fmtParty(p, len(c.parties[p])), r, err)
	}
	if info := conn.Info(); c.recordSize > 0 && (info.NumRecords != c.geom.numRecords ||
		int(info.Domain) != c.geom.domain || int(info.RecordSize) != c.recordSize) {
		conn.Close()
		return nil, fmt.Errorf("impir: redialed party %d replica %d presents a different database geometry", p, r)
	}
	return conn, nil
}

// liveConns returns a usable connection snapshot, transparently
// redialing connections an I/O failure broke (or that never came up).
// With needAll false — the retrieval path — a replica that stays dead
// leaves a nil slot and only its PARTY must retain a live replica; with
// needAll true — the update path — every replica must be reachable,
// because an update must land on all of them.
//
// Dialing happens outside the cohort mutex: a slow or unreachable
// server stalls only the call that needs it, never concurrent calls
// over healthy connections and never Close.
func (c *cohort) liveConns(ctx context.Context, needAll bool) ([][]*transport.Conn, error) {
	c.mu.Lock()
	snapshot := snapshotConns(c.conns)
	c.mu.Unlock()
	if len(snapshot) == 0 {
		return nil, errClientClosed
	}
	var broken []connSlot
	for p, reps := range snapshot {
		for r, conn := range reps {
			if conn == nil || conn.Broken() {
				broken = append(broken, connSlot{p: p, r: r})
			}
		}
	}
	if len(broken) == 0 {
		return snapshot, nil
	}
	var wg sync.WaitGroup
	for i := range broken {
		wg.Add(1)
		go func(s *connSlot) {
			defer wg.Done()
			s.conn, s.err = c.dialReplica(ctx, s.p, s.r)
		}(&broken[i])
	}
	wg.Wait()

	c.mu.Lock()
	closed := c.conns == nil
	for _, s := range broken {
		// A concurrent liveConns may have healed this slot while we
		// dialed; keep the existing healthy connection and drop ours.
		if closed || c.conns[s.p][s.r] != nil && !c.conns[s.p][s.r].Broken() {
			if s.conn != nil {
				s.conn.Close()
			}
			continue
		}
		if cur := c.conns[s.p][s.r]; cur != nil {
			cur.Close()
		}
		c.conns[s.p][s.r] = s.conn // possibly nil: replica stays down
	}
	out := snapshotConns(c.conns)
	c.mu.Unlock()
	if closed {
		return nil, errClientClosed
	}

	for p, reps := range out {
		alive := 0
		for _, conn := range reps {
			if conn != nil && !conn.Broken() {
				alive++
			}
		}
		if needAll && alive < len(reps) {
			return nil, fmt.Errorf("impir: not every replica of %s is reachable (updates must land on all replicas): %w",
				fmtParty(p, len(reps)), firstSlotErr(broken, p))
		}
		if alive == 0 {
			return nil, fmt.Errorf("impir: %s has no live replicas: %w", fmtParty(p, len(reps)), firstSlotErr(broken, p))
		}
	}
	return out, nil
}

var errClientClosed = errors.New("impir: client is closed")

func snapshotConns(conns [][]*transport.Conn) [][]*transport.Conn {
	out := make([][]*transport.Conn, len(conns))
	for p, reps := range conns {
		out[p] = append([]*transport.Conn(nil), reps...)
	}
	return out
}

// connSlot is one replica connection being redialed, by (party,
// replica) index, with the dial's outcome.
type connSlot struct {
	p, r int
	conn *transport.Conn
	err  error
}

func firstSlotErr(broken []connSlot, party int) error {
	for _, s := range broken {
		if s.p == party && s.err != nil {
			return s.err
		}
	}
	return errors.New("replica down")
}

// flight is one cohort's part of a call, from the keys or update set it
// carries to the replies its replicas send back. Client.run writes every
// flight's frames before it reads any reply.
type flight struct {
	co      *cohort
	ended   bool
	parent  *obs.Span // the shard span on a sharded store, else the root
	span    *obs.Span // the shard span; nil on a flat store or untraced
	conns   [][]*transport.Conn
	queries []serverQuery     // a read's shares, one per party
	batch   bool              // a read's frames are batch frames
	updates map[uint64][]byte // an update's rows
	legs    []leg             // the frames to write, in (party, replica) order
	answers [][]byte          // a read's records, once reconstructed
	start   time.Time
}

// leg is one frame to party p's replica r.
type leg struct {
	x        *transport.Pending // its exchange, once written
	p, r     int
	psp, att *obs.Span // its party and attempt spans, opened by its write
	start    time.Time
	err      error // its write failed
	held     bool  // written, its reply neither read nor handed to a hedge
	order    []int // a hedged party's live replicas, fastest first; nil: unhedged
	delay    time.Duration
}

// prepareRead generates the cohort's shares of its shard-local rows —
// one single-query frame per party when batch is false — over live
// connections, redialing broken ones. Each party's frame goes to its
// fastest-known replica; with hedging on, a party with more than one
// live replica may hedge to the others.
func (f *flight) prepareRead(ctx context.Context, co callOptions, locals []uint64, batch bool) error {
	c := f.co
	queries, err := encode(c.enc, c.geom, len(c.parties), locals, batch)
	if err != nil {
		return err
	}
	c.rw.RLock()
	f.queries, f.batch, f.start = queries, batch, time.Now()
	if f.conns, err = c.liveConns(ctx, false); err != nil {
		return err
	}
	f.legs = make([]leg, len(f.conns))
	for p, conns := range f.conns {
		order, primaryEWMA := c.replicaOrder(p, conns)
		f.legs[p] = leg{p: p, r: order[0]}
		if co.hedge && len(order) > 1 {
			delay := co.hedgeDelay
			if delay <= 0 {
				delay = defaultHedgeDelay
			}
			// Adapt upward: hedge when the primary takes twice its usual
			// time, not merely longer than a fixed floor tuned for
			// someone else's deployment.
			f.legs[p].order, f.legs[p].delay = order, max(delay, 2*time.Duration(primaryEWMA))
		}
	}
	return nil
}

// prepareUpdate plans one shard-local update set for every replica of
// every party; each must be reachable. A nil set leaves the cohort out.
func (f *flight) prepareUpdate(ctx context.Context, updates map[uint64][]byte) error {
	if updates == nil {
		return nil
	}
	f.co.rw.Lock()
	f.updates = updates
	var err error
	if f.conns, err = f.co.liveConns(ctx, true); err != nil {
		return fmt.Errorf("impir: update shard %d: %w", f.co.shard, err)
	}
	for p, reps := range f.conns {
		for r := range reps {
			f.legs = append(f.legs, leg{p: p, r: r})
		}
	}
	return nil
}

// write writes the flight's frames in (party, replica) order, each
// under its own attempt span, below a party span per party. A hedged
// party's failed write is left to its hedge, and an update's to read,
// which reports it beside the acknowledgements; a read's other failure
// ends the write.
func (f *flight) write(ctx context.Context) error {
	for i := range f.legs {
		l := &f.legs[i]
		if i > 0 && f.legs[i-1].p == l.p {
			l.psp = f.legs[i-1].psp
		} else {
			l.psp = f.parent.StartChild("party")
			l.psp.SetAttrInt("party", int64(l.p))
			l.psp.SetAttrInt("replicas", int64(len(f.conns[l.p])))
			if l.order != nil {
				l.psp.SetAttr("hedge_delay", l.delay.String())
			}
		}
		l.att = l.psp.StartChild("attempt")
		l.att.SetAttrInt("replica", int64(l.r))
		if l.order != nil {
			l.att.SetAttrBool("hedge", false)
		}
		l.start = time.Now()
		if conn, actx := f.conns[l.p][l.r], attemptContext(ctx, l.att); f.updates != nil {
			l.x, l.err = conn.SendUpdate(actx, f.updates)
		} else {
			l.x, l.err = conn.Send(actx, f.queries[l.p].frame, f.queries[l.p].in)
		}
		l.held = l.err == nil
		if l.err != nil && l.order == nil && f.updates == nil {
			_, err := f.recv(ctx, l)
			return f.fail(l, err)
		}
	}
	return nil
}

// read reads every reply the flight's write left pending, in order, and
// reconstructs a read's records from the parties' subresults. A lone
// subresult is uniformly random: any party's failure fails a read's
// flight. An update's flight reads every acknowledgement, failed ones
// included, and joins the failures.
func (f *flight) read(ctx context.Context) error {
	subresults := make([][][]byte, 0, len(f.legs))
	var errs []error
	for i := range f.legs {
		l := &f.legs[i]
		l.held = false
		var rs [][]byte
		var err error
		if l.order != nil {
			rs, err = f.hedge(ctx, l)
		} else {
			rs, err = f.recv(ctx, l)
		}
		if err != nil {
			if errs = append(errs, f.fail(l, err)); f.updates == nil {
				return errs[0]
			}
		}
		if i+1 == len(f.legs) || f.legs[i+1].p != l.p {
			l.psp.End()
		}
		subresults = append(subresults, rs)
	}
	if f.queries == nil {
		return errors.Join(errs...)
	}
	// Recv checked that every party returned one subresult per row.
	f.answers = make([][]byte, f.queries[0].in.Len())
	for i := range f.answers {
		recs := make([][]byte, len(subresults))
		for p, rs := range subresults {
			recs[p] = rs[i]
		}
		var err error
		if f.answers[i], err = Reconstruct(recs...); err != nil {
			return fmt.Errorf("impir: batch item %d: %w", i, err)
		}
	}
	return nil
}

// recv reads leg l's reply under ctx — or takes its write's failure —
// and ends its attempt span with the outcome. A read's replica latency
// feeds the replica's estimate; a cancelled exchange only tells that the
// replica took AT LEAST this long — it lost a hedge race, or the call
// was abandoned early — so it may raise the estimate, never drag it
// down. That demotes chronically slow replicas from primary without
// letting an early cancellation make a slow replica look fast.
func (f *flight) recv(ctx context.Context, l *leg) ([][]byte, error) {
	rs, err := [][]byte(nil), l.err
	if err == nil {
		rs, err = l.x.Recv(ctx)
	}
	switch {
	case err == nil:
		l.att.SetAttr("outcome", "ok")
	case ctx.Err() == nil:
		l.att.SetAttr("outcome", "error")
		l.att.SetAttr("error", err.Error())
	case context.Cause(ctx) == fanout.ErrHedgeLost:
		l.att.SetAttr("outcome", "lost")
		l.att.SetAttrBool("cancelled", true)
	default:
		l.att.SetAttr("outcome", "cancelled")
	}
	if f.updates == nil && (err == nil || ctx.Err() != nil) {
		f.co.observeLatency(l.p, l.r, time.Since(l.start), err != nil)
	}
	l.att.End()
	return rs, err
}

// hedge reads a hedged party's reply. Attempt 0 is the frame write
// already sent to the primary; each later attempt writes to the next
// replica. First valid answer wins; the losers are cancelled, and their
// replies dropped by their connections' next readers.
func (f *flight) hedge(ctx context.Context, l *leg) ([][]byte, error) {
	cells := f.co.store.cells
	q := f.queries[l.p]
	rs, winner, err := fanout.Hedge(ctx, len(l.order), l.delay, func(ctx context.Context, i int) ([][]byte, error) {
		if i == 0 {
			return f.recv(ctx, l)
		}
		cells.hedges.Inc()
		a := &leg{p: l.p, r: l.order[i], att: l.psp.StartChild("attempt"), start: time.Now()}
		a.att.SetAttrInt("replica", int64(a.r))
		a.att.SetAttrBool("hedge", true)
		a.x, a.err = f.conns[a.p][a.r].Send(attemptContext(ctx, a.att), q.frame, q.in)
		return f.recv(ctx, a)
	})
	if err != nil {
		return nil, err
	}
	if winner > 0 {
		cells.hedgeWins.Inc()
	}
	l.psp.SetAttrInt("winner_replica", int64(l.order[winner]))
	return rs, nil
}

// fail records err on leg l's party span and names the party in it —
// and, for an update, the shard and replica.
func (f *flight) fail(l *leg, err error) error {
	l.psp.SetAttr("error", err.Error())
	if f.updates != nil {
		return fmt.Errorf("impir: update shard %d party %d replica %d: %w", f.co.shard, l.p, l.r, err)
	}
	return fmt.Errorf("impir: %s: %w", fmtParty(l.p, len(f.conns[l.p])), err)
}

// end closes the flight, once. It ends the flight's spans — an exchange
// written and not read is abandoned, for its connection's next reader
// to drop its reply — counts the flight against its shard and, on a
// sharded store, names the shard in a read's err (an update's names it
// already).
func (f *flight) end(err error) error {
	c := f.co
	if c == nil || f.ended {
		return err
	}
	f.ended = true
	for i := range f.legs {
		l := &f.legs[i]
		if l.held {
			l.att.SetAttr("outcome", "cancelled")
			l.att.End()
		}
		l.psp.End()
	}
	if f.updates != nil {
		c.rw.Unlock()
	}
	sh := &c.store.cells.shards[c.shard]
	if f.queries != nil {
		c.rw.RUnlock()
		sh[shardNanos].Add(uint64(time.Since(f.start)))
		if f.batch {
			sh[shardBatches].Inc()
			sh[shardBatchQueries].Add(uint64(f.queries[0].in.Len()))
		} else {
			sh[shardQueries].Inc()
		}
	}
	if err != nil {
		// Failed attempts count per attempt, retries included: they are
		// real wire traffic.
		sh[shardErrors].Inc()
		f.span.SetAttr("error", err.Error())
		if len(c.store.shards) > 1 && f.updates == nil {
			err = fmt.Errorf("impir: shard %d: %w", c.shard, err)
		}
	}
	f.span.End()
	return err
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
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ewma[a], ewma[b]) })
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
