// Package scheduler is the asynchronous dispatch layer between the
// network transport and a PIR engine. Engines process one pass at a time
// (each pass streams the whole database, and on real hardware the PIM
// clusters serialise kernel launches), so under concurrent load the
// question is not "how fast is one query" but "how is the next pass
// filled". The scheduler owns that decision:
//
//   - Admission: a bounded queue absorbs bursts; when it is full the
//     submitter gets ErrBusy immediately instead of stalling the TCP
//     accept loop (the transport turns ErrBusy into a MsgBusy frame).
//   - Coalescing: single queries arriving from different connections
//     within a configurable window are gathered into one §3.4 engine
//     pass — the batch pipeline's amortisation (Fig. 8 of the paper)
//     applied across clients, not just within one client's batch. Each
//     key is checked first, so a bad one fails only its own sender, and
//     the subresults are demultiplexed back to each waiter.
//   - Cancellation: a request whose context dies while queued is
//     dequeued and completed with the context error; the engine never
//     spends a pass on a dead client.
//   - Update quiescing: Update drains in-flight passes, applies the §3.3
//     bulk update atomically, bumps the database epoch, and resumes —
//     queries and updates may now be issued concurrently.
//
// One Scheduler wraps one engine. The transport server talks to it
// through the context-aware Dispatcher interface it satisfies.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
)

// Engine is the compute plane under the scheduler: any of the IM-PIR,
// CPU or GPU engines. Pass answers every query of its batch in one engine
// pass — expand, then scan — and returns one subresult per query, in
// order; a single query is a width-1 pass.
type Engine interface {
	Name() string
	Database() *database.DB
	Pass(dpf.Batch) ([][]byte, metrics.BatchStats, error)
	ApplyUpdates(updates map[uint64][]byte) error
}

var (
	// ErrBusy reports a full admission queue — the request was rejected
	// without an engine pass. Retry after a backoff.
	ErrBusy = errors.New("pir server busy: admission queue full")
	// ErrClosed reports a scheduler that is draining or closed.
	ErrClosed = errors.New("scheduler: closed")
)

// Config tunes a Scheduler. The zero value is a production-reasonable
// default: a 256-deep queue with coalescing disabled.
type Config struct {
	// QueueDepth bounds the admission queue; submissions beyond it fail
	// with ErrBusy. 0 means 256; negative is an error.
	QueueDepth int
	// CoalesceWindow is how long the dispatcher holds the first single
	// query of a pass to gather concurrent ones into one batch pass.
	// 0 disables coalescing: every single query runs as its own pass.
	CoalesceWindow time.Duration
	// MaxCoalesce caps how many single queries one coalesced pass may
	// serve. 0 means 64; negative is an error.
	MaxCoalesce int
	// Obs, when non-nil, receives per-stage latency observations (queue
	// wait and engine pass per frame type, per-request engine phase
	// attribution) and has per-query obs.Trace contexts filled in. Nil
	// keeps the scheduler un-instrumented at zero cost.
	Obs *obs.ServerMetrics
	// Readiness, when non-nil, has its update-quiesce condition dropped
	// while an Update holds the quiesce gate, so /readyz steers an
	// orchestrator away during the brief query hold.
	Readiness *obs.Readiness
}

func (c Config) withDefaults() (Config, error) {
	if c.QueueDepth < 0 {
		return c, fmt.Errorf("scheduler: QueueDepth %d is negative", c.QueueDepth)
	}
	if c.MaxCoalesce < 0 {
		return c, fmt.Errorf("scheduler: MaxCoalesce %d is negative", c.MaxCoalesce)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxCoalesce == 0 {
		c.MaxCoalesce = 64
	}
	return c, nil
}

type reqKind int

const (
	reqQuery      reqKind = iota + 1 // one DPF key; coalescable
	reqBatch                         // a client's explicit key batch
	reqShare                         // one selector share
	reqShareBatch                    // a client's explicit share batch
)

// frame names the request kind the way the wire and the exported
// metrics do, so a scheduler-side histogram sample and a transport-side
// counter for the same request always share one frame label.
func (k reqKind) frame() string {
	switch k {
	case reqQuery:
		return "query"
	case reqBatch:
		return "batch"
	case reqShare:
		return "share"
	case reqShareBatch:
		return "share_batch"
	default:
		return "unknown"
	}
}

// request is one queued unit of work plus the channel its submitter
// waits on. The dispatcher writes the result fields before closing done;
// a submitter that stops waiting (context death) simply never reads
// them.
type request struct {
	kind     reqKind
	ctx      context.Context
	in       dpf.Batch
	enqueued time.Time

	done    chan struct{}
	results [][]byte
	stats   metrics.BatchStats
	err     error
}

func (r *request) complete(err error) {
	r.err = err
	close(r.done)
}

// Scheduler is the admission/dispatch layer for one engine. All methods
// are safe for concurrent use.
type Scheduler struct {
	eng Engine
	cfg Config

	queue chan *request
	quit  chan struct{}

	mu      sync.Mutex
	closed  bool
	pending int // requests admitted but not yet completed

	gate quiesceGate

	// quiescers counts Updates currently holding or waiting on the
	// quiesce gate; the readiness condition drops while it is nonzero.
	quiescers atomic.Int64

	// counters (atomics; snapshot via Stats).
	submitted        atomic.Uint64
	rejected         atomic.Uint64
	cancelled        atomic.Uint64
	dispatched       atomic.Uint64
	passes           atomic.Uint64
	coalescedPasses  atomic.Uint64
	coalescedQueries atomic.Uint64
	fusedPasses      atomic.Uint64
	totalWaitNanos   atomic.Int64
	maxDepth         atomic.Int64
	passWidths       [metrics.NumWidthBuckets]atomic.Uint64
}

// New wraps an engine in a scheduler and starts its dispatch loop.
func New(eng Engine, cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:   eng,
		cfg:   cfg,
		quit:  make(chan struct{}),
		queue: make(chan *request, cfg.QueueDepth),
	}
	s.gate.init()
	go s.loop()
	return s, nil
}

// Name reports the underlying engine's name.
func (s *Scheduler) Name() string { return s.eng.Name() }

// Database returns the engine's loaded database, or nil.
func (s *Scheduler) Database() *database.DB { return s.eng.Database() }

// Config returns the scheduler's effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// submit enqueues a request, applying admission control. It never
// blocks: a full queue is ErrBusy, a closed scheduler ErrClosed.
func (s *Scheduler) submit(req *request) error {
	if err := req.ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- req:
		s.pending++
		s.submitted.Add(1)
		if d := int64(len(s.queue)); d > s.maxDepth.Load() {
			s.maxDepth.Store(d)
		}
		return nil
	default:
		s.rejected.Add(1)
		return ErrBusy
	}
}

// finish completes a request and retires it from the pending count —
// the only way a request admitted by submit leaves the scheduler, so
// Drain's pending==0 check has no window where a dequeued-but-unserved
// request is invisible.
func (s *Scheduler) finish(req *request, err error) {
	req.complete(err)
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
}

// wait blocks until the dispatcher completes the request or the context
// dies. A request abandoned while queued is dequeued by the dispatcher
// (its context error is observed there) — no engine pass is spent on it.
func (s *Scheduler) wait(req *request) error {
	select {
	case <-req.done:
		return req.err
	case <-req.ctx.Done():
		// The dispatcher will skip the request when it reaches it; the
		// submitter does not linger for that.
		return req.ctx.Err()
	}
}

// Query schedules one single-query pass (coalescable with concurrent
// single queries from other submitters).
func (s *Scheduler) Query(ctx context.Context, key *dpf.Key) ([]byte, metrics.Breakdown, error) {
	results, stats, err := s.do(ctx, reqQuery, dpf.Batch{Keys: []*dpf.Key{key}})
	if err != nil {
		return nil, metrics.Breakdown{}, err
	}
	return results[0], stats.PerQuery, nil
}

// QueryBatch schedules a client's explicit batch as one pass.
func (s *Scheduler) QueryBatch(ctx context.Context, keys []*dpf.Key) ([][]byte, metrics.BatchStats, error) {
	return s.do(ctx, reqBatch, dpf.Batch{Keys: keys})
}

// QueryShare schedules one selector-share pass (the naive n-server
// encoding has no batch pipeline, so shares are never coalesced).
func (s *Scheduler) QueryShare(ctx context.Context, share *bitvec.Vector) ([]byte, metrics.Breakdown, error) {
	results, stats, err := s.do(ctx, reqShare, dpf.Batch{Shares: []*bitvec.Vector{share}})
	if err != nil {
		return nil, metrics.Breakdown{}, err
	}
	return results[0], stats.PerQuery, nil
}

// QueryShareBatch schedules a client's explicit share batch as one
// request: admission is atomic — the whole batch is accepted or rejected
// busy, never half-served.
func (s *Scheduler) QueryShareBatch(ctx context.Context, shares []*bitvec.Vector) ([][]byte, error) {
	results, _, err := s.do(ctx, reqShareBatch, dpf.Batch{Shares: shares})
	return results, err
}

// do submits one request and waits for its pass.
func (s *Scheduler) do(ctx context.Context, kind reqKind, in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	req := &request{kind: kind, ctx: ctx, in: in, enqueued: time.Now(), done: make(chan struct{})}
	if err := s.submit(req); err != nil {
		return nil, metrics.BatchStats{}, err
	}
	if err := s.wait(req); err != nil {
		return nil, metrics.BatchStats{}, err
	}
	return req.results, req.stats, nil
}

// Update applies a §3.3 bulk record update with epoch-based quiescing:
// it waits for the in-flight engine pass to drain, applies the update
// atomically while the dispatcher is held off, bumps the epoch, and
// resumes. Safe to call while queries are in flight; concurrent updates
// serialise.
//
// The whole update set is validated against the loaded database before
// the quiesce begins: every request path converges here (local Server
// API and the wire transport), so a malformed update must never be able
// to drain in-flight passes and stall dispatch just to be rejected by
// the engine afterwards.
func (s *Scheduler) Update(updates map[uint64][]byte) error {
	db := s.eng.Database()
	if db == nil {
		return errors.New("scheduler: update before a database is loaded")
	}
	if err := db.CheckUpdates(updates); err != nil {
		return err
	}
	// Drop the readiness condition for the whole quiesce — including the
	// wait for in-flight passes to drain — so an orchestrator polling
	// /readyz stops routing before queries start being held. A counter
	// (not a plain flip) keeps the condition down while ANY concurrent
	// update is still quiescing.
	if s.quiescers.Add(1) == 1 {
		s.cfg.Readiness.Set(obs.CondUpdateQuiesce, false)
	}
	s.gate.beginUpdate()
	err := s.eng.ApplyUpdates(updates)
	s.gate.endUpdate(err == nil)
	if s.quiescers.Add(-1) == 0 {
		s.cfg.Readiness.Set(obs.CondUpdateQuiesce, true)
	}
	return err
}

// Stats snapshots the scheduler's queue counters.
func (s *Scheduler) Stats() metrics.SchedulerStats {
	updates, epoch := s.gate.epochs()
	st := metrics.SchedulerStats{
		Submitted:        s.submitted.Load(),
		Rejected:         s.rejected.Load(),
		Cancelled:        s.cancelled.Load(),
		Dispatched:       s.dispatched.Load(),
		Passes:           s.passes.Load(),
		CoalescedPasses:  s.coalescedPasses.Load(),
		CoalescedQueries: s.coalescedQueries.Load(),
		FusedPasses:      s.fusedPasses.Load(),
		MaxDepth:         int(s.maxDepth.Load()),
		Depth:            len(s.queue),
		TotalWait:        time.Duration(s.totalWaitNanos.Load()),
		Updates:          updates,
		Epoch:            epoch,
	}
	for i := range st.PassWidths {
		st.PassWidths[i] = s.passWidths[i].Load()
	}
	return st
}

// Drain stops admitting work and waits until the queue is empty and the
// in-flight pass (if any) has finished, or until ctx expires. Use for
// graceful shutdown; Close afterwards releases the dispatch loop.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := s.pending == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("scheduler: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Close stops the scheduler: new submissions fail with ErrClosed and
// requests still queued are completed with ErrClosed. Close does not
// wait for an engine pass already executing; pair with Drain for a
// graceful stop. Close is idempotent.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
	}
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.mu.Unlock()
	return nil
}

// loop is the dispatch goroutine: it pulls requests off the admission
// queue one pass at a time and executes them against the engine.
func (s *Scheduler) loop() {
	for {
		select {
		case <-s.quit:
			s.failPending()
			return
		case req := <-s.queue:
			s.dispatch(req)
		}
	}
}

// failPending completes everything still queued with ErrClosed. By the
// time quit is observed, closed is set under s.mu, so no new request can
// be enqueued after this drain.
func (s *Scheduler) failPending() {
	for {
		select {
		case req := <-s.queue:
			s.finish(req, ErrClosed)
		default:
			return
		}
	}
}

// dispatch executes one engine pass for req, coalescing concurrent
// single queries into it when a window is configured.
func (s *Scheduler) dispatch(req *request) {
	if err := req.ctx.Err(); err != nil {
		s.cancelled.Add(1)
		s.finish(req, err)
		return
	}
	if req.kind == reqQuery && s.cfg.CoalesceWindow > 0 {
		batch, next := s.gather(req)
		s.run(batch)
		if next != nil {
			s.dispatch(next)
		}
		return
	}
	s.run([]*request{req})
}

// gather holds the first single query for the coalescing window,
// collecting further single queries (from any connection) into the same
// pass. A non-coalescable request ends the window early and is returned
// for immediate dispatch after the batch.
func (s *Scheduler) gather(first *request) (batch []*request, next *request) {
	batch = []*request{first}
	timer := time.NewTimer(s.cfg.CoalesceWindow)
	defer timer.Stop()
	for len(batch) < s.cfg.MaxCoalesce {
		select {
		case <-timer.C:
			return batch, nil
		case <-s.quit:
			return batch, nil
		case req := <-s.queue:
			if err := req.ctx.Err(); err != nil {
				s.cancelled.Add(1)
				s.finish(req, err)
				continue
			}
			if req.kind != reqQuery {
				return batch, req
			}
			batch = append(batch, req)
		}
	}
	return batch, nil
}

// run executes one engine pass for reqs: a lone request of any kind, or
// a gathered group of single queries. It records queue-wait metrics,
// takes the quiesce gate, and demultiplexes the subresults back to each
// waiter in submission order.
func (s *Scheduler) run(reqs []*request) {
	now := time.Now()
	for _, r := range reqs {
		wait := now.Sub(r.enqueued)
		s.totalWaitNanos.Add(wait.Nanoseconds())
		s.cfg.Obs.ObserveStage(r.kind.frame(), obs.StageQueue, wait)
		if tr := obs.FromContext(r.ctx); tr != nil {
			tr.QueueWait = wait
		}
	}
	s.dispatched.Add(uint64(len(reqs)))
	if reqs[0].kind == reqQuery {
		if reqs = s.checkKeys(reqs); len(reqs) == 0 {
			return
		}
	}
	in := reqs[0].in
	if len(reqs) > 1 {
		in = dpf.Batch{Keys: make([]*dpf.Key, len(reqs))}
		for i, r := range reqs {
			in.Keys[i] = r.in.Keys[0]
		}
	}
	s.passes.Add(1)
	if reqs[0].kind == reqQuery {
		s.passWidths[metrics.WidthBucket(len(reqs))].Add(1)
	}
	s.gate.beginQuery()
	defer s.gate.endQuery()

	engStart := time.Now()
	results, stats, err := s.eng.Pass(in)
	engDur := time.Since(engStart)
	if err != nil {
		for _, r := range reqs {
			s.finish(r, err)
		}
		return
	}
	if len(reqs) > 1 {
		s.coalescedPasses.Add(1)
		s.coalescedQueries.Add(uint64(len(reqs)))
	}
	if stats.Fused {
		s.fusedPasses.Add(1)
	}
	for _, r := range reqs {
		n := r.in.Len()
		r.results, results = results[:n:n], results[n:]
		r.stats = stats
		s.cfg.Obs.ObserveStage(r.kind.frame(), obs.StageEngine, engDur)
		s.cfg.Obs.ObserveBreakdown(stats.PerQuery)
		if tr := obs.FromContext(r.ctx); tr != nil {
			// Written before finish, so a submitter woken by the done
			// close observes a fully written trace.
			tr.Engine = engDur
			tr.PassWidth = stats.Queries
			tr.Fused = stats.Fused
			tr.Breakdown = stats.PerQuery
		}
		s.finish(r, nil)
	}
}

// checkKeys runs the engine front end's key check on single queries
// before their pass: a request whose key the pass would reject fails
// alone, so a client feeding invalid keys cannot fail the other clients'
// queries coalesced with it. It returns the surviving requests. With no
// database loaded there is nothing to check against, and the pass itself
// fails everyone.
func (s *Scheduler) checkKeys(reqs []*request) []*request {
	db := s.eng.Database()
	if db == nil {
		return reqs
	}
	ok := reqs[:0]
	for _, r := range reqs {
		if err := dpf.CheckKey(r.in.Keys[0], db.Domain()); err != nil {
			s.finish(r, err)
			continue
		}
		ok = append(ok, r)
	}
	return ok
}

// quiesceGate is the epoch mechanism behind Update: query passes hold
// the gate shared, an update holds it exclusively after draining the
// in-flight pass, and each update bumps the database epoch. It is a
// purpose-named reader/writer gate rather than a sync.RWMutex so the
// epoch and update counters live with the state they describe.
type quiesceGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int  // query passes holding the gate
	updating bool // an update holds the gate exclusively
	updates  uint64
	epoch    uint64
}

func (g *quiesceGate) init() { g.cond = sync.NewCond(&g.mu) }

func (g *quiesceGate) beginQuery() {
	g.mu.Lock()
	for g.updating {
		g.cond.Wait()
	}
	g.inflight++
	g.mu.Unlock()
}

func (g *quiesceGate) endQuery() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// beginUpdate waits for its exclusive turn, then for in-flight query
// passes to drain.
func (g *quiesceGate) beginUpdate() {
	g.mu.Lock()
	for g.updating {
		g.cond.Wait()
	}
	g.updating = true
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// endUpdate resumes query passes; applied reports whether the update
// actually changed the database (a rejected update bumps no epoch).
func (g *quiesceGate) endUpdate(applied bool) {
	g.mu.Lock()
	g.updating = false
	if applied {
		g.updates++
		g.epoch++
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *quiesceGate) epochs() (updates, epoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.updates, g.epoch
}
