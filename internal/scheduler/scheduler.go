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
//   - Coalescing: when the dispatcher takes a MsgQuery frame — a single
//     DPF key — it also takes every MsgQuery frame already queued behind
//     it, from any connection, into one §3.4 engine pass: the batch
//     pipeline's amortisation (Fig. 8 of the paper) applied across
//     clients, not just within one client's batch. It never waits for
//     more, so an idle server runs a lone query at once. Each key is
//     checked first, so a bad one fails only its own sender, and the
//     subresults are demultiplexed back to each waiter.
//   - Cancellation: a request whose context dies while queued is
//     dequeued and completed with the context error; the engine never
//     spends a pass on a dead client.
//   - Update quiescing: Update waits out the in-flight pass, applies the
//     §3.3 bulk update atomically, bumps the database epoch, and resumes —
//     queries and updates may be issued concurrently.
//
// One Scheduler wraps one engine and has one query entry, Query, which
// takes a decoded query frame — its type and the dpf.Batch it carries —
// whichever of the four query frames it is. The transport server talks
// to it through the context-aware Dispatcher interface it satisfies.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
)

// Engine is the compute plane under the scheduler: the server engine
// (internal/engine) under any pricer, or a test double. Pass answers
// every query of its batch in one engine pass — expand, then scan — and
// returns one subresult per query, in order; a single query is a
// width-1 pass.
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
// default: a 256-deep queue whose queued single queries share a pass, up
// to 64 at a time.
type Config struct {
	// QueueDepth bounds the admission queue; submissions beyond it fail
	// with ErrBusy. 0 means 256; negative is an error.
	QueueDepth int
	// MaxCoalesce caps how many queued MsgQuery frames one pass may
	// serve. 0 means 64; 1 disables coalescing; negative is an error.
	MaxCoalesce int
	// Obs is the metric bundle the scheduler counts into: its
	// impir_scheduler_* cells are the only storage of the counters Stats
	// reports, and it receives per-stage latency observations (queue
	// wait and engine pass per frame type, per-pass engine phase
	// attribution). Nil gives the scheduler a private bundle for its
	// counters and skips the latency observations.
	// Tracing is independent of it: a request whose context carries an
	// obs.Span gets queue and engine children on that span.
	Obs *obs.ServerMetrics
	// Readiness, when non-nil, has its update-quiesce condition dropped
	// while an Update holds or waits for the pass lock, so /readyz steers
	// an orchestrator away during the brief query hold.
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

// request is one queued unit of work plus the channel its submitter
// waits on. The dispatcher writes the result fields before closing done;
// a submitter that stops waiting (context death) simply never reads
// them.
type request struct {
	frame    pirproto.MsgType
	ctx      context.Context
	in       dpf.Batch
	enqueued time.Time

	done    chan struct{}
	results [][]byte
	stats   metrics.BatchStats
	err     error
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

	// passMu is the quiesce lock: a pass and Digest hold it shared, an
	// Update exclusively. A waiting Update holds off the next pass.
	passMu sync.RWMutex

	// digest caches the digest of digestDB for the epoch it was hashed
	// in; guarded by digestMu, which is only taken under passMu.
	digestMu    sync.Mutex
	digest      [32]byte
	digestDB    *database.DB
	digestEpoch uint64

	// quiescers counts Updates currently holding or waiting on passMu;
	// the readiness condition drops while it is nonzero.
	quiescers atomic.Int64

	// c holds the registry cells the scheduler counts into (Config.Obs's,
	// or a private bundle's); Stats reads them back. c.Updates is the
	// database epoch, bumped under passMu's write lock.
	c obs.SchedulerCounters
	// totalWaitNanos sums queue waits at nanosecond resolution for
	// SchedulerStats.TotalWait; no family renders it.
	totalWaitNanos atomic.Int64
}

// New wraps an engine in a scheduler and starts its dispatch loop.
func New(eng Engine, cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := cfg.Obs
	if m == nil {
		m = obs.NewServerMetrics(obs.NewRegistry())
	}
	s := &Scheduler{
		eng:   eng,
		cfg:   cfg,
		quit:  make(chan struct{}),
		queue: make(chan *request, cfg.QueueDepth),
		c:     m.Scheduler,
	}
	go s.loop()
	return s, nil
}

// Database returns the engine's loaded database, or nil.
func (s *Scheduler) Database() *database.DB { return s.eng.Database() }

// Digest returns the loaded database's digest — what a hello reports to
// a dialling client. It hashes under the pass lock, so it never reads
// a half-applied update, and caches the result per epoch, so repeated
// dials between two updates hash the database once. A database
// reloaded into the engine is hashed afresh.
func (s *Scheduler) Digest() [32]byte {
	s.passMu.RLock()
	defer s.passMu.RUnlock()
	epoch := s.c.Updates.Value()
	db := s.eng.Database()
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	if s.digestDB != db || s.digestEpoch != epoch {
		s.digest = db.Digest()
		s.digestDB, s.digestEpoch = db, epoch
	}
	return s.digest
}

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
		s.c.Submitted.Inc()
		if d := int64(len(s.queue)); d > s.c.MaxDepth.Value() {
			s.c.MaxDepth.Set(d)
		}
		return nil
	default:
		s.c.Rejected.Inc()
		return ErrBusy
	}
}

// finish completes a request and retires it from the pending count —
// the only way a request admitted by submit leaves the scheduler, so
// Drain's pending==0 check has no window where a dequeued-but-unserved
// request is invisible.
func (s *Scheduler) finish(req *request, err error) {
	req.err = err
	close(req.done)
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
}

// Query schedules the batch a query frame of type frame carries and
// waits for its pass, returning one subresult per query in order. A
// MsgQuery frame — one DPF key — may share a pass with others queued
// beside it; any other frame is admitted as one unit, whole or rejected
// busy, and runs as its own pass.
func (s *Scheduler) Query(ctx context.Context, frame pirproto.MsgType, in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if frame == pirproto.MsgQuery && (len(in.Keys) != 1 || len(in.Shares) != 0) {
		return nil, metrics.BatchStats{}, errors.New("scheduler: a MsgQuery frame carries exactly one key")
	}
	req := &request{frame: frame, ctx: ctx, in: in, enqueued: time.Now(), done: make(chan struct{})}
	if err := s.submit(req); err != nil {
		return nil, metrics.BatchStats{}, err
	}
	select {
	case <-req.done:
		return req.results, req.stats, req.err
	case <-ctx.Done():
		// A request abandoned while queued is dequeued by the dispatcher
		// without an engine pass; the submitter does not linger for that.
		return nil, metrics.BatchStats{}, ctx.Err()
	}
}

// Update applies a §3.3 bulk record update with epoch-based quiescing:
// it takes the pass lock exclusively, which waits out the in-flight
// engine pass and holds off the next, applies the update, bumps the
// epoch, and resumes. Safe to call while queries are in flight;
// concurrent updates serialise.
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
	s.passMu.Lock()
	err := s.eng.ApplyUpdates(updates)
	if err == nil {
		s.c.Updates.Inc() // a rejected update bumps no epoch
	}
	s.passMu.Unlock()
	if s.quiescers.Add(-1) == 0 {
		s.cfg.Readiness.Set(obs.CondUpdateQuiesce, true)
	}
	return err
}

// Stats snapshots the scheduler's queue counters: a typed read of the
// same registry cells /metrics renders.
func (s *Scheduler) Stats() metrics.SchedulerStats {
	epoch := s.c.Updates.Value()
	st := metrics.SchedulerStats{
		Submitted:        s.c.Submitted.Value(),
		Rejected:         s.c.Rejected.Value(),
		Cancelled:        s.c.Cancelled.Value(),
		Dispatched:       s.c.Dispatched.Value(),
		Passes:           s.c.Passes.Value(),
		CoalescedPasses:  s.c.CoalescedPasses.Value(),
		CoalescedQueries: s.c.CoalescedQueries.Value(),
		FusedPasses:      s.c.FusedPasses.Value(),
		MaxDepth:         int(s.c.MaxDepth.Value()),
		Depth:            len(s.queue),
		TotalWait:        time.Duration(s.totalWaitNanos.Load()),
		Updates:          epoch,
		Epoch:            epoch,
	}
	for i, w := range s.c.PassWidths {
		st.PassWidths[i] = w.Value()
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

// dispatch executes one engine pass for req, coalescing the MsgQuery
// frames queued behind a MsgQuery req into it.
func (s *Scheduler) dispatch(req *request) {
	if err := req.ctx.Err(); err != nil {
		s.c.Cancelled.Inc()
		s.finish(req, err)
		return
	}
	if req.frame != pirproto.MsgQuery {
		s.run([]*request{req})
		return
	}
	batch, next := s.gather(req)
	s.run(batch)
	if next != nil {
		s.dispatch(next)
	}
}

// gather takes the MsgQuery frames already queued behind first, from any
// connection, into its pass, up to MaxCoalesce. It never waits for more.
// A non-coalescable request ends the gather and is returned for dispatch
// after the batch.
func (s *Scheduler) gather(first *request) (batch []*request, next *request) {
	batch = []*request{first}
	for len(batch) < s.cfg.MaxCoalesce {
		select {
		case req := <-s.queue:
			if err := req.ctx.Err(); err != nil {
				s.c.Cancelled.Inc()
				s.finish(req, err)
				continue
			}
			if req.frame != pirproto.MsgQuery {
				return batch, req
			}
			batch = append(batch, req)
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// run executes one engine pass for reqs: a lone request of any frame,
// or a gathered group of MsgQuery frames. It records queue-wait metrics,
// holds the pass lock shared, and demultiplexes the subresults back to each
// waiter in submission order.
func (s *Scheduler) run(reqs []*request) {
	now := time.Now()
	for _, r := range reqs {
		wait := now.Sub(r.enqueued)
		s.totalWaitNanos.Add(wait.Nanoseconds())
		label, _ := r.frame.Label()
		s.cfg.Obs.ObserveStage(label, obs.StageQueue, wait)
		obs.SpanFromContext(r.ctx).AddChild("queue", r.enqueued, wait)
	}
	s.c.Dispatched.Add(uint64(len(reqs)))
	single := reqs[0].frame == pirproto.MsgQuery
	if single {
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
	s.c.Passes.Inc()
	if single {
		s.c.PassWidths[metrics.WidthBucket(len(reqs))].Inc()
	}
	s.passMu.RLock()
	defer s.passMu.RUnlock()

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
		s.c.CoalescedPasses.Inc()
		s.c.CoalescedQueries.Add(uint64(len(reqs)))
	}
	if stats.Fused {
		s.c.FusedPasses.Inc()
	}
	s.cfg.Obs.ObservePass(stats)
	for _, r := range reqs {
		n := r.in.Len()
		r.results, results = results[:n:n], results[n:]
		r.stats = stats
		label, _ := r.frame.Label()
		s.cfg.Obs.ObserveStage(label, obs.StageEngine, engDur)
		span := obs.SpanFromContext(r.ctx)
		span.SetAttrInt("width", int64(stats.Queries))
		span.SetAttrBool("fused", stats.Fused)
		if eng := span.AddChild("engine", engStart, engDur); eng != nil {
			for i := 0; i < metrics.NumPhases; i++ {
				if w := stats.PerQuery.Wall[i]; w > 0 {
					eng.SetAttr(metrics.Phase(i).String(), w.String())
				}
			}
		}
		s.finish(r, nil)
	}
}

// checkKeys runs the engine front end's key check on MsgQuery frames
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
