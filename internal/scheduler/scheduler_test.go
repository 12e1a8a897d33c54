package scheduler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/pirproto"
)

// fakeEngine gives tests deterministic pass costs and records overlap
// between updates and query passes. Every pass reports 1 ms of dpXOR
// wall time, averaged per query the way the engine reports it.
type fakeEngine struct {
	delay time.Duration // per pass, regardless of width

	passQueries atomic.Int64 // query passes in flight
	updates     atomic.Int64 // updates in flight
	overlap     atomic.Bool  // an update overlapped a query pass
	passes      atomic.Int64
}

func (f *fakeEngine) Name() string { return "fake" }

// fakeDB backs Database(): Scheduler.Update validates update sets
// against the loaded geometry before quiescing, so the fake engine must
// present one (16 records of 1 byte, matching the {0: {1}} updates the
// tests send).
var fakeDB = func() *database.DB {
	db, err := database.New(16, 1)
	if err != nil {
		panic(err)
	}
	return db
}()

// fakeKey is a key for fakeDB's domain, so it passes the scheduler's key
// check.
var fakeKey = func() *dpf.Key {
	k, _, err := dpf.Gen(dpf.Params{Domain: fakeDB.Domain()}, 1, nil)
	if err != nil {
		panic(err)
	}
	return k
}()

func (f *fakeEngine) Database() *database.DB { return fakeDB }
func (f *fakeEngine) enter()                 { f.passQueries.Add(1) }
func (f *fakeEngine) leave()                 { f.passQueries.Add(-1) }
func (f *fakeEngine) checkOverlap() {
	if f.updates.Load() > 0 {
		f.overlap.Store(true)
	}
}

func (f *fakeEngine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	f.enter()
	defer f.leave()
	f.checkOverlap()
	f.passes.Add(1)
	time.Sleep(f.delay)
	out := make([][]byte, in.Len())
	for i := range out {
		out[i] = []byte{byte(i)}
	}
	var pass metrics.Breakdown
	pass.Wall[metrics.PhaseDpXOR] = time.Millisecond
	return out, metrics.BatchStats{Queries: in.Len(), PerQuery: pass.Scale(in.Len()), Fused: in.Len() > 1}, nil
}

func (f *fakeEngine) ApplyUpdates(updates map[uint64][]byte) error {
	f.updates.Add(1)
	defer f.updates.Add(-1)
	if f.passQueries.Load() > 0 {
		f.overlap.Store(true)
	}
	time.Sleep(f.delay)
	return nil
}

// newSched wraps eng in a scheduler that is closed with the test.
func newSched(t *testing.T, eng Engine, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// realEngine builds a small CPU engine over a 256-record database.
func realEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cpu, err := engine.NewCPUPricer(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	db, err := database.GenerateHashDB(256, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	return eng
}

// realScheduler builds a scheduler over a small CPU engine.
func realScheduler(t *testing.T, cfg Config) (*Scheduler, *database.DB) {
	t.Helper()
	eng := realEngine(t)
	return newSched(t, eng, cfg), eng.Database()
}

// query submits key as one MsgQuery frame, the coalescable single query.
func query(ctx context.Context, s *Scheduler, key *dpf.Key) ([]byte, metrics.BatchStats, error) {
	results, stats, err := s.Query(ctx, pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{key}})
	if err != nil {
		return nil, stats, err
	}
	return results[0], stats, nil
}

func keyPair(t *testing.T, domain int, idx uint64) (*dpf.Key, *dpf.Key) {
	t.Helper()
	k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k0, k1
}

// countingEngine records the width of every pass and how many keys of
// the wrong domain a pass carried. Its first pass closes held and then
// waits for hold to close, so a test can queue frames behind it.
type countingEngine struct {
	Engine
	hold, held chan struct{}
	mu         sync.Mutex
	widths     []int
	badKeys    int
}

func (c *countingEngine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	c.mu.Lock()
	first := len(c.widths) == 0
	c.widths = append(c.widths, in.Len())
	for _, k := range in.Keys {
		if int(k.Domain) != c.Database().Domain() {
			c.badKeys++
		}
	}
	c.mu.Unlock()
	if first {
		close(c.held)
		<-c.hold
	}
	return c.Engine.Pass(in)
}

// passWidths returns the widths of the passes run so far.
func (c *countingEngine) passWidths() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.widths...)
}

// heldScheduler wraps inner in a countingEngine behind a scheduler,
// submits a lone MsgQuery for key and returns once the engine holds
// that query's pass, so frames submitted next queue behind it. release
// lets the pass go and returns the held query's error.
func heldScheduler(t *testing.T, inner Engine, cfg Config, key *dpf.Key) (s *Scheduler, eng *countingEngine, release func() error) {
	t.Helper()
	eng = &countingEngine{Engine: inner, hold: make(chan struct{}), held: make(chan struct{})}
	s = newSched(t, eng, cfg)
	var once sync.Once
	free := func() { once.Do(func() { close(eng.hold) }) }
	t.Cleanup(free) // a failed test must not leave the dispatcher held
	errc := make(chan error, 1)
	go func() {
		_, _, err := query(context.Background(), s, key)
		errc <- err
	}()
	select {
	case <-eng.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the held query's pass never started")
	}
	return s, eng, func() error {
		free()
		return <-errc
	}
}

// waitSubmitted waits until s has admitted n requests.
func waitSubmitted(t *testing.T, s *Scheduler, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests admitted after 5s", s.Stats().Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueQueries submits n MsgQuery frames for key from their own
// goroutines and waits until s has admitted all n. The returned function
// waits for their results.
func queueQueries(t *testing.T, s *Scheduler, key *dpf.Key, n int) (wait func() []error) {
	t.Helper()
	before := s.Stats().Submitted
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = query(context.Background(), s, key)
		}(i)
	}
	waitSubmitted(t, s, before+uint64(n))
	return func() []error { wg.Wait(); return errs }
}

// TestDrainOnDispatchCoalescesQueuedQueries: a lone query on an idle
// scheduler runs at once as a width-1 pass; the MsgQuery frames queued
// behind it share the next pass, up to MaxCoalesce each, and the batch
// frame queued after them ends the gather and runs alone.
func TestDrainOnDispatchCoalescesQueuedQueries(t *testing.T) {
	const queued, batch = 5, 3
	for _, tc := range []struct {
		maxCoalesce int
		want        []int
		coalesced   uint64
	}{
		{0, []int{1, queued, batch}, queued},
		{2, []int{1, 2, 2, 1, batch}, 4},
	} {
		t.Run(fmt.Sprintf("max=%d", tc.maxCoalesce), func(t *testing.T) {
			s, eng, release := heldScheduler(t, &fakeEngine{}, Config{MaxCoalesce: tc.maxCoalesce}, fakeKey)
			wait := queueQueries(t, s, fakeKey, queued)
			batchErr := make(chan error, 1)
			go func() {
				keys := make([]*dpf.Key, batch)
				for i := range keys {
					keys[i] = fakeKey
				}
				_, _, err := s.Query(context.Background(), pirproto.MsgBatchQuery, dpf.Batch{Keys: keys})
				batchErr <- err
			}()
			waitSubmitted(t, s, 1+queued+1)
			if err := release(); err != nil {
				t.Fatal(err)
			}
			for _, err := range wait() {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := <-batchErr; err != nil {
				t.Fatal(err)
			}
			if got := eng.passWidths(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("pass widths %v, want %v", got, tc.want)
			}
			st := s.Stats()
			if st.Passes != uint64(len(tc.want)) || st.CoalescedQueries != tc.coalesced {
				t.Errorf("passes %d, coalesced %d; want %d and %d", st.Passes, st.CoalescedQueries, len(tc.want), tc.coalesced)
			}
		})
	}
}

// TestCoalescedResultsDemultiplexCorrectly: single queries from many
// submitters queued behind a pass share the next one; every waiter must
// get the subresult for its own key (XOR of both parties' subresults
// must equal its record).
func TestCoalescedResultsDemultiplexCorrectly(t *testing.T) {
	e0, e1 := realEngine(t), realEngine(t)
	db := e0.Database()
	h0, h1 := keyPair(t, db.Domain(), 0)
	s0, _, release0 := heldScheduler(t, e0, Config{}, h0)
	s1, _, release1 := heldScheduler(t, e1, Config{}, h1)

	const clients = 16
	ctx := context.Background()
	r0, r1 := make([][]byte, clients), make([][]byte, clients)
	errs := make([]error, 2*clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		k0, k1 := keyPair(t, db.Domain(), uint64(i*13))
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			r0[i], _, errs[2*i] = query(ctx, s0, k0)
		}(i)
		go func(i int) {
			defer wg.Done()
			r1[i], _, errs[2*i+1] = query(ctx, s1, k1)
		}(i)
	}
	waitSubmitted(t, s0, 1+clients)
	waitSubmitted(t, s1, 1+clients)
	for _, release := range []func() error{release0, release1} {
		if err := release(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < clients; i++ {
		rec := make([]byte, len(r0[i]))
		for j := range rec {
			rec[j] = r0[i][j] ^ r1[i][j]
		}
		if !bytes.Equal(rec, db.Record(i*13)) {
			t.Errorf("client %d: wrong record", i)
		}
	}
	for _, s := range []*Scheduler{s0, s1} {
		st := s.Stats()
		if st.Dispatched != 1+clients || st.Passes != 2 || st.CoalescedQueries != clients {
			t.Errorf("dispatched %d in %d passes, %d coalesced; want %d in 2, %d",
				st.Dispatched, st.Passes, st.CoalescedQueries, 1+clients, clients)
		}
	}
}

// TestNoCoalescingWithZeroWindow: with MaxCoalesce 1 every single query
// runs as its own engine pass, even when several are queued together.
func TestNoCoalescingWithZeroWindow(t *testing.T) {
	fe := &fakeEngine{}
	s, _, release := heldScheduler(t, fe, Config{MaxCoalesce: 1}, fakeKey)
	wait := queueQueries(t, s, fakeKey, 7)
	if err := release(); err != nil {
		t.Fatal(err)
	}
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats := s.Stats()
	if stats.CoalescedQueries != 0 || stats.CoalescedPasses != 0 {
		t.Errorf("MaxCoalesce 1 coalesced: %+v", stats)
	}
	if got := fe.passes.Load(); got != 8 {
		t.Errorf("engine ran %d solo passes, want 8", got)
	}
}

// TestQueueFullRejectsBusy: with depth 1 and a slow engine, overflow
// submissions fail fast with ErrBusy instead of blocking.
func TestQueueFullRejectsBusy(t *testing.T) {
	fe := &fakeEngine{delay: 300 * time.Millisecond}
	s := newSched(t, fe, Config{QueueDepth: 1})

	ctx := context.Background()
	release := make(chan struct{})
	go func() {
		query(ctx, s, fakeKey) // occupies the dispatcher
		close(release)
	}()
	// Wait for the dispatcher to pick it up, then fill the queue.
	time.Sleep(50 * time.Millisecond)
	go query(ctx, s, fakeKey) // fills the single queue slot

	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	_, _, err := query(ctx, s, fakeKey)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submission: err = %v, want ErrBusy", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("busy rejection took %v — it blocked", elapsed)
	}
	<-release
	if s.Stats().Rejected == 0 {
		t.Error("Rejected counter not incremented")
	}
}

// TestCancelledWhileQueuedIsDequeued: a context cancelled while the
// request waits in the queue must (1) unblock the submitter promptly and
// (2) never reach the engine.
func TestCancelledWhileQueuedIsDequeued(t *testing.T) {
	fe := &fakeEngine{delay: 200 * time.Millisecond}
	s := newSched(t, fe, Config{QueueDepth: 8})

	bg := context.Background()
	go query(bg, s, fakeKey) // occupies the dispatcher
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithCancel(bg)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := query(ctx, s, fakeKey) // sits in the queue
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued-then-cancelled query: err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled submitter still blocked after 1s")
	}

	// Let the dispatcher work through the queue, then confirm the
	// cancelled request was dropped without an engine pass.
	time.Sleep(400 * time.Millisecond)
	if got := fe.passes.Load(); got != 1 {
		t.Errorf("engine ran %d passes, want 1 (cancelled request dequeued)", got)
	}
	if s.Stats().Cancelled == 0 {
		t.Error("Cancelled counter not incremented")
	}
}

// TestUpdateQuiescesInFlightQueries: updates issued while query passes
// run must never overlap one inside the engine, and each update must
// bump the epoch.
func TestUpdateQuiescesInFlightQueries(t *testing.T) {
	fe := &fakeEngine{delay: 5 * time.Millisecond}
	s := newSched(t, fe, Config{QueueDepth: 128})

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := query(ctx, s, fakeKey); err != nil && !errors.Is(err, ErrBusy) {
					t.Error(err)
					return
				}
			}
		}()
	}
	const updates = 10
	for i := 0; i < updates; i++ {
		if err := s.Update(map[uint64][]byte{0: {1}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if fe.overlap.Load() {
		t.Fatal("an update overlapped a query pass inside the engine")
	}
	stats := s.Stats()
	if stats.Updates != updates || stats.Epoch != updates {
		t.Errorf("updates=%d epoch=%d, want %d", stats.Updates, stats.Epoch, updates)
	}
}

// TestShareAndBatchThroughScheduler: explicit batches and share queries
// flow through the queue and return correct data.
func TestShareAndBatchThroughScheduler(t *testing.T) {
	s0, db := realScheduler(t, Config{})
	ctx := context.Background()

	// Explicit batch: subresults must come back in key order.
	indices := []uint64{3, 77, 200}
	keys := make([]*dpf.Key, len(indices))
	for i, idx := range indices {
		keys[i], _ = keyPair(t, db.Domain(), idx)
	}
	results, stats, err := s0.Query(ctx, pirproto.MsgBatchQuery, dpf.Batch{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(indices) || stats.Queries != len(indices) {
		t.Fatalf("batch returned %d results, stats %+v", len(results), stats)
	}

	// Share query: a one-hot selector returns the record directly.
	q, err := naivepir.Gen(nil, db.NumRecords(), 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0, _, err := s0.Query(ctx, pirproto.MsgShareQuery, dpf.Batch{Shares: q.Shares[:1]})
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := s0.Query(ctx, pirproto.MsgShareQuery, dpf.Batch{Shares: q.Shares[1:2]})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, len(r0[0]))
	for i := range rec {
		rec[i] = r0[0][i] ^ r1[0][i]
	}
	if !bytes.Equal(rec, db.Record(42)) {
		t.Fatal("share queries through the scheduler reconstructed the wrong record")
	}
}

// TestDrainAndClose: Drain finishes queued work and fences new
// submissions; Close completes leftovers with ErrClosed.
func TestDrainAndClose(t *testing.T) {
	fe := &fakeEngine{delay: 20 * time.Millisecond}
	s := newSched(t, fe, Config{QueueDepth: 16})

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = query(ctx, s, fakeKey)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("pre-drain query %d failed: %v", i, err)
		}
	}
	if _, _, err := query(ctx, s, fakeKey); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submission: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSoloQueryWithWindow: a lone query runs as a width-1 pass at once,
// whether the scheduler is idle or it is the only query queued behind
// a pass: the gather takes what is queued and never waits for more.
func TestSoloQueryWithWindow(t *testing.T) {
	eng := realEngine(t)
	k0, _ := keyPair(t, eng.Database().Domain(), 9)
	s0, counted, release := heldScheduler(t, eng, Config{}, k0)
	wait := queueQueries(t, s0, k0, 1)
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if err := wait()[0]; err != nil {
		t.Fatal(err)
	}
	if got := counted.passWidths(); fmt.Sprint(got) != "[1 1]" {
		t.Errorf("pass widths %v, want [1 1]", got)
	}
	if stats := s0.Stats(); stats.Passes != 2 || stats.CoalescedPasses != 0 {
		t.Errorf("solo query stats: %+v", stats)
	}
}

// TestPreCancelledSubmission: an already-dead context never enters the
// queue.
func TestPreCancelledSubmission(t *testing.T) {
	s := newSched(t, &fakeEngine{}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := query(ctx, s, fakeKey); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if s.Stats().Submitted != 0 {
		t.Error("pre-cancelled request was admitted")
	}
}

// TestBadKeyInCoalescedPassOnlyFailsItsSender: a client feeding an
// invalid key into a coalesced pass must not fail the other clients'
// queries gathered into the same pass. The key check runs before the
// pass, so no pass carries the bad key and no good query runs twice.
func TestBadKeyInCoalescedPassOnlyFailsItsSender(t *testing.T) {
	inner := realEngine(t)
	db := inner.Database()
	held, _ := keyPair(t, db.Domain(), 1)
	s0, eng, release := heldScheduler(t, inner, Config{}, held)
	ctx := context.Background()

	const good = 6
	var wg sync.WaitGroup
	goodErrs := make([]error, good)
	var badErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		bad, _ := keyPair(t, db.Domain()+3, 0) // wrong domain for this DB
		_, _, badErr = query(ctx, s0, bad)
	}()
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k0, _ := keyPair(t, db.Domain(), uint64(i*7))
			_, _, goodErrs[i] = query(ctx, s0, k0)
		}(i)
	}
	waitSubmitted(t, s0, 1+good+1)
	if err := release(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if badErr == nil {
		t.Error("wrong-domain key was accepted")
	}
	for i, err := range goodErrs {
		if err != nil {
			t.Errorf("good query %d failed alongside a bad key: %v", i, err)
		}
	}
	if got := eng.passWidths(); eng.badKeys != 0 || fmt.Sprint(got) != fmt.Sprint([]int{1, good}) {
		t.Errorf("passes %v carried %d bad keys, want [1 %d] and 0", got, eng.badKeys, good)
	}
	// The rejected query still counts as dispatched, so the request
	// counts add up.
	if st := s0.Stats(); st.Submitted != good+2 || st.Dispatched != st.Submitted {
		t.Errorf("submitted %d, dispatched %d, want %d each", st.Submitted, st.Dispatched, good+2)
	}
}

// TestNegativeConfigRejected: a negative queue depth or coalesce cap is
// an error, not a panic inside the channel allocation.
func TestNegativeConfigRejected(t *testing.T) {
	for _, cfg := range []Config{{QueueDepth: -1}, {MaxCoalesce: -1}} {
		if s, err := New(&fakeEngine{}, cfg); err == nil {
			s.Close()
			t.Errorf("New accepted %+v", cfg)
		}
	}
}

// TestShareBatchIsOneAdmissionUnit: a MsgShareBatchQuery returns per-share
// subresults in order and occupies exactly one queue slot.
func TestShareBatchIsOneAdmissionUnit(t *testing.T) {
	s0, db := realScheduler(t, Config{})
	ctx := context.Background()

	indices := []uint64{4, 90, 250}
	shares0 := make([]*bitvec.Vector, len(indices))
	shares1 := make([]*bitvec.Vector, len(indices))
	for i, idx := range indices {
		q, err := naivepir.Gen(nil, db.NumRecords(), idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		shares0[i], shares1[i] = q.Shares[0], q.Shares[1]
	}
	r0, _, err := s0.Query(ctx, pirproto.MsgShareBatchQuery, dpf.Batch{Shares: shares0})
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := s0.Query(ctx, pirproto.MsgShareBatchQuery, dpf.Batch{Shares: shares1})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		rec := make([]byte, len(r0[i]))
		for j := range rec {
			rec[j] = r0[i][j] ^ r1[i][j]
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("share-batch item %d: wrong record", i)
		}
	}
	if stats := s0.Stats(); stats.Submitted != 2 || stats.Passes != 2 {
		t.Errorf("two share batches should be two admissions/passes: %+v", stats)
	}
	// The CPU engine fuses multi-share batches into one database scan;
	// both passes must be counted as fused.
	if stats := s0.Stats(); stats.FusedPasses != 2 {
		t.Errorf("FusedPasses = %d, want 2: %+v", stats.FusedPasses, stats)
	}
}

// TestPassWidthHistogram: the scheduler's pass-width histogram must put
// solo passes in bucket 0 and coalesced passes in the bucket of their
// width, and the buckets must sum to the pass count.
func TestPassWidthHistogram(t *testing.T) {
	// The held query is a solo pass; the burst queued behind it is one
	// wide pass.
	const burst = 24
	k0, _ := keyPair(t, 4, 1)
	s, _, release := heldScheduler(t, &fakeEngine{}, Config{}, k0)
	wait := queueQueries(t, s, k0, burst)
	if err := release(); err != nil {
		t.Fatal(err)
	}
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	var want [metrics.NumWidthBuckets]uint64
	want[metrics.WidthBucket(1)]++
	want[metrics.WidthBucket(burst)]++
	if st.PassWidths != want || st.Passes != 2 {
		t.Errorf("PassWidths %v over %d passes, want %v over 2", st.PassWidths, st.Passes, want)
	}
}
