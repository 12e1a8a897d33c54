package impir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// startShimDeployment serves db through a shimEngine behind a scheduler
// with the given config, over loopback TCP, and returns the address plus
// the scheduler for stats inspection.
func startShimDeployment(t *testing.T, db *database.DB, delay time.Duration,
	cfg scheduler.Config) (string, *scheduler.Scheduler) {
	t.Helper()
	cpu, err := engine.NewCPUPricer(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t, &shimEngine{Engine: eng, delay: delay}, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(lis, sched, 0, transport.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String(), sched
}

// runConcurrentClients opens one TCP connection per client and has each
// issue `queries` sequential single queries.
func runConcurrentClients(t *testing.T, addr string, db *database.DB, clients, queries int) {
	t.Helper()
	ctx := context.Background()
	conns := make([]*transport.Conn, clients)
	for i := range conns {
		conn, err := transport.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				idx := uint64((c*queries + q) % db.NumRecords())
				k0, _, err := GenerateKeys(db.NumRecords(), idx)
				if err != nil {
					errs[c] = err
					return
				}
				if _, err := conns[c].Query(ctx, k0); err != nil {
					errs[c] = fmt.Errorf("client %d query %d: %w", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescingBeatsSerialOverTCP: K concurrent single-query clients
// against one server. The shim engine holds every pass for a fixed
// time, so the queries of the other clients queue behind it. With
// MaxCoalesce 1 the server runs one pass per query; by default the
// queries queued behind a pass share the next one, so it runs fewer
// passes than it received queries. The test counts passes; it does not
// time them.
func TestCoalescingBeatsSerialOverTCP(t *testing.T) {
	db, err := GenerateHashDB(256, 17)
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 8
		queries = 4
		delay   = 25 * time.Millisecond
	)

	serialAddr, serialSched := startShimDeployment(t, db, delay, scheduler.Config{MaxCoalesce: 1})
	runConcurrentClients(t, serialAddr, db, clients, queries)
	if st := serialSched.Stats(); st.Dispatched != clients*queries || st.Passes != st.Dispatched || st.CoalescedQueries != 0 {
		t.Fatalf("MaxCoalesce 1 server: %d queries in %d passes, %d coalesced; want %d in %d, 0",
			st.Dispatched, st.Passes, st.CoalescedQueries, clients*queries, clients*queries)
	}

	coalAddr, coalSched := startShimDeployment(t, db, delay, scheduler.Config{})
	runConcurrentClients(t, coalAddr, db, clients, queries)
	st := coalSched.Stats()
	if st.Dispatched != clients*queries || st.Passes >= st.Dispatched || st.CoalescedQueries == 0 {
		t.Fatalf("coalescing server: %d queries in %d passes, %d coalesced; want %d in fewer passes, some coalesced",
			st.Dispatched, st.Passes, st.CoalescedQueries, clients*queries)
	}
	t.Logf("coalescing server: %.1f queries/pass", st.AvgCoalesce())
}

// TestUpdateUnderConcurrentQueryLoad is the §3.3-meets-scheduler torn
// read test: many goroutines continuously read one record over TCP (via
// one-hot selector shares, so a single server returns the record in one
// pass) while Update concurrently flips that record between two full
// patterns. Every observed value must be entirely the old or entirely
// the new pattern — never a mix.
func TestUpdateUnderConcurrentQueryLoad(t *testing.T) {
	db, err := GenerateHashDB(256, 23)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Engine: EnginePIM, DPUs: 8,
		QueueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Load(db); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(lis, 0); err != nil {
		t.Fatal(err)
	}

	const (
		target  = 42
		readers = 8
	)
	recordSize := srv.Database().RecordSize()
	patA := bytes.Repeat([]byte{0xAA}, recordSize)
	patB := bytes.Repeat([]byte{0xBB}, recordSize)
	if err := srv.Update(map[uint64][]byte{target: patA}); err != nil {
		t.Fatal(err)
	}

	onehot := bitvec.New(srv.Database().NumRecords())
	onehot.Set(target)

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var torn [][]byte
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.Dial(ctx, lis.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs, err := conn.Exchange(ctx, pirproto.MsgShareQuery, dpf.Batch{Shares: []*bitvec.Vector{onehot}})
				if errors.Is(err, ErrServerBusy) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				rec := recs[0]
				if !bytes.Equal(rec, patA) && !bytes.Equal(rec, patB) {
					mu.Lock()
					torn = append(torn, rec)
					mu.Unlock()
				}
			}
		}()
	}

	// Wait until queries are actually flowing, then hammer updates while
	// the readers run: A→B→A→…, pacing so queries interleave with them.
	for deadline := time.Now().Add(10 * time.Second); srv.QueueStats().Dispatched == 0; {
		if time.Now().After(deadline) {
			t.Fatal("readers never got a query through")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		pat := patA
		if i%2 == 0 {
			pat = patB
		}
		if err := srv.Update(map[uint64][]byte{target: pat}); err != nil {
			t.Fatalf("update %d under query load: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if len(torn) > 0 {
		t.Fatalf("%d torn reads; first: %x", len(torn), torn[0][:8])
	}
	stats := srv.QueueStats()
	if stats.Updates != 21 || stats.Epoch != 21 {
		t.Errorf("updates=%d epoch=%d, want 21", stats.Updates, stats.Epoch)
	}
	if stats.Dispatched == 0 {
		t.Error("no queries dispatched during the update storm")
	}
}

// TestQueueFullReturnsBusyOverTCP: with a 1-deep queue and a slow
// engine, extra concurrent clients must bounce with ErrServerBusy
// promptly instead of queueing behind the TCP accept loop.
func TestQueueFullReturnsBusyOverTCP(t *testing.T) {
	db, err := GenerateHashDB(128, 29)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startShimDeployment(t, db, 400*time.Millisecond, scheduler.Config{QueueDepth: 1})

	const clients = 6
	ctx := context.Background()
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := transport.Dial(ctx, addr)
			if err != nil {
				outcomes[c].err = err
				return
			}
			defer conn.Close()
			k0, _, err := GenerateKeys(db.NumRecords(), uint64(c))
			if err != nil {
				outcomes[c].err = err
				return
			}
			start := time.Now()
			_, err = conn.Query(ctx, k0)
			outcomes[c] = outcome{err: err, elapsed: time.Since(start)}
		}(c)
	}
	wg.Wait()

	var busy, ok int
	for c, o := range outcomes {
		switch {
		case o.err == nil:
			ok++
		case errors.Is(o.err, ErrServerBusy):
			busy++
			// A busy rejection must not wait for the slow engine pass.
			if o.elapsed >= 400*time.Millisecond {
				t.Errorf("client %d: busy rejection took %v — it queued", c, o.elapsed)
			}
		default:
			t.Errorf("client %d: unexpected error %v", c, o.err)
		}
	}
	if busy == 0 {
		t.Fatalf("no client was rejected busy (%d ok) despite a 1-deep queue", ok)
	}
	if ok == 0 {
		t.Fatal("every client was rejected — the queue admitted nothing")
	}
	t.Logf("%d served, %d busy", ok, busy)
}
