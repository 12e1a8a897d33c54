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

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// startEngineServer serves an engine (behind a scheduler, like the real
// stack) over loopback TCP and returns its address.
func startEngineServer(t *testing.T, eng scheduler.Engine) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t, eng, scheduler.Config{})
	srv, err := transport.NewServer(lis, sched, 0, transport.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// newScheduler wraps eng in a scheduler that is closed with the test.
func newScheduler(t *testing.T, eng scheduler.Engine, cfg scheduler.Config) *scheduler.Scheduler {
	t.Helper()
	sched, err := scheduler.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	return sched
}

// TestPerCallOptionsOverrideDefaults: a CallOption on one operation
// overrides the Open-level default for that operation only.
func TestPerCallOptionsOverrideDefaults(t *testing.T) {
	db, _ := GenerateHashDB(256, 8)
	addrs := startDeployment(t, db, 2)
	ctx := context.Background()

	// Open-level default: an unmeetable deadline.
	store, err := Open(ctx, FlatDeployment(addrs...),
		WithDefaultCallOptions(WithCallTimeout(time.Nanosecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if _, err := store.Retrieve(ctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("default timeout not applied: %v", err)
	}
	// The per-call override must win.
	rec, err := store.Retrieve(ctx, 3, WithCallTimeout(30*time.Second))
	if err != nil {
		t.Fatalf("per-call timeout did not override the default: %v", err)
	}
	if !bytes.Equal(rec, db.Record(3)) {
		t.Fatal("wrong record")
	}
	// …for that call only: the default still governs the next one.
	if _, err := store.Retrieve(ctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("override leaked into the defaults: %v", err)
	}
}

// flakyEngine fails the first failN passes, then recovers — the
// transient-failure shape a retry budget exists for.
type flakyEngine struct {
	*engine.Engine
	mu    sync.Mutex
	failN int
	calls int
}

func (e *flakyEngine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	e.mu.Lock()
	e.calls++
	calls := e.calls
	e.mu.Unlock()
	if calls <= e.failN {
		return nil, metrics.BatchStats{}, fmt.Errorf("transient outage %d", calls)
	}
	return e.Engine.Pass(in)
}

// TestRetryBudget: a WithRetries budget retries transient failures and
// counts them; without a budget the first failure is final. Context
// expiry is never retried.
func TestRetryBudget(t *testing.T) {
	db, _ := GenerateHashDB(256, 9)
	ctx := context.Background()

	start := func(failN int) []string {
		cpu, err := engine.NewCPUPricer(2)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(cpu)
		if err := eng.LoadDatabase(db); err != nil {
			t.Fatal(err)
		}
		flaky := startEngineServer(t, &flakyEngine{Engine: eng, failN: failN})
		healthy := startDeployment(t, db, 2)
		return []string{flaky, healthy[0]}
	}

	// Budget of 2 covers 2 transient failures.
	store, err := Open(ctx, FlatDeployment(start(2)...), WithDefaultCallOptions(WithRetries(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec, err := store.Retrieve(ctx, 11)
	if err != nil {
		t.Fatalf("retries exhausted unexpectedly: %v", err)
	}
	if !bytes.Equal(rec, db.Record(11)) {
		t.Fatal("wrong record after retries")
	}
	if st := store.Stats(); st.Retries == 0 {
		t.Fatalf("no retries counted: %+v", st)
	}

	// A batch frame reaches the engine through the same pass, so its
	// transient failure is retried and counted too.
	batchStore, err := Open(ctx, FlatDeployment(start(1)...), WithDefaultCallOptions(WithRetries(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer batchStore.Close()
	indices := []uint64{3, 11, 200}
	recs, err := batchStore.RetrieveBatch(ctx, indices)
	if err != nil {
		t.Fatalf("batch retry exhausted unexpectedly: %v", err)
	}
	for i, idx := range indices {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			t.Fatalf("batch record %d wrong after a retry", idx)
		}
	}
	if st := batchStore.Stats(); st.Retries != 1 {
		t.Fatalf("batch retries = %d, want 1: %+v", st.Retries, st)
	}

	// No budget: the same failure is final.
	store2, err := Open(ctx, FlatDeployment(start(2)...))
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if _, err := store2.Retrieve(ctx, 11); err == nil {
		t.Fatal("transient failure retried without a budget")
	}

	// Cancellation is never retried, whatever the budget.
	store3, err := Open(ctx, FlatDeployment(start(1000)...), WithDefaultCallOptions(WithRetries(1000)))
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := store3.Retrieve(cctx, 11); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if st := store3.Stats(); st.Retries > 0 {
		t.Fatalf("cancellation consumed retry budget: %+v", st)
	}
}

// TestClusterTracerRingsOneRootPerLogicalOp: on a sharded deployment
// the root span wraps the LOGICAL operation — one per Retrieve, with one
// shard child per cohort, never one root per shard.
func TestClusterTracerRingsOneRootPerLogicalOp(t *testing.T) {
	db, _ := GenerateHashDB(512, 10)
	m, _ := startCluster(t, db, 2)
	ctx := context.Background()

	o := NewObserver(ObserverConfig{SampleRate: 1})
	store, err := Open(ctx, m, o.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	for _, idx := range []uint64{3, 300, 511} {
		rec, err := store.Retrieve(ctx, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("record %d wrong through cluster", idx)
		}
	}
	roots := o.RecentTraces(0)
	if len(roots) != 3 {
		t.Fatalf("%d root spans for 3 logical retrievals", len(roots))
	}
	for _, root := range roots {
		if root.Name != opRetrieve || len(root.Children) != 2 {
			t.Fatalf("root %q has %d children, want a retrieve root over 2 shards", root.Name, len(root.Children))
		}
	}
}
