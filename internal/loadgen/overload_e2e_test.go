package loadgen

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/impir/impir"
)

// startTinyQueuePair serves one flat 2-server deployment over loopback
// TCP with a deliberately tiny admission queue, so offered load past the
// engine's capacity turns into MsgBusy rejections instead of unbounded
// queueing.
func startTinyQueuePair(t *testing.T, db *impir.DB, queueDepth int) []string {
	t.Helper()
	addrs := make([]string, 2)
	for party := range addrs {
		srv, err := impir.NewServer(impir.ServerConfig{
			Engine:     impir.EngineCPU,
			Threads:    2, // low capacity on purpose
			QueueDepth: queueDepth,
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
		if err := srv.Serve(lis, uint8(party)); err != nil {
			t.Fatal(err)
		}
		addrs[party] = srv.Addr().String()
	}
	return addrs
}

// TestOverloadBackpressureE2E drives offered load well past a tiny
// admission queue's capacity over real TCP and checks the whole
// backpressure story: the server's MsgBusy rejections surface
// client-side in both the run's Busy count and StoreStats.Busy, the
// operations that WERE admitted keep a bounded p99, the open-loop
// accounting conserves every offered arrival, and the harness leaks no
// goroutines once the store closes.
func TestOverloadBackpressureE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("overload e2e needs a few seconds of sustained load")
	}
	baselineGoroutines := runtime.NumGoroutine()

	db, err := impir.GenerateHashDB(2048, 7)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startTinyQueuePair(t, db, 2)
	ctx := context.Background()
	// A 16-connection pool: a server answers one connection's frames one
	// at a time, so parallel connections are what let offered load
	// actually pile onto the admission queue.
	target := Target{}
	for i := 0; i < 16; i++ {
		store, err := impir.Open(ctx, impir.FlatDeployment(addrs...))
		if err != nil {
			t.Fatal(err)
		}
		target.PerClient = append(target.PerClient, store)
	}
	closePool := func() {
		for _, s := range target.PerClient {
			s.Close()
		}
	}
	defer closePool()

	res, err := Run(ctx, target, Config{
		QPS:      3000, // far past what 2 CPU threads admit through a depth-2 queue
		Duration: 2 * time.Second,
		Warmup:   200 * time.Millisecond,
		Clients:  32,
		Workers:  64,
		Timeout:  time.Second,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Backpressure must be visible, not silent: the server said MsgBusy
	// and the client counted it — in the run's accounting and in the
	// store's own counters.
	if res.Counts.Busy == 0 {
		t.Errorf("no busy rejections despite %0.f QPS into a depth-2 queue: %+v", res.OfferedQPS, res.Counts)
	}
	st := target.storeStats()
	if st.Busy == 0 {
		t.Errorf("StoreStats.Busy = 0; busy rejections invisible client-side: %+v", st)
	}
	if st.Busy > st.Errors {
		t.Errorf("Busy %d exceeds Errors %d — every busy is an error", st.Busy, st.Errors)
	}

	// Every offered arrival is accounted for.
	total := res.Counts.OK + res.Counts.Busy + res.Counts.Timeouts + res.Counts.Errors + res.Counts.Lost
	if total != res.Counts.Offered {
		t.Errorf("accounting leak: %d accounted of %d offered", total, res.Counts.Offered)
	}

	// Admitted operations stay bounded: a depth-2 queue holds back-to-
	// back work, so an admitted op waits at most a few service times —
	// nowhere near the 1s timeout. (The bound is deliberately loose; the
	// point is that admission control kept the tail from growing with
	// offered load.)
	if res.Counts.OK == 0 {
		t.Fatal("nothing was admitted at all")
	}
	if p99 := time.Duration(res.Latency.P99 * float64(time.Microsecond)); p99 > 900*time.Millisecond {
		t.Errorf("p99 of admitted ops %v approaches the timeout — queue not bounding latency", p99)
	}

	// No goroutine leaks: after the pool closes, the count settles back
	// to (near) the baseline. Server goroutines close via t.Cleanup later.
	closePool()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines+4 || time.Now().After(deadline) {
			if n > baselineGoroutines+4 {
				t.Errorf("goroutines leaked: %d at start, %d after close", baselineGoroutines, n)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}
