package impir

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// startDeployment serves n byte-identical replicas over loopback TCP and
// returns their addresses.
func startDeployment(t *testing.T, db *DB, n int) []string {
	t.Helper()
	addrs, _ := startShardCohort(t, db, n)
	return addrs
}

// shimEngine wraps a real engine, letting tests slow down or fail every
// pass while keeping replicas byte-identical.
type shimEngine struct {
	*engine.Engine
	delay time.Duration
	fail  error
	after func() // nil, or runs after every pass, before its answer is sent
}

func (e *shimEngine) Pass(in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if e.fail != nil {
		return nil, metrics.BatchStats{}, e.fail
	}
	time.Sleep(e.delay)
	out, st, err := e.Engine.Pass(in)
	if e.after != nil {
		e.after()
	}
	return out, st, err
}

// startShimServer serves db through a shimEngine (behind a scheduler,
// like the real stack) over loopback TCP.
func startShimServer(t *testing.T, db *database.DB, delay time.Duration, fail error) string {
	t.Helper()
	cpu, err := engine.NewCPUPricer(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t, &shimEngine{Engine: eng, delay: delay, fail: fail}, scheduler.Config{})
	srv, err := transport.NewServer(lis, sched, 0, transport.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// TestClientRetrieve: the acceptance-criterion flow — Retrieve(ctx, idx)
// works unchanged against a 2-server DPF deployment and a 3-server share
// deployment, and RetrieveBatch works under both encodings.
func TestClientRetrieve(t *testing.T) {
	db, err := GenerateHashDB(700, 33) // non-power-of-two: shares must cover padding
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{2, 3} {
		addrs := startDeployment(t, db, n)
		cli, err := Open(ctx, FlatDeployment(addrs...))
		if err != nil {
			t.Fatalf("%d servers: %v", n, err)
		}
		defer cli.Close()

		wantEnc := "dpf"
		if n > 2 {
			wantEnc = "shares"
		}
		if cli.(*Client).Encoding() != wantEnc {
			t.Errorf("%d servers: encoding %q, want %q", n, cli.(*Client).Encoding(), wantEnc)
		}
		if cli.(*Client).Servers() != n || cli.RecordSize() != 32 {
			t.Errorf("%d servers: Servers=%d RecordSize=%d", n, cli.(*Client).Servers(), cli.RecordSize())
		}

		for _, idx := range []uint64{0, 350, 699} {
			rec, err := cli.Retrieve(ctx, idx)
			if err != nil {
				t.Fatalf("%d servers: Retrieve(%d): %v", n, idx, err)
			}
			if !bytes.Equal(rec, db.Record(int(idx))) {
				t.Fatalf("%d servers: index %d: wrong record", n, idx)
			}
		}

		batch, err := cli.RetrieveBatch(ctx, []uint64{1, 511, 600, 1})
		if err != nil {
			t.Fatalf("%d servers: RetrieveBatch: %v", n, err)
		}
		for i, idx := range []uint64{1, 511, 600, 1} {
			if !bytes.Equal(batch[i], db.Record(int(idx))) {
				t.Fatalf("%d servers: batch item %d wrong", n, i)
			}
		}

		if _, err := cli.Retrieve(ctx, 1<<30); err == nil {
			t.Errorf("%d servers: out-of-range retrieve accepted", n)
		}
		empty, err := cli.RetrieveBatch(ctx, nil)
		if err != nil {
			t.Errorf("%d servers: empty batch errored: %v", n, err)
		}
		if empty == nil || len(empty) != 0 {
			t.Errorf("%d servers: empty batch returned %v, want empty non-nil slice", n, empty)
		}
	}
}

// TestClientFanOutConcurrency: with three servers each sleeping `delay`
// per query, a concurrent client finishes in ~delay while a sequential
// one needs 3×delay. Asserting max-not-sum latency.
func TestClientFanOutConcurrency(t *testing.T) {
	db, err := database.GenerateHashDB(256, 11)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 300 * time.Millisecond
	addrs := []string{
		startShimServer(t, db, delay, nil),
		startShimServer(t, db, delay, nil),
		startShimServer(t, db, delay, nil),
	}
	ctx := context.Background()
	cli, err := Open(ctx, FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	rec, err := cli.Retrieve(ctx, 77)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, db.Record(77)) {
		t.Fatal("wrong record through slow deployment")
	}
	if elapsed >= 2*delay {
		t.Fatalf("Retrieve took %v over 3 servers of %v each — sequential, not fanned out", elapsed, delay)
	}
}

// TestClientContextCancellation: a deadline must abort a retrieval stuck
// on a slow server, promptly and with the context's error.
func TestClientContextCancellation(t *testing.T) {
	db, err := database.GenerateHashDB(128, 12)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{
		startShimServer(t, db, 800*time.Millisecond, nil),
		startShimServer(t, db, 0, nil),
	}
	cli, err := Open(context.Background(), FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Retrieve(ctx, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Retrieve under expired deadline: err = %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v — deadline not honored on the wire", elapsed)
	}

	// The abandoned exchange left the slow server's connection usable:
	// the next retrieval drops its late reply and reads its own, and
	// succeeds without the caller discarding the Client.
	rec, err := cli.Retrieve(context.Background(), 5)
	if err != nil {
		t.Fatalf("post-cancel retrieve did not heal: %v", err)
	}
	if !bytes.Equal(rec, db.Record(5)) {
		t.Fatal("post-cancel retrieve returned the wrong record")
	}

	// An already-cancelled context must not touch the wire at all.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	cli2, err := Open(context.Background(), FlatDeployment(addrs[1], addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli2.Retrieve(cancelled, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled retrieve: err = %v", err)
	}
}

// TestClientOneServerDownAborts: when any server fails, the whole
// retrieval fails — a lone subresult must never be returned as a record.
func TestClientOneServerDownAborts(t *testing.T) {
	db, err := database.GenerateHashDB(128, 13)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("replica offline for maintenance")
	addrs := []string{
		startShimServer(t, db, 0, nil),
		startShimServer(t, db, 50*time.Millisecond, boom),
	}
	cli, err := Open(context.Background(), FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rec, err := cli.Retrieve(context.Background(), 3)
	if err == nil {
		t.Fatal("retrieve succeeded with a failing server")
	}
	if rec != nil {
		t.Fatal("failing retrieval returned data — a lone subresult leaked")
	}
	if !strings.Contains(err.Error(), "party 1") {
		t.Errorf("error %q does not identify the failing party", err)
	}
}

// TestDialValidation: replica digest and geometry mismatches must be
// rejected at connect time, as must undersized deployments and encodings
// that cannot serve the server count.
func TestDialValidation(t *testing.T) {
	ctx := context.Background()

	if _, err := Open(ctx, FlatDeployment()); err == nil {
		t.Error("Open accepted zero addresses")
	}
	if _, err := Open(ctx, FlatDeployment("127.0.0.1:1")); err == nil {
		t.Error("Open accepted a single server")
	}
	// The addresses would fail at dial: the encoding must be refused first.
	if _, err := Open(ctx, FlatDeployment("a", "b", "c"), WithEncoding(EncodingDPF)); err == nil ||
		!strings.Contains(err.Error(), "encoding dpf") {
		t.Errorf("DPF encoding on a 3-server deployment: err = %v, want the encoding named", err)
	}
	if _, err := Open(ctx, FlatDeployment("a", "b"), WithEncoding(Encoding(9))); err == nil ||
		!strings.Contains(err.Error(), "unknown encoding Encoding(9)") {
		t.Errorf("unknown encoding: err = %v, want the encoding named", err)
	}

	// Mismatched replicas across three servers must be rejected.
	dbA, _ := GenerateHashDB(128, 1)
	dbB, _ := GenerateHashDB(128, 2)
	addrsA := startDeployment(t, dbA, 2)
	addrsB := startDeployment(t, dbB, 1)
	if _, err := Open(ctx, FlatDeployment(append(addrsA, addrsB...)...)); err == nil ||
		!strings.Contains(err.Error(), "replica") {
		t.Errorf("mismatched replicas: err = %v", err)
	}

	// Mismatched geometry (same content length, different record count).
	dbC, _ := GenerateHashDB(256, 1)
	addrsC := startDeployment(t, dbC, 1)
	if _, err := Open(ctx, FlatDeployment(append(addrsA, addrsC...)...)); err == nil {
		t.Error("mismatched geometry accepted")
	}
}

// TestClientExplicitShareEncodingTwoServers: forcing EncodingShares on a
// two-server deployment must work — it is the paper's communication
// ablation baseline.
func TestClientExplicitShareEncodingTwoServers(t *testing.T) {
	db, err := GenerateHashDB(256, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cli, err := Open(ctx, FlatDeployment(startDeployment(t, db, 2)...), WithEncoding(EncodingShares))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.(*Client).Encoding() != "shares" {
		t.Fatalf("encoding = %q", cli.(*Client).Encoding())
	}
	rec, err := cli.Retrieve(ctx, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, db.Record(123)) {
		t.Fatal("share-encoded 2-server retrieval wrong")
	}
}

// TestThreeServerBatch: batch retrieval under the share encoding against
// a 3-server deployment.
func TestThreeServerBatch(t *testing.T) {
	db, err := GenerateHashDB(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cli, err := Open(ctx, FlatDeployment(startDeployment(t, db, 3)...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	recs, err := cli.RetrieveBatch(ctx, []uint64{7, 299, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range []uint64{7, 299, 0} {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			t.Fatalf("batch item %d wrong", i)
		}
	}
}

func TestParseEncoding(t *testing.T) {
	for s, want := range map[string]Encoding{
		"auto": EncodingAuto, "": EncodingAuto,
		"dpf":    EncodingDPF,
		"shares": EncodingShares, "share": EncodingShares, "naive": EncodingShares,
	} {
		got, err := ParseEncoding(s)
		if err != nil || got != want {
			t.Errorf("ParseEncoding(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEncoding("paillier"); err == nil {
		t.Error("unknown encoding accepted")
	}
	if EncodingAuto.String() != "auto" || EncodingDPF.String() != "dpf" || EncodingShares.String() != "shares" {
		t.Error("encoding names wrong")
	}
}

// TestClientConcurrentHealAfterCancel: goroutines retrieving
// concurrently right after a cancelled fan-out must all succeed — they
// share the connection the cancelled exchange left behind, and its late
// reply is dropped by whichever of them reads first.
func TestClientConcurrentHealAfterCancel(t *testing.T) {
	db, err := database.GenerateHashDB(128, 14)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{
		startShimServer(t, db, 300*time.Millisecond, nil),
		startShimServer(t, db, 0, nil),
	}
	cli, err := Open(context.Background(), FlatDeployment(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := cli.Retrieve(ctx, 5); !errors.Is(err, context.DeadlineExceeded) {
		cancel()
		t.Fatalf("expected deadline exceeded, got %v", err)
	}
	cancel()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := cli.Retrieve(context.Background(), 5)
			if err == nil && !bytes.Equal(rec, db.Record(5)) {
				err = errors.New("wrong record")
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
