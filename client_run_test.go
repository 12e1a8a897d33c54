package impir

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardedDeployment lays parts out as consecutive shards, each served
// by the cohorts serve returns for it.
func shardedDeployment(parts []*DB, serve func(s int, part *DB) []Party) Deployment {
	d := Deployment{RecordSize: parts[0].RecordSize()}
	first := uint64(0)
	for s, part := range parts {
		n := uint64(part.NumRecords())
		d.Shards = append(d.Shards, DeploymentShard{FirstRecord: first, NumRecords: n, Parties: serve(s, part)})
		first += n
	}
	return d
}

// clientFrame matches a stack frame in a method of the root package's
// client: Client, cohort, or a cohort's flight.
var clientFrame = regexp.MustCompile(`github\.com/impir/impir\.\(\*(Client|cohort|flight)\)\.`)

// clientGoroutines returns the stack of every goroutine with a frame in
// a client method, by goroutine header ("goroutine N [state]:").
func clientGoroutines() map[string][]byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string][]byte{}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if clientFrame.Match(g) {
			id, _, _ := bytes.Cut(g, []byte(" ["))
			out[string(id)] = g
		}
	}
	return out
}

// TestRetrieveRunsOnCallerGoroutine: a Retrieve on 2 shards × 2 parties
// starts no goroutine of its own. While every server holds its pass —
// so the call has written all four frames and waits for a reply — the
// only goroutine in a client method is the caller's.
func TestRetrieveRunsOnCallerGoroutine(t *testing.T) {
	db, _ := GenerateHashDB(256, 51)
	parts, err := SplitDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	passes := make(chan struct{}, 4)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the servers close, even on failure
	hold := func() {
		passes <- struct{}{}
		<-release
	}
	d := shardedDeployment(parts, func(_ int, part *DB) []Party {
		return []Party{
			{Replicas: []string{startHookedServer(t, part, 0, hold)}},
			{Replicas: []string{startHookedServer(t, part, 1, hold)}},
		}
	})
	store := openFromJSON(t, context.Background(), d)

	type result struct {
		rec []byte
		err error
	}
	// Goroutines other tests left in client methods (hedge losers still
	// reading) are not this call's.
	before := clientGoroutines()
	done := make(chan result, 1)
	go func() {
		rec, err := store.Retrieve(context.Background(), 200)
		done <- result{rec, err}
	}()
	for i := 0; i < 4; i++ {
		select {
		case <-passes:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 4 servers received a frame", i)
		}
	}
	var inClient [][]byte
	for id, g := range clientGoroutines() {
		if before[id] == nil {
			inClient = append(inClient, g)
		}
	}
	unblock()
	if len(inClient) != 1 {
		t.Errorf("%d new goroutines are in client methods while the call waits, want 1 (the caller's):\n%s",
			len(inClient), bytes.Join(inClient, []byte("\n\n")))
	}
	if r := <-done; r.err != nil || !bytes.Equal(r.rec, db.Record(200)) {
		t.Fatalf("Retrieve = %x, %v", r.rec, r.err)
	}
}

// TestConcurrentCallsDoNotDeadlock: 8 goroutines share one Store on 2
// shards of 2 parties × 2 replicas, hedging with a ~0 delay so replicas
// race, and mix RetrieveBatches with Updates. Every call takes
// connections in one order or not at all, so every call returns within
// its deadline, and every read equals the value last written there.
// Each goroutine writes only its own records, so that value is known.
func TestConcurrentCallsDoNotDeadlock(t *testing.T) {
	const (
		workers  = 8
		deadline = 5 * time.Second
	)
	db, _ := GenerateHashDB(512, 52)
	parts, err := SplitDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := shardedDeployment(parts, func(_ int, part *DB) []Party {
		addrs, _ := startShardCohort(t, part, 4)
		return []Party{{Replicas: addrs[:2]}, {Replicas: addrs[2:]}}
	})
	ctx := context.Background()
	store := openFromJSON(t, ctx, d, WithDefaultCallOptions(
		WithHedging(true), WithHedgeDelay(time.Nanosecond), WithCallTimeout(deadline), WithRetries(3)))

	stop := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w owns one record on each shard.
			mine := []uint64{uint64(w), uint64(256 + w)}
			want := map[uint64][]byte{mine[0]: db.Record(int(mine[0])), mine[1]: db.Record(int(mine[1]))}
			for i := 0; time.Now().Before(stop); i++ {
				start := time.Now()
				if i%3 == 2 {
					rec := make([]byte, db.RecordSize())
					binary.LittleEndian.PutUint64(rec, uint64(w<<32|i))
					idx := mine[i%2]
					err := store.Update(ctx, map[uint64][]byte{idx: rec})
					if err != nil {
						t.Errorf("worker %d: Update: %v", w, err)
						return
					}
					want[idx] = rec
				} else {
					recs, err := store.RetrieveBatch(ctx, mine)
					if err != nil {
						t.Errorf("worker %d: RetrieveBatch: %v", w, err)
						return
					}
					for j, idx := range mine {
						if !bytes.Equal(recs[j], want[idx]) {
							t.Errorf("worker %d: record %d = %x, want the last written %x", w, idx, recs[j], want[idx])
							return
						}
					}
				}
				if took := time.Since(start); took > deadline {
					t.Errorf("worker %d: a call took %v, past its %v deadline", w, took, deadline)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRetrieveAllocations pins the allocations of one Retrieve on a
// flat 1024 × 32 B pair served in this process, counting the client and
// both servers together: 64 on Go 1.24, with a little room above. A
// goroutine, closure or cancel scope per shard or party shows here, and
// so does a DPF key generation whose PRG blocks escape per tree level.
// A store whose Observer samples nothing must allocate exactly as an
// unobserved one: its counters and histograms are resolved cells.
func TestRetrieveAllocations(t *testing.T) {
	const maxRetrieveAllocs = 70
	if raceEnabledImpir {
		t.Skip("allocation counts are unreliable under -race")
	}
	db, _ := GenerateHashDB(1024, 53)
	ctx := context.Background()
	d := FlatDeployment(startDeployment(t, db, 2)...)
	var allocs [2]float64 // unobserved; observed, sampling nothing
	for n, opts := range [][]ClientOption{nil, {NewObserver(ObserverConfig{}).Option()}} {
		store := openFromJSON(t, ctx, d, opts...)
		for i := 0; i < 50; i++ { // warm the connections' buffers and pools
			if _, err := store.Retrieve(ctx, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		allocs[n] = testing.AllocsPerRun(200, func() {
			if _, e := store.Retrieve(ctx, 77); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%.1f allocations per Retrieve, %.1f observed", allocs[0], allocs[1])
	if allocs[0] > maxRetrieveAllocs {
		t.Errorf("a Retrieve allocates %.1f times, want ≤ %d", allocs[0], maxRetrieveAllocs)
	}
	if allocs[1] != allocs[0] {
		t.Errorf("an unsampling Observer's Retrieve allocates %.1f times, unobserved %.1f", allocs[1], allocs[0])
	}
}

// acceptCounter counts the connections its listeners accept.
type acceptCounter struct{ n atomic.Int64 }

type countingListener struct {
	net.Listener
	accepts *acceptCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.n.Add(1)
	}
	return c, err
}

// startCountedReplicas serves 2 parties × 2 replicas of db through
// listeners that count into accepts, and returns the deployment and the
// servers in (party, replica) order. Replica 0 of party 0 accepts wire
// updates only when allowUpdates0 is set.
func startCountedReplicas(t *testing.T, db *DB, accepts *acceptCounter, allowUpdates0 bool) (Deployment, []*Server) {
	t.Helper()
	addrs := make([]string, 4)
	servers := make([]*Server, 4)
	for i := range servers {
		srv, err := NewServer(ServerConfig{Engine: EngineCPU, Threads: 2, AllowWireUpdates: i != 0 || allowUpdates0})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Load(db.Clone()); err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(countingListener{lis, accepts}, uint8(i/2)); err != nil {
			t.Fatal(err)
		}
		addrs[i], servers[i] = srv.Addr().String(), srv
	}
	return ReplicatedDeployment(addrs[:2], addrs[2:]), servers
}

// TestHedgedCallsDoNotRedial: on 2 parties × 2 replicas, 200 Retrieves
// hedged at a 1 ns floor abandon every losing exchange, and no loser
// costs its connection: the servers accept only the 4 connections Open
// dialed, and every record is right.
func TestHedgedCallsDoNotRedial(t *testing.T) {
	db, _ := GenerateHashDB(256, 54)
	var accepts acceptCounter
	d, _ := startCountedReplicas(t, db, &accepts, true)
	ctx := context.Background()
	store := openFromJSON(t, ctx, d, WithDefaultCallOptions(WithHedging(true), WithHedgeDelay(time.Nanosecond)))
	for i := 0; i < 200; i++ {
		idx := uint64(i * 7 % db.NumRecords())
		rec, err := store.Retrieve(ctx, idx)
		if err != nil {
			t.Fatalf("Retrieve %d: %v", i, err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("Retrieve %d: record %d is wrong", i, idx)
		}
	}
	st := store.Stats()
	t.Logf("%d hedges, %d won by the hedge", st.Hedges, st.HedgeWins)
	if st.Hedges == 0 {
		t.Fatal("no call hedged: the fixture tests nothing")
	}
	if n := accepts.n.Load(); n != 4 {
		t.Fatalf("the servers accepted %d connections, want the 4 Open dialed", n)
	}
}

// TestFailedUpdateReadsEveryAck: on 2 parties × 2 replicas whose replica
// 0 of party 0 refuses wire updates, an Update fails naming that replica
// alone, after every other replica acknowledged the new bytes — and the
// acknowledgements it read leave every connection usable, so the next
// Retrieve, once the replicas converge, dials nothing.
func TestFailedUpdateReadsEveryAck(t *testing.T) {
	db, _ := GenerateHashDB(256, 55)
	var accepts acceptCounter
	d, servers := startCountedReplicas(t, db, &accepts, false)
	ctx := context.Background()
	store := openFromJSON(t, ctx, d)

	const idx = 9
	fresh := bytes.Repeat([]byte{0x5A}, db.RecordSize())
	err := store.Update(ctx, map[uint64][]byte{idx: fresh})
	if err == nil {
		t.Fatal("an update that replica 0 of party 0 refused succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 0 party 0 replica 0") || strings.Count(msg, "replica") != 1 {
		t.Fatalf("Update error %q, want one naming shard 0 party 0 replica 0 alone", msg)
	}
	for i, srv := range servers {
		want := fresh
		if i == 0 {
			want = db.Record(idx)
		}
		if !bytes.Equal(srv.Database().Record(idx), want) {
			t.Errorf("server %d (party %d replica %d) holds %x, want %x", i, i/2, i%2, srv.Database().Record(idx), want)
		}
	}
	// Diverged replicas reconstruct garbage; converge them in-process,
	// off the wire, before reading.
	if err := servers[0].Update(map[uint64][]byte{idx: fresh}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Retrieve(ctx, 100)
	if err != nil || !bytes.Equal(rec, db.Record(100)) {
		t.Fatalf("Retrieve after the failed update = %x, %v", rec, err)
	}
	if n := accepts.n.Load(); n != 4 {
		t.Fatalf("the servers accepted %d connections, want the 4 Open dialed", n)
	}
}
