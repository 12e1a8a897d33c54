package impir

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// slowProxy forwards TCP to backend, delaying every backend→client
// chunk by delay — a network-slow replica in front of a perfectly
// healthy server, so the server's own traces stay honest.
func slowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				defer c.Close()
				defer b.Close()
				io.Copy(b, c)
			}()
			go func() {
				defer c.Close()
				defer b.Close()
				buf := make([]byte, 32<<10)
				for {
					n, rerr := b.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if rerr != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// startTracedDeployment builds the acceptance topology over real TCP:
// 2 shards × 2 parties; shard 0's party 0 runs two replicas, the
// primary slowed by slowDelay through a TCP proxy (a hedging target).
// Returns the deployment and every server handle for ring inspection.
func startTracedDeployment(t *testing.T, db *DB, slowDelay time.Duration) (Deployment, []*Server) {
	t.Helper()
	parts, err := SplitDB(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	var servers []*Server
	serve := func(part *DB, party uint8) string {
		srv, err := NewServer(ServerConfig{Engine: EngineCPU, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Load(part.Clone()); err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(lis, party); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		return srv.Addr().String()
	}

	var shards []DeploymentShard
	first := uint64(0)
	for s, part := range parts {
		var parties []Party
		for party := 0; party < 2; party++ {
			var addrs []string
			if s == 0 && party == 0 {
				// Slow primary FIRST so a cold client picks it; the
				// fast second replica wins the hedge.
				addrs = []string{slowProxy(t, serve(part, 0), slowDelay), serve(part, 0)}
			} else {
				addrs = []string{serve(part, uint8(party))}
			}
			parties = append(parties, Party{Replicas: addrs})
		}
		shards = append(shards, DeploymentShard{
			FirstRecord: first,
			NumRecords:  uint64(part.NumRecords()),
			Parties:     parties,
		})
		first += uint64(part.NumRecords())
	}
	return Deployment{RecordSize: db.RecordSize(), Shards: shards}, servers
}

// collectSpans flattens a span tree, depth first.
func collectSpans(sn TraceSnapshot) []TraceSnapshot {
	out := []TraceSnapshot{sn}
	for _, c := range sn.Children {
		out = append(out, collectSpans(c)...)
	}
	return out
}

// TestDistributedTracingE2E is the acceptance fixture for end-to-end
// tracing: a retrieval against a sharded, replicated, hedged deployment
// over real TCP yields one client span tree whose per-attempt children
// link — by party-local span ID and nothing else — to traces in the
// individual servers' ring buffers, with the hedge loser's cancellation
// and the servers' queue/engine stage times visible. No two servers
// ever receive the same span ID.
func TestDistributedTracingE2E(t *testing.T) {
	const (
		slowDelay  = 300 * time.Millisecond
		hedgeFloor = 15 * time.Millisecond
	)
	db, err := GenerateHashDB(256, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, servers := startTracedDeployment(t, db, slowDelay)

	observer := NewObserver(ObserverConfig{SampleRate: 1})
	store, err := Open(ctx, d, observer.Option(),
		WithDefaultCallOptions(WithHedging(true), WithHedgeDelay(hedgeFloor)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const idx = 17 // shard 0: exercises the hedged party
	rec, err := store.Retrieve(ctx, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, db.Record(idx)) {
		t.Fatal("wrong record")
	}

	traces := observer.RecentTraces(0)
	if len(traces) != 1 {
		t.Fatalf("observer ring holds %d traces, want 1", len(traces))
	}
	root := traces[0]
	if root.Name != "retrieve" {
		t.Fatalf("root span = %q, want retrieve", root.Name)
	}
	if v, _ := root.Attr("sampled"); v != "true" {
		t.Fatalf("root sampled attr = %q", v)
	}

	// Tree shape: root → 2 shard spans (one dummy) → 2 party spans each
	// → attempt spans.
	var shardSpans, partySpans, attempts []TraceSnapshot
	for _, sn := range collectSpans(root) {
		switch sn.Name {
		case "shard":
			shardSpans = append(shardSpans, sn)
		case "party":
			partySpans = append(partySpans, sn)
		case "attempt":
			attempts = append(attempts, sn)
		}
	}
	if len(shardSpans) != 2 {
		t.Fatalf("%d shard spans, want 2", len(shardSpans))
	}
	dummies := 0
	for _, sn := range shardSpans {
		if v, _ := sn.Attr("dummy"); v == "true" {
			dummies++
		}
	}
	if dummies != 1 {
		t.Fatalf("%d dummy shard spans, want exactly 1 (the non-owner)", dummies)
	}
	if len(partySpans) != 4 {
		t.Fatalf("%d party spans, want 2 shards × 2 parties", len(partySpans))
	}
	// Hedging fired on the slowed party: its span records the delay and
	// the fast replica as winner.
	var hedged *TraceSnapshot
	for i := range partySpans {
		if _, ok := partySpans[i].Attr("hedge_delay"); ok {
			hedged = &partySpans[i]
		}
	}
	if hedged == nil {
		t.Fatal("no party span carries hedge_delay — hedging never engaged")
	}
	if v, _ := hedged.Attr("winner_replica"); v != "1" {
		t.Fatalf("winner_replica = %q, want the fast replica 1", v)
	}

	// Every attempt carries an independent random span ID — distinct
	// across replicas, parties, and shards.
	if len(attempts) < 5 { // 3 single-replica parties + 2 hedge attempts
		t.Fatalf("%d attempt spans, want at least 5", len(attempts))
	}
	seen := map[string]bool{}
	for _, att := range attempts {
		if att.SpanID == "" || seen[att.SpanID] {
			t.Fatalf("attempt span ID %q missing or reused", att.SpanID)
		}
		seen[att.SpanID] = true
	}

	// The hedge loser is visibly cancelled. The loser ends its span
	// asynchronously after Retrieve returns, so poll the live tree.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lost := 0
		for _, sn := range collectSpans(observer.RecentTraces(0)[0]) {
			if v, _ := sn.Attr("outcome"); sn.Name == "attempt" && v == "lost" {
				if c, _ := sn.Attr("cancelled"); c != "true" {
					t.Fatalf("lost attempt not marked cancelled: %+v", sn.Attrs)
				}
				lost++
			}
		}
		if lost == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hedge loser never recorded outcome=lost (%d)", lost)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Cross-linkage: every winning attempt's span ID appears as the
	// trace_id of exactly one server's ring entry, and that server-side
	// trace exposes its queue/engine stages. The ring entry is added
	// after the response is written, so poll briefly.
	ringIDs := func() map[string]TraceSnapshot {
		out := map[string]TraceSnapshot{}
		for i, srv := range servers {
			for _, sn := range srv.RecentTraces(0) {
				if prev, dup := out[sn.SpanID]; dup {
					t.Fatalf("span ID %s reached two servers (%q and %q) — linkable by collusion",
						sn.SpanID, prev.Name, sn.Name)
				}
				_ = i
				out[sn.SpanID] = sn
			}
		}
		return out
	}
	okAttempts := map[string]bool{}
	for _, att := range attempts {
		if v, _ := att.Attr("outcome"); v == "ok" {
			okAttempts[att.SpanID] = true
		}
	}
	if len(okAttempts) < 4 {
		t.Fatalf("%d winning attempts, want at least 4 (one per party per shard)", len(okAttempts))
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		rings := ringIDs()
		missing := 0
		for id := range okAttempts {
			if _, ok := rings[id]; !ok {
				missing++
			}
		}
		if missing == 0 {
			for id := range okAttempts {
				sn := rings[id]
				stages := map[string]bool{}
				for _, c := range sn.Children {
					stages[c.Name] = true
				}
				if !stages["queue"] || !stages["engine"] {
					t.Fatalf("server trace %s lacks queue/engine stages: %+v", id, sn.Children)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d attempt span IDs never appeared in any server ring", missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracingDisabledByDefault: without an Observer the same deployment
// serves retrievals with empty server rings — nothing is traced unless
// asked for.
func TestTracingDisabledByDefault(t *testing.T) {
	db, err := GenerateHashDB(128, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d, servers := startTracedDeployment(t, db, 0)
	store, err := Open(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Retrieve(ctx, 3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for i, srv := range servers {
		if n := len(srv.RecentTraces(0)); n != 0 {
			t.Fatalf("server %d ringed %d traces with tracing off", i, n)
		}
	}
}

// TestSlowThresholdTracingSendsUnsampled: a client tracing only for its
// slow threshold traces every operation locally but head-samples none,
// so its wire trace contexts say unsampled and the servers ring nothing.
func TestSlowThresholdTracingSendsUnsampled(t *testing.T) {
	db, err := GenerateHashDB(128, 9)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startShardCohort(t, db, 2)
	ctx := context.Background()
	observer := NewObserver(ObserverConfig{SlowThreshold: time.Hour})
	store, err := Open(ctx, FlatDeployment(addrs...), observer.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := uint64(0); i < 10; i++ {
		if _, err := store.Retrieve(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(observer.RecentTraces(0)); n != 0 {
		t.Fatalf("client ringed %d fast unsampled traces", n)
	}
	time.Sleep(50 * time.Millisecond)
	for i, srv := range servers {
		if n := len(srv.RecentTraces(0)); n != 0 {
			t.Fatalf("server %d ringed %d traces the client never sampled", i, n)
		}
	}
}
