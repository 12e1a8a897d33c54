package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/scheduler"
)

// countingConn counts the Write calls made on a connection. The count
// is taken before the write, so once the peer has read a frame its
// writer's count already includes it.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener wraps every accepted connection in a countingConn
// that shares one counter.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: &l.writes}, nil
}

// busyDispatcher answers every query frame with scheduler.ErrBusy
// while busy is set, so a test can provoke a MsgBusy reply on demand.
type busyDispatcher struct {
	*scheduler.Scheduler
	busy atomic.Bool
}

func (d *busyDispatcher) Query(ctx context.Context, frame pirproto.MsgType, in dpf.Batch) ([][]byte, metrics.BatchStats, error) {
	if d.busy.Load() {
		return nil, metrics.BatchStats{}, scheduler.ErrBusy
	}
	return d.Scheduler.Query(ctx, frame, in)
}

// TestOneWritePerFrame pins the framing fix: every frame a client Conn
// sends and every reply the server writes — header and payload — leaves
// in exactly one Write, with the trace extension on. A frame written as
// header then payload costs each hop an extra segment and syscall. A
// busy rejection of each query frame is one MsgBusy reply, reaches the
// client as ErrServerBusy, and counts under that frame's label.
func TestOneWritePerFrame(t *testing.T) {
	t.Run("v2-traced", func(t *testing.T) {
		sched, db := newDispatcher(t, 256, scheduler.Config{})
		d := &busyDispatcher{Scheduler: sched}
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis := &countingListener{Listener: inner}
		m := obs.NewServerMetrics(obs.NewRegistry())
		srv, err := NewServer(lis, d, 0, WithLogf(t.Logf), WithWireUpdates(), WithObserver(m))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })

		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var clientWrites atomic.Int64
		conn, err := handshake(context.Background(), countingConn{Conn: nc, writes: &clientWrites})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if got, want := clientWrites.Load(), int64(1); got != want {
			t.Fatalf("hello: client made %d writes, want %d", got, want)
		}
		if got, want := lis.writes.Load(), int64(1); got != want {
			t.Fatalf("server-info: server made %d writes, want %d", got, want)
		}
		ctx := ContextWithTrace(context.Background(), obs.NewSpanID(), true)
		k0, _ := genPair(t, db.Domain(), 5)
		badKey, _ := genPair(t, 3, 0)
		share := bitvec.New(db.NumRecords())
		share.Set(5)
		shares := dpf.Batch{Shares: []*bitvec.Vector{share, share}}
		busy := func(frame pirproto.MsgType, in dpf.Batch) func() error {
			return func() error {
				d.busy.Store(true)
				defer d.busy.Store(false)
				_, err := conn.Exchange(ctx, frame, in)
				if !errors.Is(err, ErrServerBusy) {
					t.Errorf("busy %v: err = %v, want ErrServerBusy", frame, err)
				}
				return err
			}
		}

		exchanges := []struct {
			name    string
			wantErr bool
			do      func() error
		}{
			{"query", false, func() error { _, err := conn.Query(ctx, k0); return err }},
			{"batch", false, func() error { _, err := conn.QueryBatch(ctx, []*dpf.Key{k0, k0, k0}); return err }},
			{"share", false, func() error {
				_, err := conn.Exchange(ctx, pirproto.MsgShareQuery, dpf.Batch{Shares: shares.Shares[:1]})
				return err
			}},
			{"share-batch", false, func() error { _, err := conn.Exchange(ctx, pirproto.MsgShareBatchQuery, shares); return err }},
			{"update", false, func() error {
				return conn.Update(ctx, map[uint64][]byte{9: bytes.Repeat([]byte{7}, db.RecordSize())})
			}},
			{"error", true, func() error { _, err := conn.Query(ctx, badKey); return err }},
			{"busy", true, busy(pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{k0}})},
			{"busy-batch", true, busy(pirproto.MsgBatchQuery, dpf.Batch{Keys: []*dpf.Key{k0, k0, k0}})},
			{"busy-share", true, busy(pirproto.MsgShareQuery, dpf.Batch{Shares: shares.Shares[:1]})},
			{"busy-share-batch", true, busy(pirproto.MsgShareBatchQuery, shares)},
		}
		for _, ex := range exchanges {
			c0, s0 := clientWrites.Load(), lis.writes.Load()
			err := ex.do()
			if (err != nil) != ex.wantErr {
				t.Fatalf("%s: err = %v, want error %v", ex.name, err, ex.wantErr)
			}
			if got := clientWrites.Load() - c0; got != 1 {
				t.Errorf("%s: client made %d writes for one frame, want 1", ex.name, got)
			}
			if got := lis.writes.Load() - s0; got != 1 {
				t.Errorf("%s: server made %d writes for one reply, want 1", ex.name, got)
			}
		}
		var text bytes.Buffer
		if err := m.Registry.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseText(&text)
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range []string{"query", "batch", "share", "share_batch"} {
			if got := samples[`impir_busy_rejects_total{frame="`+frame+`"}`]; got != 1 {
				t.Errorf("busy rejects of %s frames = %v, want 1", frame, got)
			}
		}
	})
}

// TestDialDuringUpdateDigest dials repeatedly while updates apply. The
// hello's digest must never read the database mid-update (the race
// detector reports it if it does), and a dial after an update must
// report the updated database's digest, not a cached stale one.
func TestDialDuringUpdateDigest(t *testing.T) {
	sched, db := newDispatcher(t, 4096, scheduler.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, sched, 0, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	dial := func() pirproto.ServerInfo {
		t.Helper()
		c, err := Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.Info()
	}
	update := func(i int) {
		rec := bytes.Repeat([]byte{byte(i + 1)}, db.RecordSize())
		if err := sched.Update(map[uint64][]byte{uint64(i % db.NumRecords()): rec}); err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}
	before := dial()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			update(i)
		}
	}()
	for i := 0; i < 50; i++ {
		dial()
	}
	wg.Wait()

	// The dials above cached a digest for some epoch; one more update
	// must invalidate it.
	dial()
	update(200)
	after := dial()
	if after.Digest == before.Digest {
		t.Fatal("dial after updates reports the pre-update digest")
	}
	if want := sched.Database().Digest(); after.Digest != want {
		t.Fatal("dial after updates does not report the updated database's digest")
	}
}

// TestPipelinedFramesAnswerInOrder writes 64 MsgQuery frames, with one
// MsgBatchQuery and one MsgUpdate among them, back to back in one Write
// on one raw connection, then reads the replies. A server answers a
// connection's frames strictly in order: every reply arrives in the
// order of its frame, each query's is byte-equal to its one-at-a-time
// answer, and the queries after the update see the updated record.
func TestPipelinedFramesAnswerInOrder(t *testing.T) {
	const queries, batchAt, updateAt = 64, 16, 40
	srv, db := startServer(t, 256, 0, WithWireUpdates())
	ctx := context.Background()
	conn, err := Dial(ctx, srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	keys := make([]*dpf.Key, queries)
	for i := range keys {
		keys[i], _ = genPair(t, db.Domain(), uint64(i*3))
	}
	batch := keys[:3]
	oneAtATime := func() ([][]byte, [][]byte) {
		t.Helper()
		answers := make([][]byte, queries)
		for i, k := range keys {
			if answers[i], err = conn.Query(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
		batched, err := conn.QueryBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		return answers, batched
	}
	before, batchBefore := oneAtATime()

	const updated = 30 // a record half the keys' shares select
	updates := map[uint64][]byte{updated: bytes.Repeat([]byte{0xAB}, db.RecordSize())}
	// The frames in write order: queries, with the batch before query
	// batchAt and the update before query updateAt.
	var frames []byte
	var kinds []pirproto.MsgType
	add := func(typ pirproto.MsgType, payload []byte, err error) {
		t.Helper()
		start := len(frames)
		frames = append(pirproto.BeginFrame(frames, typ, 0), payload...)
		if err == nil {
			err = pirproto.EndFrame(frames[start:])
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, typ)
	}
	for i, k := range keys {
		var payload []byte
		switch i {
		case batchAt:
			payload, err = pirproto.AppendQuery(nil, pirproto.MsgBatchQuery, dpf.Batch{Keys: batch})
			add(pirproto.MsgBatchQuery, payload, err)
		case updateAt:
			payload, err = pirproto.MarshalUpdate(updates)
			add(pirproto.MsgUpdate, payload, err)
		}
		payload, err = pirproto.AppendQuery(nil, pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{k}})
		add(pirproto.MsgQuery, payload, err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if err := pirproto.WriteFrame(nc, pirproto.MsgHello, []byte{pirproto.Version}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := pirproto.ReadFrame(br); err != nil || typ != pirproto.MsgServerInfo {
		t.Fatalf("hello: %v %v", typ, err)
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	replies := make([][]byte, 0, queries)
	for i, kind := range kinds {
		typ, payload, err := pirproto.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		switch kind {
		case pirproto.MsgQuery:
			if typ != pirproto.MsgQueryResp {
				t.Fatalf("reply %d to a query is %v: %s", i, typ, payload)
			}
			replies = append(replies, payload)
		case pirproto.MsgBatchQuery:
			got, err := pirproto.ParseBatch(payload)
			if typ != pirproto.MsgBatchResp || err != nil {
				t.Fatalf("reply %d to the batch is %v (%v)", i, typ, err)
			}
			for j := range got {
				if !bytes.Equal(got[j], batchBefore[j]) {
					t.Fatalf("batch reply item %d differs from its one-at-a-time answer", j)
				}
			}
		case pirproto.MsgUpdate:
			if typ != pirproto.MsgUpdateOK {
				t.Fatalf("reply %d to the update is %v: %s", i, typ, payload)
			}
		}
	}

	after, _ := oneAtATime()
	changed := 0
	for i := range replies {
		want := before[i]
		if i >= updateAt {
			want = after[i]
		}
		if !bytes.Equal(replies[i], want) {
			t.Fatalf("query %d's pipelined reply differs from its one-at-a-time answer", i)
		}
		if !bytes.Equal(before[i], after[i]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no key selects the updated record: the update's place in the order went unchecked")
	}
}
