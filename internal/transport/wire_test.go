package transport

import (
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
// in exactly one Write, on a version-2 connection carrying the trace
// extension and on a version-1 connection alike. A frame written as
// header then payload costs each hop an extra segment and syscall. A
// busy rejection of each query frame is one MsgBusy reply, reaches the
// client as ErrServerBusy, and counts under that frame's label.
func TestOneWritePerFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version uint8
	}{
		{"v2-traced", pirproto.Version},
		{"v1", pirproto.VersionLegacy},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			// A connection that negotiated version 1 never attaches the
			// trace extension; the server replies the same either way.
			conn.version = tc.version

			ctx := context.Background()
			if tc.version >= pirproto.Version {
				ctx = ContextWithTrace(ctx, obs.NewSpanID(), true)
			}
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
}

// TestLegacyRetryHelloIsOneWriteEach: against a version-1 server the
// client says hello twice on one stream — each hello is one Write, and
// the downgraded connection's queries stay at one Write per frame.
func TestLegacyRetryHelloIsOneWriteEach(t *testing.T) {
	fs := startFakeServer(t, func(v byte) bool { return v == pirproto.VersionLegacy })
	nc, err := net.Dial("tcp", fs.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	conn, err := handshake(context.Background(), countingConn{Conn: nc, writes: &writes})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Version() != pirproto.VersionLegacy {
		t.Fatalf("negotiated version %d, want %d", conn.Version(), pirproto.VersionLegacy)
	}
	if got := writes.Load(); got != 2 {
		t.Fatalf("two hellos took %d writes, want 2", got)
	}
	k0, _ := genPair(t, 8, 3)
	if _, err := conn.Query(context.Background(), k0); err != nil {
		t.Fatal(err)
	}
	if got := writes.Load(); got != 3 {
		t.Fatalf("query after downgrade: %d writes in total, want 3", got)
	}
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
