package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/naivepir"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/scheduler"
)

// newDispatcher builds the standard server-side stack under test: a
// small CPU engine behind a scheduler.
func newDispatcher(t *testing.T, numRecords int, cfg scheduler.Config) (*scheduler.Scheduler, *database.DB) {
	t.Helper()
	cpu, err := engine.NewCPUPricer(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	db, err := database.GenerateHashDB(numRecords, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	return newScheduler(t, eng, cfg), db
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

func startServer(t *testing.T, numRecords int, party uint8, opts ...ServerOption) (*Server, *database.DB) {
	t.Helper()
	sched, db := newDispatcher(t, numRecords, scheduler.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, sched, party, append([]ServerOption{WithLogf(t.Logf)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, db
}

func genPair(t *testing.T, domain int, idx uint64) (*dpf.Key, *dpf.Key) {
	t.Helper()
	k0, k1, err := dpf.Gen(dpf.Params{Domain: domain}, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k0, k1
}

func TestHandshakeInfo(t *testing.T) {
	srv, db := startServer(t, 256, 1)
	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	info := conn.Info()
	if info.Party != 1 {
		t.Errorf("party = %d, want 1", info.Party)
	}
	if info.NumRecords != 256 || info.RecordSize != 32 || info.Domain != 8 {
		t.Errorf("info = %+v", info)
	}
	if info.Digest != db.PadToPowerOfTwo().Digest() {
		t.Error("digest mismatch")
	}
}

func TestTwoServerQueryOverTCP(t *testing.T) {
	srv0, db := startServer(t, 512, 0)
	srv1, _ := startServer(t, 512, 1)
	c0, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(context.Background(), srv1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	const idx = 77
	k0, k1 := genPair(t, db.Domain(), idx)
	r0, err := c0.Query(context.Background(), k0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Query(context.Background(), k1)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, len(r0))
	for i := range rec {
		rec[i] = r0[i] ^ r1[i]
	}
	if !bytes.Equal(rec, db.Record(idx)) {
		t.Fatal("TCP reconstruction failed")
	}
}

func TestBatchOverTCP(t *testing.T) {
	srv0, db := startServer(t, 256, 0)
	conn, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	keys := make([]*dpf.Key, 5)
	for i := range keys {
		keys[i], _ = genPair(t, db.Domain(), uint64(i*13))
	}
	results, err := conn.QueryBatch(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(keys) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r) != 32 {
			t.Fatalf("result size %d", len(r))
		}
	}
}

func TestSequentialQueriesOnOneConnection(t *testing.T) {
	srv0, db := startServer(t, 128, 0)
	conn, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		k0, _ := genPair(t, db.Domain(), uint64(i*11))
		if _, err := conn.Query(context.Background(), k0); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv0, db := startServer(t, 128, 0)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Dial(context.Background(), srv0.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			k0, _ := genPair(t, db.Domain(), uint64(i))
			_, errs[i] = conn.Query(context.Background(), k0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// TestConcurrentExchangesShareOneConn: 8 goroutines share one
// connection per server of a pair, each reconstructing records from its
// own exchanges while the others' are in flight, and every third
// iteration abandoning both halves of one unread. Every reply reaches
// its own exchange, the abandoned ones are drained, and neither
// connection breaks.
func TestConcurrentExchangesShareOneConn(t *testing.T) {
	srv0, db := startServer(t, 256, 0)
	srv1, _ := startServer(t, 256, 1)
	ctx := context.Background()
	conns := make([]*Conn, 2)
	for p, srv := range []*Server{srv0, srv1} {
		conn, err := Dial(ctx, srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[p] = conn
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx := uint64(g*25+i) % 256
				k0, k1 := genPair(t, db.Domain(), idx)
				var xs [2]*Pending
				for p, k := range []*dpf.Key{k0, k1} {
					var err error
					if xs[p], err = conns[p].Send(ctx, pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{k}}); err != nil {
						t.Errorf("goroutine %d: send %d: %v", g, i, err)
						return
					}
				}
				if i%3 == 2 {
					continue // abandoned: the next readers drain both replies
				}
				rec := make([]byte, db.RecordSize())
				for p, x := range xs {
					r, err := x.Recv(ctx)
					if err != nil {
						t.Errorf("goroutine %d: recv %d from party %d: %v", g, i, p, err)
						return
					}
					for j := range rec {
						rec[j] ^= r[0][j]
					}
				}
				if !bytes.Equal(rec, db.Record(int(idx))) {
					t.Errorf("goroutine %d: record %d reconstructed wrong: a reply reached another exchange", g, idx)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p, conn := range conns {
		if conn.Broken() {
			t.Errorf("party %d's shared connection broke", p)
		}
	}
}

func TestServerRejectsBadKey(t *testing.T) {
	srv0, db := startServer(t, 128, 0)
	conn, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Wrong domain: valid key, wrong database.
	k0, _ := genPair(t, 3, 0)
	if _, err := conn.Query(context.Background(), k0); err == nil || !strings.Contains(err.Error(), "server error") {
		t.Fatalf("wrong-domain key: err = %v, want server error", err)
	}

	// The connection must survive the error and serve good queries.
	good, _ := genPair(t, db.Domain(), 1)
	if _, err := conn.Query(context.Background(), good); err != nil {
		t.Fatalf("connection unusable after server error: %v", err)
	}
}

func TestServerRejectsGarbageFrames(t *testing.T) {
	srv0, _ := startServer(t, 128, 0)
	// Raw TCP: send garbage that is not a valid frame.
	nc, err := net.Dial("tcp", srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Server must drop the connection: read should reach EOF.
	buf := make([]byte, 16)
	nc.Read(buf) // ignore result; just ensure no hang
}

func TestServerRejectsMalformedKeyBytes(t *testing.T) {
	srv0, _ := startServer(t, 128, 0)
	nc, err := net.Dial("tcp", srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := pirproto.WriteFrame(nc, pirproto.MsgQuery, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := pirproto.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pirproto.MsgError {
		t.Fatalf("frame = %v (%q), want error", typ, payload)
	}
}

func TestShareQueryOverTCP(t *testing.T) {
	srv0, db := startServer(t, 256, 0)
	srv1, _ := startServer(t, 256, 1)
	c0, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(context.Background(), srv1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	const idx = 123
	q, err := naivepir.Gen(nil, 256, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := c0.Exchange(context.Background(), pirproto.MsgShareQuery, dpf.Batch{Shares: q.Shares[:1]})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Exchange(context.Background(), pirproto.MsgShareQuery, dpf.Batch{Shares: q.Shares[1:2]})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, len(r0[0]))
	for i := range rec {
		rec[i] = r0[0][i] ^ r1[0][i]
	}
	if !bytes.Equal(rec, db.Record(idx)) {
		t.Fatal("share-query reconstruction over TCP failed")
	}
}

func TestShareQueryRejectsBadShare(t *testing.T) {
	srv0, _ := startServer(t, 256, 0)
	conn, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Wrong length: share for a different database size.
	wrong := bitvec.New(64)
	if _, err := conn.Exchange(context.Background(), pirproto.MsgShareQuery, dpf.Batch{Shares: []*bitvec.Vector{wrong}}); err == nil || !strings.Contains(err.Error(), "server error") {
		t.Fatalf("mis-sized share: err = %v", err)
	}

	// Malformed payload straight onto the wire.
	nc, err := net.Dial("tcp", srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := pirproto.WriteFrame(nc, pirproto.MsgShareQuery, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := pirproto.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pirproto.MsgError {
		t.Fatalf("frame = %v, want error", typ)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	srv0, _ := startServer(t, 128, 0)
	nc, err := net.Dial("tcp", srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := pirproto.WriteFrame(nc, pirproto.MsgHello, []byte{99}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := pirproto.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pirproto.MsgError {
		t.Fatalf("frame = %v, want error", typ)
	}
}

func TestNewServerValidation(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, err := NewServer(lis, nil, 0); err == nil {
		t.Error("NewServer accepted nil dispatcher")
	}
	cpu, _ := engine.NewCPUPricer(0)
	eng := engine.New(cpu)
	if _, err := NewServer(lis, newScheduler(t, eng, scheduler.Config{}), 0); err == nil {
		t.Error("NewServer accepted dispatcher without database")
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv0, _ := startServer(t, 128, 0)
	if err := srv0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv0.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Dial(context.Background(), srv0.Addr().String()); err == nil {
		t.Fatal("Dial succeeded after Close")
	}
}

func TestShareBatchOverTCP(t *testing.T) {
	srv0, db := startServer(t, 256, 0)
	srv1, _ := startServer(t, 256, 1)
	c0, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(context.Background(), srv1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	indices := []uint64{3, 99, 200}
	shares0 := make([]*bitvec.Vector, len(indices))
	shares1 := make([]*bitvec.Vector, len(indices))
	for i, idx := range indices {
		q, err := naivepir.Gen(nil, 256, idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		shares0[i], shares1[i] = q.Shares[0], q.Shares[1]
	}
	r0, err := c0.Exchange(context.Background(), pirproto.MsgShareBatchQuery, dpf.Batch{Shares: shares0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Exchange(context.Background(), pirproto.MsgShareBatchQuery, dpf.Batch{Shares: shares1})
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
}

func TestShareBatchRejectsEmpty(t *testing.T) {
	srv0, _ := startServer(t, 128, 0)
	nc, err := net.Dial("tcp", srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	payload, _ := pirproto.MarshalBatch(nil)
	if err := pirproto.WriteFrame(nc, pirproto.MsgShareBatchQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, _, err := pirproto.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pirproto.MsgError {
		t.Fatalf("frame = %v, want error", typ)
	}
}

// scriptedPeer accepts one connection, answers its hello with a server
// info of 32-byte records, and hands the connection to script.
func scriptedPeer(t *testing.T, script func(nc net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, _, err := pirproto.ReadFrame(nc); err != nil {
			return
		}
		info := pirproto.ServerInfo{Domain: 7, RecordSize: 32, NumRecords: 128}
		pirproto.WriteFrame(nc, pirproto.MsgServerInfo, info.Marshal())
		script(nc)
	}()
	return lis.Addr().String()
}

// TestQueryDeadlineLeavesConnUsable: a query whose deadline passes
// before any byte of its reply arrives gives up promptly, and leaves the
// stream where it was. The peer answers the swallowed query late; the
// next query drops that reply and gets its own, on the same connection.
func TestQueryDeadlineLeavesConnUsable(t *testing.T) {
	late, own := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)
	addr := scriptedPeer(t, func(nc net.Conn) {
		if _, _, err := pirproto.ReadFrame(nc); err != nil {
			return
		}
		time.Sleep(300 * time.Millisecond)
		pirproto.WriteFrame(nc, pirproto.MsgQueryResp, late)
		if _, _, err := pirproto.ReadFrame(nc); err != nil {
			return
		}
		pirproto.WriteFrame(nc, pirproto.MsgQueryResp, own)
		pirproto.ReadFrame(nc) // until the client closes
	})
	conn, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	k0, _ := genPair(t, 7, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.Query(ctx, k0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	if conn.Broken() {
		t.Fatal("a deadline that passed before the reply broke the connection")
	}
	rec, err := conn.Query(context.Background(), k0)
	if err != nil {
		t.Fatalf("next query: %v", err)
	}
	if !bytes.Equal(rec, own) {
		t.Fatalf("next query got %x, want its own reply %x, not the abandoned one's", rec, own)
	}
	if conn.Broken() {
		t.Fatal("connection broken after the next query")
	}
}

// TestReplyCutOffMidFrameBreaksConn: a deadline that passes in the middle
// of a reply frame loses the stream position. The connection breaks, and
// the next query fails fast — without replaying the first call's context
// error, which a caller with a healthy context would misread as its own
// timeout.
func TestReplyCutOffMidFrameBreaksConn(t *testing.T) {
	addr := scriptedPeer(t, func(nc net.Conn) {
		if _, _, err := pirproto.ReadFrame(nc); err != nil {
			return
		}
		var frame bytes.Buffer
		pirproto.WriteFrame(&frame, pirproto.MsgQueryResp, make([]byte, 32))
		nc.Write(frame.Bytes()[:frame.Len()/2])
		pirproto.ReadFrame(nc) // stall until the client closes
	})
	conn, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	k0, _ := genPair(t, 7, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := conn.Query(ctx, k0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query = %v, want deadline exceeded", err)
	}
	if !conn.Broken() {
		t.Fatal("a reply cut off mid-frame left the connection usable")
	}
	start := time.Now()
	_, err = conn.Query(context.Background(), k0)
	if err == nil {
		t.Fatal("broken connection accepted another query")
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("broken-conn error %v replays the original context error", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("query on a broken connection took %v", time.Since(start))
	}
}

func TestDialContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A routable-but-never-accepting target would hang without ctx.
	if _, err := Dial(ctx, "10.255.255.1:9"); err == nil {
		t.Fatal("Dial succeeded with a cancelled context")
	}
}

// TestBusyPropagatesOverWire: a full admission queue must reach the
// client as ErrServerBusy — promptly, and without poisoning the
// connection.
func TestBusyPropagatesOverWire(t *testing.T) {
	sched, db := newDispatcher(t, 128, scheduler.Config{QueueDepth: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, sched, 0, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Saturate the scheduler: occupy the dispatcher and fill the queue
	// with direct submissions that never complete quickly.
	k0, _ := genPair(t, db.PadToPowerOfTwo().Domain(), 1)
	blockCtx, blockCancel := context.WithCancel(context.Background())
	defer blockCancel()
	slow := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			keys := make([]*dpf.Key, 64)
			for j := range keys {
				keys[j] = k0
			}
			for {
				_, _, err := sched.Query(blockCtx, pirproto.MsgBatchQuery, dpf.Batch{Keys: keys})
				if blockCtx.Err() != nil {
					slow <- struct{}{}
					return
				}
				_ = err // the saturators may bounce off the queue themselves
			}
		}()
	}

	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// With the queue saturated by the two loops above, wire queries must
	// sooner or later bounce with ErrServerBusy.
	deadline := time.Now().Add(5 * time.Second)
	sawBusy := false
	for time.Now().Before(deadline) {
		start := time.Now()
		_, err := conn.Query(context.Background(), k0)
		if errors.Is(err, ErrServerBusy) {
			sawBusy = true
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("busy rejection took %v — not prompt", elapsed)
			}
			break
		}
		if err != nil {
			t.Fatalf("unexpected error while hunting for busy: %v", err)
		}
	}
	if !sawBusy {
		t.Fatal("never saw ErrServerBusy despite a saturated 1-deep queue")
	}

	// The connection survives the rejection: stop the saturators and
	// verify a normal query still works on the same conn.
	blockCancel()
	<-slow
	<-slow
	var ok bool
	for i := 0; i < 50; i++ {
		if _, err := conn.Query(context.Background(), k0); err == nil {
			ok = true
			break
		} else if !errors.Is(err, ErrServerBusy) {
			t.Fatalf("conn unusable after busy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatal("connection never recovered after busy rejections")
	}
}

// TestShutdownDrains: Shutdown must finish the request being dispatched
// and write its response before closing the connection.
func TestShutdownDrains(t *testing.T) {
	sched, db := newDispatcher(t, 256, scheduler.Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, sched, 0, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}

	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	k0, _ := genPair(t, db.PadToPowerOfTwo().Domain(), 42)
	resCh := make(chan error, 1)
	go func() {
		_, err := conn.Query(context.Background(), k0)
		resCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the query reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("in-flight query failed during graceful shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query still pending after Shutdown returned")
	}
	if _, err := Dial(context.Background(), srv.Addr().String()); err == nil {
		t.Fatal("Dial succeeded after Shutdown")
	}
}

// TestUpdateOverWire: a MsgUpdate frame applies the bulk update through
// the dispatcher's quiescing path, the client gets MsgUpdateOK, and the
// new contents are visible to a subsequent query on the same connection.
func TestUpdateOverWire(t *testing.T) {
	srv0, db := startServer(t, 256, 0, WithWireUpdates())
	srv1, _ := startServer(t, 256, 1, WithWireUpdates())
	c0, err := Dial(context.Background(), srv0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := Dial(context.Background(), srv1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	const idx = 99
	newRec := bytes.Repeat([]byte{0xAB}, db.RecordSize())
	updates := map[uint64][]byte{idx: newRec}
	ctx := context.Background()
	if err := c0.Update(ctx, updates); err != nil {
		t.Fatalf("update server 0: %v", err)
	}
	if err := c1.Update(ctx, updates); err != nil {
		t.Fatalf("update server 1: %v", err)
	}

	k0, k1 := genPair(t, db.Domain(), idx)
	r0, err := c0.Query(ctx, k0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Query(ctx, k1)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, len(r0))
	for i := range rec {
		rec[i] = r0[i] ^ r1[i]
	}
	if !bytes.Equal(rec, newRec) {
		t.Fatal("query after wire update returned stale record")
	}
}

// TestUpdateOverWireRejectsBadRecord: a malformed update (wrong record
// length) is rejected with a server error and leaves the connection
// usable.
func TestUpdateOverWireRejectsBadRecord(t *testing.T) {
	srv, db := startServer(t, 128, 0, WithWireUpdates())
	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	err = conn.Update(ctx, map[uint64][]byte{3: []byte("short")})
	if err == nil || !strings.Contains(err.Error(), "want") {
		t.Fatalf("wrong-length update: err = %v, want record-size rejection", err)
	}

	// The connection survived the rejection.
	k0, k1 := genPair(t, db.Domain(), 3)
	r0, err := conn.Query(ctx, k0)
	if err != nil {
		t.Fatalf("query after rejected update: %v", err)
	}
	r1, _, err := newDispatcherFor(t, db).Query(ctx, pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{k1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, len(r0))
	for i := range rec {
		rec[i] = r0[i] ^ r1[0][i]
	}
	if !bytes.Equal(rec, db.Record(3)) {
		t.Fatal("reconstruction broken after rejected update")
	}
}

// newDispatcherFor builds a second scheduler over a byte-identical
// replica of db, playing the second non-colluding server locally.
func newDispatcherFor(t *testing.T, db *database.DB) *scheduler.Scheduler {
	t.Helper()
	cpu, err := engine.NewCPUPricer(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	if err := eng.LoadDatabase(db.Clone()); err != nil {
		t.Fatal(err)
	}
	return newScheduler(t, eng, scheduler.Config{})
}

// TestUpdateOverWireDisabledByDefault: a server that did not opt into
// wire updates must reject MsgUpdate — any connected client could send
// one, and an unauthorised update would desynchronise replicas. The
// connection stays usable for queries.
func TestUpdateOverWireDisabledByDefault(t *testing.T) {
	srv, db := startServer(t, 128, 0)
	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx := context.Background()
	before := append([]byte(nil), db.Record(3)...)
	err = conn.Update(ctx, map[uint64][]byte{3: bytes.Repeat([]byte{1}, db.RecordSize())})
	if err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("update on a default server: err = %v, want not-enabled rejection", err)
	}
	if !bytes.Equal(db.Record(3), before) {
		t.Fatal("rejected update still modified the database")
	}
	if conn.Broken() {
		t.Fatal("rejection broke the connection")
	}
	k0, _ := genPair(t, db.Domain(), 3)
	if _, err := conn.Query(ctx, k0); err != nil {
		t.Fatalf("query after rejected update: %v", err)
	}
}
