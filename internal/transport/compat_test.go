package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
)

// TestLegacyClientAgainstNewServer speaks raw protocol version 1 — no
// flags byte, no extensions — to a current server, end to end through a
// real two-server XOR reconstruction. A pre-tracing client must keep
// working against an upgraded deployment, byte for byte.
func TestLegacyClientAgainstNewServer(t *testing.T) {
	srv0, db := startServer(t, 512, 0)
	srv1, _ := startServer(t, 512, 1)

	legacyQuery := func(addr string, key interface{ MarshalBinary() ([]byte, error) }) []byte {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := pirproto.WriteFrame(nc, pirproto.MsgHello, []byte{pirproto.VersionLegacy}); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := pirproto.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		if typ != pirproto.MsgServerInfo {
			t.Fatalf("legacy hello answered with %v: %s", typ, payload)
		}
		if _, err := pirproto.ParseServerInfo(payload); err != nil {
			t.Fatalf("legacy hello info: %v", err)
		}
		kb, err := key.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := pirproto.WriteFrame(nc, pirproto.MsgQuery, kb); err != nil {
			t.Fatal(err)
		}
		typ, payload, err = pirproto.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		if typ != pirproto.MsgQueryResp {
			t.Fatalf("legacy query answered with %v: %s", typ, payload)
		}
		return payload
	}

	const idx = 99
	k0, k1 := genPair(t, db.Domain(), idx)
	r0 := legacyQuery(srv0.Addr().String(), k0)
	r1 := legacyQuery(srv1.Addr().String(), k1)
	rec := make([]byte, len(r0))
	for i := range rec {
		rec[i] = r0[i] ^ r1[i]
	}
	if !bytes.Equal(rec, db.Record(idx)) {
		t.Fatal("legacy-protocol reconstruction failed against new server")
	}
}

// fakeServer is a scripted single-connection peer that records every
// frame the client sends, raw header included.
type fakeServer struct {
	lis    net.Listener
	frames chan rawFrame
}

type rawFrame struct {
	t       pirproto.MsgType
	flags   byte
	payload []byte
}

// startFakeServer accepts one connection and serves hellos according to
// accept: a hello whose version is not in accept gets MsgError (the
// legacy rejection), one that is gets MsgServerInfo. Query frames are
// recorded and answered with a fixed 32-byte response.
func startFakeServer(t *testing.T, accept func(version byte) bool) *fakeServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{lis: lis, frames: make(chan rawFrame, 16)}
	t.Cleanup(func() { lis.Close() })
	info := pirproto.ServerInfo{Party: 0, Domain: 8, RecordSize: 32, NumRecords: 256}
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for {
			typ, flags, payload, err := pirproto.ReadFrameFlags(nc)
			if err != nil {
				return
			}
			fs.frames <- rawFrame{typ, flags, payload}
			switch typ {
			case pirproto.MsgHello:
				if len(payload) == 1 && accept(payload[0]) {
					pirproto.WriteFrame(nc, pirproto.MsgServerInfo, info.Marshal())
				} else {
					pirproto.WriteFrame(nc, pirproto.MsgError, []byte("unsupported protocol version"))
				}
			default:
				pirproto.WriteFrame(nc, pirproto.MsgQueryResp, make([]byte, 32))
			}
		}
	}()
	return fs
}

func (fs *fakeServer) next(t *testing.T) rawFrame {
	t.Helper()
	select {
	case f := <-fs.frames:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("fake server saw no frame")
		return rawFrame{}
	}
}

// TestNewClientDowngradesToLegacyServer dials a server that only speaks
// version 1. The client's version-2 hello is rejected; it must retry
// with version 1 on the same stream, negotiate, and then never attach
// the trace extension — even when the context asks for one.
func TestNewClientDowngradesToLegacyServer(t *testing.T) {
	fs := startFakeServer(t, func(v byte) bool { return v == pirproto.VersionLegacy })

	conn, err := Dial(context.Background(), fs.lis.Addr().String())
	if err != nil {
		t.Fatalf("dial legacy server: %v", err)
	}
	defer conn.Close()
	if got := conn.Version(); got != pirproto.VersionLegacy {
		t.Fatalf("negotiated version %d, want %d", got, pirproto.VersionLegacy)
	}

	h1 := fs.next(t)
	if h1.t != pirproto.MsgHello || !bytes.Equal(h1.payload, []byte{pirproto.Version}) {
		t.Fatalf("first hello = %v %v, want version-2 hello", h1.t, h1.payload)
	}
	h2 := fs.next(t)
	if h2.t != pirproto.MsgHello || !bytes.Equal(h2.payload, []byte{pirproto.VersionLegacy}) {
		t.Fatalf("retry hello = %v %v, want version-1 hello on the same stream", h2.t, h2.payload)
	}

	// Even with a trace in the context, a legacy connection must write
	// the plain version-1 frame.
	ctx := ContextWithTrace(context.Background(), obs.NewSpanID(), true)
	db, err := newTestDB(t)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := genPair(t, db.Domain(), 3)
	if _, err := conn.Query(ctx, k0); err != nil {
		t.Fatalf("query after downgrade: %v", err)
	}
	q := fs.next(t)
	kb, _ := k0.MarshalBinary()
	if q.flags != 0 {
		t.Fatalf("legacy connection wrote flags %#x, want 0", q.flags)
	}
	if !bytes.Equal(q.payload, kb) {
		t.Fatal("legacy connection's query payload differs from the bare key bytes")
	}
}

// TestTraceExtensionIsOnlyWireDifference captures the exact bytes two
// version-2 clients write for the same query — one untraced, one traced
// — and asserts the only difference is the negotiated extension: the
// header flag byte plus the 9-byte trace-context prefix. Untraced
// version-2 traffic is byte-identical to version 1.
func TestTraceExtensionIsOnlyWireDifference(t *testing.T) {
	db, err := newTestDB(t)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := genPair(t, db.Domain(), 7)
	kb, _ := k0.MarshalBinary()

	spanID := obs.NewSpanID()
	capture := func(ctx context.Context) rawFrame {
		fs := startFakeServer(t, func(v byte) bool { return true })
		conn, err := Dial(context.Background(), fs.lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if conn.Version() != pirproto.Version {
			t.Fatalf("negotiated %d, want %d", conn.Version(), pirproto.Version)
		}
		fs.next(t) // hello
		if _, err := conn.Query(ctx, k0); err != nil {
			t.Fatal(err)
		}
		return fs.next(t)
	}

	plain := capture(context.Background())
	traced := capture(ContextWithTrace(context.Background(), spanID, true))

	if plain.flags != 0 || !bytes.Equal(plain.payload, kb) {
		t.Fatalf("untraced v2 frame differs from the v1 wire image: flags=%#x", plain.flags)
	}
	if traced.flags != pirproto.FlagTraceContext {
		t.Fatalf("traced frame flags = %#x, want FlagTraceContext", traced.flags)
	}
	tc, inner, err := pirproto.SplitTraceContext(traced.payload)
	if err != nil {
		t.Fatal(err)
	}
	if tc.SpanID != spanID.Uint64() || !tc.Sampled {
		t.Fatalf("trace context on the wire = %+v, want span %d sampled", tc, spanID.Uint64())
	}
	if !bytes.Equal(inner, plain.payload) {
		t.Fatal("traced frame's inner payload differs from the untraced frame")
	}
	if wireID := binary.LittleEndian.Uint64(traced.payload[:8]); wireID != spanID.Uint64() {
		t.Fatalf("wire span ID %d != context span ID %d", wireID, spanID.Uint64())
	}
}

// TestServerJoinsWireTraceContext sends a traced query to a real server
// and checks the propagated span ID comes back as the span_id of the
// server's ring-buffer entry — the party-local half the client links to
// its attempt span — and of its slow-query log line.
func TestServerJoinsWireTraceContext(t *testing.T) {
	ring := obs.NewTraceRing(8)
	srv, db := startServer(t, 256, 0, WithTraceRing(ring))
	conn, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Version() != pirproto.Version {
		t.Fatalf("negotiated %d, want %d", conn.Version(), pirproto.Version)
	}

	spanID := obs.NewSpanID()
	k0, _ := genPair(t, db.Domain(), 42)
	if _, err := conn.Query(ContextWithTrace(context.Background(), spanID, true), k0); err != nil {
		t.Fatal(err)
	}

	// The ring entry is added after the response is written; poll.
	deadline := time.Now().Add(5 * time.Second)
	for ring.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("traced query never reached the server's ring")
		}
		time.Sleep(time.Millisecond)
	}
	sn := ring.Snapshot(0)[0].Snapshot()
	if sn.SpanID != spanID.String() {
		t.Fatalf("server ring span_id = %s, want the propagated %s", sn.SpanID, spanID)
	}
	if sn.Name != "server.query" {
		t.Fatalf("server ring root = %q, want server.query", sn.Name)
	}
	names := map[string]bool{}
	for _, c := range sn.Children {
		names[c.Name] = true
	}
	if !names["queue"] || !names["engine"] {
		t.Fatalf("server trace children = %v, want queue and engine stages", sn.Children)
	}

	// An untraced query on the same connection must not add a ring
	// entry (server sampler is off by default).
	if _, err := conn.Query(context.Background(), k0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := ring.Len(); n != 1 {
		t.Fatalf("untraced query changed the ring: len=%d, want 1", n)
	}

	// A slow query logs its span tree: the same JSON object the ring
	// serves for it, under the propagated ID.
	t.Run("slow query log", func(t *testing.T) {
		var (
			mu    sync.Mutex
			lines []string
		)
		logf := func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		slowLines := func() []string {
			mu.Lock()
			defer mu.Unlock()
			var out []string
			for _, l := range lines {
				if _, rest, ok := strings.Cut(l, "slow query: "); ok {
					out = append(out, rest)
				}
			}
			return out
		}
		ring := obs.NewTraceRing(8)
		srv, db := startServer(t, 256, 0, WithTraceRing(ring), WithSlowQuery(time.Nanosecond), WithLogf(logf))
		conn, err := Dial(context.Background(), srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		spanID := obs.NewSpanID()
		k0, _ := genPair(t, db.Domain(), 7)
		if _, err := conn.Query(ContextWithTrace(context.Background(), spanID, true), k0); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(slowLines()) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("slow query never logged")
			}
			time.Sleep(time.Millisecond)
		}
		got := slowLines()
		if len(got) != 1 {
			t.Fatalf("one query logged %d slow-query lines: %q", len(got), got)
		}
		var sn obs.SpanSnapshot
		if err := json.Unmarshal([]byte(got[0]), &sn); err != nil {
			t.Fatalf("slow-query line is not a JSON span: %v\n%s", err, got[0])
		}
		if sn.Name != "server.query" {
			t.Fatalf("slow-query span = %q, want server.query", sn.Name)
		}
		names := map[string]bool{}
		for _, c := range sn.Children {
			names[c.Name] = true
		}
		if !names["queue"] || !names["engine"] {
			t.Fatalf("slow-query span children = %v, want queue and engine stages", sn.Children)
		}
		if ring.Len() != 1 {
			t.Fatalf("ring holds %d traces, want the one slow query", ring.Len())
		}
		if ringID := ring.Snapshot(0)[0].ID().String(); sn.SpanID != spanID.String() || sn.SpanID != ringID {
			t.Fatalf("slow-query span_id %s, want the propagated %s and the ring's %s", sn.SpanID, spanID, ringID)
		}
	})
}

// newTestDB builds a small database purely for key generation in tests
// that never touch a real engine.
func newTestDB(t *testing.T) (*database.DB, error) {
	t.Helper()
	return database.GenerateHashDB(256, 5)
}
