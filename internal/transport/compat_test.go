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

// TestLegacyClientAgainstNewServer: protocol version 1 is retired. A
// raw version-1 hello — what a pre-tracing client opens with — gets an
// error frame naming the version, not a server info.
func TestLegacyClientAgainstNewServer(t *testing.T) {
	srv, _ := startServer(t, 512, 0)
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := pirproto.WriteFrame(nc, pirproto.MsgHello, []byte{1}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := pirproto.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != pirproto.MsgError || !strings.Contains(string(payload), "unsupported protocol version") {
		t.Fatalf("version-1 hello answered with %v %q, want MsgError \"unsupported protocol version\"", typ, payload)
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

// startFakeServer accepts one connection and records every frame it
// reads: it answers the hello with a server info, and every other frame
// with a fixed 32-byte query response.
func startFakeServer(t *testing.T) *fakeServer {
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
			if typ == pirproto.MsgHello {
				pirproto.WriteFrame(nc, pirproto.MsgServerInfo, info.Marshal())
			} else {
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

// TestTraceExtensionIsOnlyWireDifference captures the exact bytes two
// clients write for the same query — one untraced, one traced — and
// asserts the only difference is the extension: the header flag byte
// plus the 9-byte trace-context prefix. An untraced frame carries no
// flags and exactly the bare key bytes.
func TestTraceExtensionIsOnlyWireDifference(t *testing.T) {
	db, err := newTestDB(t)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := genPair(t, db.Domain(), 7)
	kb, _ := k0.MarshalBinary()

	spanID := obs.NewSpanID()
	capture := func(ctx context.Context) rawFrame {
		fs := startFakeServer(t)
		conn, err := Dial(context.Background(), fs.lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fs.next(t) // hello
		if _, err := conn.Query(ctx, k0); err != nil {
			t.Fatal(err)
		}
		return fs.next(t)
	}

	plain := capture(context.Background())
	traced := capture(ContextWithTrace(context.Background(), spanID, true))

	if plain.flags != 0 || !bytes.Equal(plain.payload, kb) {
		t.Fatalf("untraced frame differs from the bare key bytes: flags=%#x", plain.flags)
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
