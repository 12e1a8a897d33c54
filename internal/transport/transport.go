// Package transport runs PIR servers behind TCP listeners and provides
// the matching client side. In a real IM-PIR deployment the two
// non-colluding servers are operated by independent entities; this
// package is the network plane of such a deployment (the paper excludes
// it from benchmarks, and so do we — it exists for the examples and the
// cmd/ binaries). The transport does not talk to engines directly: it
// hands every request to a Dispatcher — the request scheduler — which
// owns admission control, cross-connection batch coalescing, and update
// quiescing.
package transport

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/scheduler"
)

// Dispatcher is the server-side request path behind the transport —
// normally a scheduler.Scheduler wrapping one of the IM-PIR, CPU or GPU
// engines. Every method takes the connection's context: when a client
// disconnects, requests it still has queued are abandoned, and a
// Dispatcher returning scheduler.ErrBusy has the rejection reported to
// the client as a MsgBusy frame.
type Dispatcher interface {
	Name() string
	Database() *database.DB
	// Digest is the database digest a hello reports. It must not read
	// the database while an update is applying.
	Digest() [32]byte
	Query(context.Context, *dpf.Key) ([]byte, metrics.Breakdown, error)
	QueryBatch(context.Context, []*dpf.Key) ([][]byte, metrics.BatchStats, error)
	// QueryShare answers the §2.3 naive encoding: an explicit selector
	// share over every record (n-server deployments use this).
	QueryShare(context.Context, *bitvec.Vector) ([]byte, metrics.Breakdown, error)
	// QueryShareBatch answers a batch of shares as one admitted unit, so
	// a busy rejection never leaves a batch half-served.
	QueryShareBatch(context.Context, []*bitvec.Vector) ([][]byte, error)
	// Update applies a §3.3 bulk record update atomically (the scheduler
	// quiesces in-flight passes around it). It deliberately takes no
	// context — an update abandoned part-way would leave this replica
	// diverged from its peers.
	Update(updates map[uint64][]byte) error
}

// ErrServerBusy is returned by client query methods when the server
// rejected the request with a MsgBusy frame: its admission queue was
// full. The connection stays usable — retry after a backoff. It is the
// scheduler's ErrBusy, so the same errors.Is check covers local and
// remote rejections.
var ErrServerBusy = scheduler.ErrBusy

// Server serves one PIR dispatcher over a listener.
type Server struct {
	dispatcher   Dispatcher
	party        uint8
	lis          net.Listener
	logf         func(format string, args ...any)
	allowUpdates bool
	obs          *obs.ServerMetrics
	slowQuery    time.Duration
	shard        string
	traces       *obs.TraceRing
	sampler      obs.Sampler

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	inflight int // dispatches currently executing across all connections
	done     chan struct{}
}

// ServerOption customises a Server.
type ServerOption func(*Server)

// WithLogf directs server logs (default: log.Printf).
func WithLogf(f func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = f }
}

// WithWireUpdates accepts MsgUpdate frames from connected clients.
// Updates mutate the database, so this is OFF by default: the query
// port serves untrusted PIR clients, and an unauthorised update would
// corrupt records or silently desynchronise replicas. Enable it only on
// deployments where the update path is restricted to the database
// owner — a separate operator-only listener, network ACLs, or mutual
// TLS via NewServerTLS with client certificate verification.
func WithWireUpdates() ServerOption {
	return func(s *Server) { s.allowUpdates = true }
}

// WithObserver records per-frame request/busy/failure counters and
// total-stage latency into m (the queue and engine stages are recorded
// by the scheduler, which shares the same bundle).
func WithObserver(m *obs.ServerMetrics) ServerOption {
	return func(s *Server) { s.obs = m }
}

// WithSlowQuery logs the span tree of every query frame whose
// end-to-end dispatch takes at least threshold, as one line of JSON:
// the root's shard, pass width and fused flag, and its queue and engine
// children with the engine's per-phase wall times. 0 disables
// slow-query tracing.
func WithSlowQuery(threshold time.Duration) ServerOption {
	return func(s *Server) { s.slowQuery = threshold }
}

// WithShard sets the shard attribute of every trace's root span in a
// sharded deployment. Unset means unsharded (no shard attribute).
func WithShard(shard string) ServerOption {
	return func(s *Server) { s.shard = shard }
}

// WithTraceRing records finished traces of sampled and slow queries
// into r (served as JSON by the admin endpoint). A trace enters the
// ring when the query's wire context asked for sampling, the server's
// own sampler picked it, or it crossed the slow-query threshold.
func WithTraceRing(r *obs.TraceRing) ServerOption {
	return func(s *Server) { s.traces = r }
}

// WithTraceSampler head-samples queries that arrive WITHOUT a wire
// trace context (legacy clients, or new clients below their own
// sampling rate) so a server still populates its ring under pure
// legacy traffic. Queries whose context says sampled are always kept.
func WithTraceSampler(sampler obs.Sampler) ServerOption {
	return func(s *Server) { s.sampler = sampler }
}

// NewServer starts serving the dispatcher on the listener. party is this
// server's index in the multi-server deployment (0 or 1 for two-server).
// The returned server owns the listener.
func NewServer(lis net.Listener, d Dispatcher, party uint8, opts ...ServerOption) (*Server, error) {
	if d == nil {
		return nil, errors.New("transport: nil dispatcher")
	}
	if d.Database() == nil {
		return nil, errors.New("transport: dispatcher has no database loaded")
	}
	s := &Server{
		dispatcher: d,
		party:      party,
		lis:        lis,
		logf:       log.Printf,
		conns:      make(map[net.Conn]struct{}),
		done:       make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Close stops accepting, closes active connections, and waits for the
// accept loop to exit. In-flight requests are abandoned; use Shutdown
// for a graceful stop.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	<-s.done
	return err
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, waits for requests currently being dispatched (including
// those queued in the scheduler) to finish and have their responses
// written, then closes the remaining idle connections. ctx bounds the
// wait; on expiry the remaining work is abandoned as in Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.lis.Close()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		s.mu.Lock()
		idle := s.inflight == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("transport: shutdown: %w", ctx.Err())
			}
			break wait
		case <-tick.C:
		}
	}

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done
	return err
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.logf("transport: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	// The connection's context is cancelled the moment the connection
	// drops, so a request this client still has queued in the scheduler
	// is dequeued instead of costing an engine pass on a dead client. A
	// dedicated reader goroutine keeps a ReadFrame pending even while a
	// request is being dispatched — that pending read is what detects the
	// disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type frame struct {
		t       pirproto.MsgType
		flags   byte
		payload []byte
	}
	frames := make(chan frame)
	go func() {
		defer cancel()
		defer close(frames)
		br := bufio.NewReader(conn)
		for {
			t, flags, payload, err := pirproto.ReadFrameFlags(br)
			if err != nil {
				return // connection closed or broken framing; nothing to salvage
			}
			// Count the request in-flight the moment it is read — in the
			// same critical section that checks closed, so Shutdown's
			// "closed, and inflight is zero" observation is final: any
			// frame read after that is dropped here, never half-served.
			if !s.beginDispatch() {
				s.obs.IncLostArrival()
				return
			}
			select {
			case frames <- frame{t, flags, payload}:
			case <-ctx.Done():
				s.addInflight(-1)
				return
			}
		}
	}()

	fw := &frameWriter{w: conn}
	for f := range frames {
		name := frameName(f.t)
		start := time.Now()
		s.obs.IncRequest(name)
		var root *obs.Span
		payload := f.payload
		if isTracedFrame(f.t) {
			var err error
			root, payload, err = s.beginTrace(name, start, f.flags, f.payload)
			if err != nil {
				s.obs.IncFailure(name)
				werr := fw.sendError(err)
				s.addInflight(-1)
				if werr != nil {
					return
				}
				continue
			}
		}
		err := s.dispatch(obs.ContextWithSpan(ctx, root), fw, f.t, payload)
		root.End()
		total := time.Since(start)
		s.obs.ObserveStage(name, obs.StageTotal, total)
		if err != nil {
			if errors.Is(err, scheduler.ErrBusy) {
				s.obs.IncBusy(name)
			} else {
				s.obs.IncFailure(name)
			}
			var werr error
			if errors.Is(err, scheduler.ErrBusy) {
				werr = fw.sendPayload(pirproto.MsgBusy, nil)
			} else {
				werr = fw.sendError(err)
			}
			s.addInflight(-1)
			if werr != nil {
				return
			}
			continue
		}
		slow := root != nil && s.slowQuery > 0 && total >= s.slowQuery
		if root.Sampled() || slow {
			s.traces.Add(root)
		}
		if slow {
			// A span tree holds only strings, integers and a wall-clock
			// time, so it always marshals.
			line, _ := json.Marshal(root)
			s.logf("transport: slow query: %s", line)
		}
		s.addInflight(-1)
	}
}

// beginTrace decides whether a query frame is traced and opens its
// root span, server.<frame>: a propagated wire context's span ID
// becomes the root's party-local ID, a context-less query is
// head-sampled by the server's own sampler. Returns a nil span (and the
// payload unchanged) when nothing — sampling, slow-query logging, or a
// wire context — wants one, which keeps the untraced hot path
// allocation free.
func (s *Server) beginTrace(name string, start time.Time, flags byte, payload []byte) (*obs.Span, []byte, error) {
	var (
		spanID  obs.SpanID
		sampled bool
	)
	if flags&pirproto.FlagTraceContext != 0 {
		tc, inner, err := pirproto.SplitTraceContext(payload)
		if err != nil {
			return nil, nil, err
		}
		payload = inner
		spanID = obs.SpanIDFromUint64(tc.SpanID)
		sampled = tc.Sampled
	} else if s.sampler.Enabled() {
		spanID = obs.NewSpanID()
		sampled = s.sampler.SampleSpan(spanID)
	}
	if !sampled && s.slowQuery <= 0 {
		return nil, payload, nil
	}
	if spanID.IsZero() {
		// Pure slow-query tracing: mint an ID anyway so the log line and
		// the ring entry for the same query carry the same span_id.
		spanID = obs.NewSpanID()
	}
	root := obs.NewServerSpan(spanID, "server."+name, start, sampled)
	if s.shard != "" {
		root.SetAttr("shard", s.shard)
	}
	return root, payload, nil
}

// frameName labels a wire frame type for metrics and traces, matching
// the scheduler's request-kind frame names.
func frameName(t pirproto.MsgType) string {
	switch t {
	case pirproto.MsgHello:
		return "hello"
	case pirproto.MsgQuery:
		return "query"
	case pirproto.MsgBatchQuery:
		return "batch"
	case pirproto.MsgShareQuery:
		return "share"
	case pirproto.MsgShareBatchQuery:
		return "share_batch"
	case pirproto.MsgUpdate:
		return "update"
	default:
		return "unknown"
	}
}

// isTracedFrame reports whether t may carry the wire trace context and
// opens a server trace: the query frames dispatched through the
// scheduler's query path, and updates.
func isTracedFrame(t pirproto.MsgType) bool {
	switch t {
	case pirproto.MsgQuery, pirproto.MsgBatchQuery, pirproto.MsgShareQuery, pirproto.MsgShareBatchQuery,
		pirproto.MsgUpdate:
		return true
	default:
		return false
	}
}

func (s *Server) addInflight(d int) {
	s.mu.Lock()
	s.inflight += d
	s.mu.Unlock()
}

// beginDispatch admits one just-read frame into the in-flight count
// unless the server has begun closing. The closed check and the
// increment share one critical section with Shutdown's closed+inflight
// observation, which makes the drain decision race-free.
func (s *Server) beginDispatch() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) dispatch(ctx context.Context, fw *frameWriter, t pirproto.MsgType, payload []byte) error {
	switch t {
	case pirproto.MsgHello:
		// Accept both the legacy and the current version: v2 changes
		// nothing the server must act on (the trace extension is marked
		// per-frame by a header flag), so one server serves both.
		if len(payload) != 1 || (payload[0] != pirproto.VersionLegacy && payload[0] != pirproto.Version) {
			return fmt.Errorf("unsupported protocol version")
		}
		db := s.dispatcher.Database()
		info := pirproto.ServerInfo{
			Party:      s.party,
			Domain:     uint8(db.Domain()),
			RecordSize: uint32(db.RecordSize()),
			// The index space clients address: 2^d records, the
			// engine's N and the zero records beyond them.
			NumRecords: uint64(1) << db.Domain(),
			Digest:     s.dispatcher.Digest(),
		}
		return fw.sendPayload(pirproto.MsgServerInfo, info.Marshal())

	case pirproto.MsgQuery:
		var key dpf.Key
		if err := key.UnmarshalBinary(payload); err != nil {
			return fmt.Errorf("bad key: %w", err)
		}
		result, _, err := s.dispatcher.Query(ctx, &key)
		if err != nil {
			return err
		}
		return fw.sendPayload(pirproto.MsgQueryResp, result)

	case pirproto.MsgShareQuery:
		var share bitvec.Vector
		if err := share.UnmarshalBinary(payload); err != nil {
			return fmt.Errorf("bad share: %w", err)
		}
		result, _, err := s.dispatcher.QueryShare(ctx, &share)
		if err != nil {
			return err
		}
		return fw.sendPayload(pirproto.MsgQueryResp, result)

	case pirproto.MsgShareBatchQuery:
		raw, err := pirproto.ParseBatch(payload)
		if err != nil {
			return err
		}
		if len(raw) == 0 {
			return errors.New("empty share batch")
		}
		shares := make([]*bitvec.Vector, len(raw))
		for i, sb := range raw {
			shares[i] = new(bitvec.Vector)
			if err := shares[i].UnmarshalBinary(sb); err != nil {
				return fmt.Errorf("bad share %d: %w", i, err)
			}
		}
		results, err := s.dispatcher.QueryShareBatch(ctx, shares)
		if err != nil {
			return err
		}
		return fw.sendBatch(results)

	case pirproto.MsgUpdate:
		if !s.allowUpdates {
			return errors.New("updates are not enabled on this server (see WithWireUpdates)")
		}
		updates, err := pirproto.ParseUpdate(payload)
		if err != nil {
			return err
		}
		// Deliberately not bounded by the connection context: once the
		// update starts applying, abandoning it half-way would desync
		// this replica from its cohort peers.
		if err := s.dispatcher.Update(updates); err != nil {
			return err
		}
		return fw.sendPayload(pirproto.MsgUpdateOK, nil)

	case pirproto.MsgBatchQuery:
		raw, err := pirproto.ParseBatch(payload)
		if err != nil {
			return err
		}
		if len(raw) == 0 {
			return errors.New("empty batch")
		}
		keys := make([]*dpf.Key, len(raw))
		for i, kb := range raw {
			keys[i] = new(dpf.Key)
			if err := keys[i].UnmarshalBinary(kb); err != nil {
				return fmt.Errorf("bad key %d: %w", i, err)
			}
		}
		results, _, err := s.dispatcher.QueryBatch(ctx, keys)
		if err != nil {
			return err
		}
		return fw.sendBatch(results)

	default:
		return fmt.Errorf("unexpected frame %v", t)
	}
}

// frameWriter sends frames built in one reused buffer, so each frame —
// header and payload — leaves in a single Write (see pirproto's frame
// header). One goroutine at a time owns it: the server's per-connection
// handler, or a client Conn under its exchange mutex.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// begin starts a frame in the writer's buffer; the caller appends the
// payload and passes the result to send.
func (fw *frameWriter) begin(t pirproto.MsgType, flags byte) []byte {
	return pirproto.BeginFrame(fw.buf[:0], t, flags)
}

// send closes and writes a frame begun by begin, keeping its buffer
// for the next frame unless a large frame grew it past
// pirproto.MaxPooledFrame.
func (fw *frameWriter) send(frame []byte) error {
	if err := pirproto.EndFrame(frame); err != nil {
		return err
	}
	_, err := fw.w.Write(frame)
	if cap(frame) <= pirproto.MaxPooledFrame {
		fw.buf = frame[:0]
	} else {
		fw.buf = nil
	}
	return err
}

func (fw *frameWriter) sendPayload(t pirproto.MsgType, payload []byte) error {
	return fw.send(append(fw.begin(t, 0), payload...))
}

func (fw *frameWriter) sendBatch(results [][]byte) error {
	frame, err := pirproto.AppendBatch(fw.begin(pirproto.MsgBatchResp, 0), results)
	if err != nil {
		return err
	}
	return fw.send(frame)
}

func (fw *frameWriter) sendError(err error) error {
	return fw.send(append(fw.begin(pirproto.MsgError, 0), err.Error()...))
}

// NewServerTLS wraps the listener with TLS before serving — the channel
// protection a production deployment runs (PIR hides the query from the
// servers themselves; TLS hides traffic from everyone else).
func NewServerTLS(lis net.Listener, d Dispatcher, party uint8, tlsCfg *tls.Config, opts ...ServerOption) (*Server, error) {
	if tlsCfg == nil {
		return nil, errors.New("transport: nil TLS config")
	}
	return NewServer(tls.NewListener(lis, tlsCfg), d, party, opts...)
}

// Conn is a client connection to one PIR server. A Conn carries one
// request/response at a time; concurrent callers are serialised by an
// internal mutex, so a single Conn may be shared by the fan-out layer.
type Conn struct {
	mu      sync.Mutex // serialises request/response exchanges
	conn    net.Conn
	fw      frameWriter   // under mu
	br      *bufio.Reader // under mu
	info    pirproto.ServerInfo
	version uint8 // negotiated protocol version (set during handshake)

	// broken has its own mutex so Broken() answers immediately even
	// while an exchange holds mu — the client layer probes it to decide
	// whether to redial, and must not block behind in-flight queries.
	brokenMu sync.Mutex
	broken   error // set when a cancelled exchange poisons the stream
}

// Dial connects to a PIR server and performs the hello handshake. The
// context bounds connection establishment and the handshake exchange.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return handshake(ctx, nc)
}

// DialTLS connects over TLS and performs the hello handshake.
func DialTLS(ctx context.Context, addr string, tlsCfg *tls.Config) (*Conn, error) {
	if tlsCfg == nil {
		return nil, errors.New("transport: nil TLS config")
	}
	td := tls.Dialer{Config: tlsCfg}
	nc, err := td.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tls %s: %w", addr, err)
	}
	return handshake(ctx, nc)
}

// handshake performs the hello exchange on a fresh connection, taking
// ownership of nc (closed on failure). It offers the current protocol
// version first; a server that rejects it (a legacy deployment) leaves
// the stream usable — its error reply consumed the hello — so the
// client retries with the legacy version on the same connection and
// simply never attaches wire extensions.
func handshake(ctx context.Context, nc net.Conn) (*Conn, error) {
	c := &Conn{conn: nc, fw: frameWriter{w: nc}, br: bufio.NewReader(nc), version: pirproto.Version}
	t, payload, err := c.hello(ctx, pirproto.Version)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	if t == pirproto.MsgError {
		c.version = pirproto.VersionLegacy
		t, payload, err = c.hello(ctx, pirproto.VersionLegacy)
		if err != nil {
			nc.Close()
			return nil, fmt.Errorf("transport: handshake (legacy retry): %w", err)
		}
	}
	if t == pirproto.MsgError {
		nc.Close()
		return nil, fmt.Errorf("transport: server rejected handshake: %s", payload)
	}
	if t != pirproto.MsgServerInfo {
		nc.Close()
		return nil, fmt.Errorf("transport: unexpected handshake frame %v", t)
	}
	info, err := pirproto.ParseServerInfo(payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.info = info
	return c, nil
}

func (c *Conn) hello(ctx context.Context, version byte) (pirproto.MsgType, []byte, error) {
	return c.roundTrip(ctx, pirproto.MsgHello, false, func(b []byte) ([]byte, error) {
		return append(b, version), nil
	})
}

// Info returns the server's database description from the handshake.
func (c *Conn) Info() pirproto.ServerInfo { return c.info }

// Version returns the negotiated protocol version.
func (c *Conn) Version() uint8 { return c.version }

// roundTrip performs one request/response exchange under ctx: it builds
// the request frame — the trace extension when traced asks for it and
// the connection allows it, then the payload appended by appendPayload
// — and writes it in one Write. An encoding error returns before any
// byte is written. A context deadline becomes a socket deadline;
// cancellation interrupts pending I/O by expiring the deadline
// immediately. Because the protocol has no request framing beyond the
// stream position, an exchange abandoned mid-flight leaves the stream
// unusable — the Conn is marked broken and every later exchange fails
// fast.
func (c *Conn) roundTrip(ctx context.Context, t pirproto.MsgType, traced bool, appendPayload func([]byte) ([]byte, error)) (pirproto.MsgType, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.brokenErr(); err != nil {
		return 0, nil, err
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}

	var frame []byte
	if tc, ok := c.traceContext(ctx, traced); ok {
		frame = pirproto.AppendTraceContext(c.fw.begin(t, pirproto.FlagTraceContext), tc)
	} else {
		frame = c.fw.begin(t, 0)
	}
	frame, err := appendPayload(frame)
	if err != nil {
		return 0, nil, err
	}

	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	// Cancellation interrupts pending reads/writes. When the interrupt
	// has already started, wait for it before returning, so a late
	// deadline never lands on the next exchange.
	stop := func() bool { return true }
	var interrupted chan struct{}
	if ctx.Done() != nil {
		interrupted = make(chan struct{})
		stop = context.AfterFunc(ctx, func() {
			c.conn.SetDeadline(time.Now())
			close(interrupted)
		})
	}

	var (
		respType pirproto.MsgType
		resp     []byte
	)
	err = c.fw.send(frame)
	if err == nil {
		respType, resp, err = pirproto.ReadFrame(c.br)
	}
	if !stop() {
		<-interrupted
	}

	if err != nil {
		// The exchange died part-way; the stream position is unknown and
		// the connection cannot carry further requests.
		cerr := ctx.Err()
		if cerr == nil {
			// The socket deadline is set from the context deadline, so it
			// can fire a beat before the context's own timer: an expired
			// deadline is the context's fault even if ctx.Err() has not
			// flipped yet.
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				cerr = context.DeadlineExceeded
			}
		}
		if cerr != nil {
			err = cerr
		}
		// Deliberately %v: a later call with a healthy context must not
		// see the original call's context error through errors.Is and
		// misread a dead connection as its own timeout.
		c.setBroken(fmt.Errorf("transport: connection unusable after failed exchange: %v", err))
		return 0, nil, err
	}
	return respType, resp, nil
}

type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying a wire trace context for the
// next query exchange on a version-2 connection: the party-local span
// ID the client minted for this ONE server's view of one attempt, and
// whether the client sampled the operation. The caller must mint an
// independent random ID per party — never reuse one ID across
// connections to different parties, or colluding servers could link
// their halves of the operation. A zero span ID attaches nothing.
func ContextWithTrace(ctx context.Context, spanID obs.SpanID, sampled bool) context.Context {
	if spanID.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{},
		pirproto.TraceContext{SpanID: spanID.Uint64(), Sampled: sampled})
}

// traceContext returns the wire trace context a query frame carries:
// the context's trace, when traced asks for one and the connection
// negotiated version 2. On legacy connections, or when ctx carries no
// trace, the frame goes out byte-identical to the version-1 wire image.
func (c *Conn) traceContext(ctx context.Context, traced bool) (pirproto.TraceContext, bool) {
	if !traced || c.version < pirproto.Version {
		return pirproto.TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(pirproto.TraceContext)
	return tc, ok
}

// queryResp interprets a single-subresult response frame.
func queryResp(t pirproto.MsgType, payload []byte) ([]byte, error) {
	switch t {
	case pirproto.MsgQueryResp:
		return payload, nil
	case pirproto.MsgBusy:
		return nil, ErrServerBusy
	case pirproto.MsgError:
		return nil, fmt.Errorf("transport: server error: %s", payload)
	default:
		return nil, fmt.Errorf("transport: unexpected frame %v", t)
	}
}

// batchResp interprets a batched response frame, checking the count.
func batchResp(t pirproto.MsgType, payload []byte, want int) ([][]byte, error) {
	switch t {
	case pirproto.MsgBatchResp:
		results, err := pirproto.ParseBatch(payload)
		if err != nil {
			return nil, err
		}
		if len(results) != want {
			return nil, fmt.Errorf("transport: %d results for %d queries", len(results), want)
		}
		return results, nil
	case pirproto.MsgBusy:
		return nil, ErrServerBusy
	case pirproto.MsgError:
		return nil, fmt.Errorf("transport: server error: %s", payload)
	default:
		return nil, fmt.Errorf("transport: unexpected frame %v", t)
	}
}

// Query sends one DPF key and returns the server's subresult.
func (c *Conn) Query(ctx context.Context, key *dpf.Key) ([]byte, error) {
	t, payload, err := c.roundTrip(ctx, pirproto.MsgQuery, true, key.AppendBinary)
	if err != nil {
		return nil, err
	}
	return queryResp(t, payload)
}

// QueryShare sends a raw selector share (the §2.3 naive n-server
// encoding) and returns the server's subresult.
func (c *Conn) QueryShare(ctx context.Context, share *bitvec.Vector) ([]byte, error) {
	t, resp, err := c.roundTrip(ctx, pirproto.MsgShareQuery, true, share.AppendBinary)
	if err != nil {
		return nil, err
	}
	return queryResp(t, resp)
}

// QueryBatch sends a batch of keys and returns the subresults in order.
func (c *Conn) QueryBatch(ctx context.Context, keys []*dpf.Key) ([][]byte, error) {
	t, resp, err := c.roundTrip(ctx, pirproto.MsgBatchQuery, true, func(b []byte) ([]byte, error) {
		return pirproto.AppendBatchOf(b, keys, (*dpf.Key).AppendBinary)
	})
	if err != nil {
		return nil, err
	}
	return batchResp(t, resp, len(keys))
}

// QueryShareBatch sends a batch of selector shares in one round trip and
// returns the subresults in order.
func (c *Conn) QueryShareBatch(ctx context.Context, shares []*bitvec.Vector) ([][]byte, error) {
	t, resp, err := c.roundTrip(ctx, pirproto.MsgShareBatchQuery, true, func(b []byte) ([]byte, error) {
		return pirproto.AppendBatchOf(b, shares, (*bitvec.Vector).AppendBinary)
	})
	if err != nil {
		return nil, err
	}
	return batchResp(t, resp, len(shares))
}

// Update pushes a bulk record update to the server and waits for the
// acknowledgement. Updates are an operator action, not a private query:
// the server learns which records changed, by design. ctx bounds the
// exchange; as with every exchange, abandoning it mid-flight poisons the
// stream. Like a query, it carries ctx's wire trace context on a version
// 2 connection.
func (c *Conn) Update(ctx context.Context, updates map[uint64][]byte) error {
	payload, err := pirproto.MarshalUpdate(updates)
	if err != nil {
		return err
	}
	t, resp, err := c.roundTrip(ctx, pirproto.MsgUpdate, true, func(b []byte) ([]byte, error) {
		return append(b, payload...), nil
	})
	if err != nil {
		return err
	}
	switch t {
	case pirproto.MsgUpdateOK:
		return nil
	case pirproto.MsgBusy:
		return ErrServerBusy
	case pirproto.MsgError:
		return fmt.Errorf("transport: server error: %s", resp)
	default:
		return fmt.Errorf("transport: unexpected frame %v", t)
	}
}

// Broken reports whether a previously abandoned exchange has poisoned
// the stream, making every further exchange fail fast. The client layer
// uses this to transparently redial instead of returning stale errors.
// Broken never blocks behind an in-flight exchange.
func (c *Conn) Broken() bool { return c.brokenErr() != nil }

func (c *Conn) brokenErr() error {
	c.brokenMu.Lock()
	defer c.brokenMu.Unlock()
	return c.broken
}

func (c *Conn) setBroken(err error) {
	c.brokenMu.Lock()
	c.broken = err
	c.brokenMu.Unlock()
}

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }
