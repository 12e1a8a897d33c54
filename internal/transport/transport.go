// Package transport runs PIR servers behind TCP listeners and provides
// the matching client side. In a real IM-PIR deployment the two
// non-colluding servers are operated by independent entities; this
// package is the network plane of such a deployment (the paper excludes
// it from benchmarks, and so do we — it exists for the examples and the
// cmd/ binaries). The transport does not talk to engines directly: it
// decodes each of the four query frames into a dpf.Batch in one place
// (pirproto.ParseQuery) and hands it, with the frame type, to a
// Dispatcher's one query entry — the request scheduler, which owns
// admission control, coalescing of MsgQuery frames across connections,
// and update quiescing. A server answers one connection's frames
// strictly in the order it read them. On the client side, an exchange is
// split in two halves, the write of a frame and the read of its reply,
// and a connection carries many exchanges at once: a client can write
// to every server before it reads any reply, and several calls can
// share one connection, their replies read in the order they were
// written.
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
	"os"
	"slices"
	"sync"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/pirproto"
	"github.com/impir/impir/internal/scheduler"
)

// Dispatcher is the server-side request path behind the transport —
// normally a scheduler.Scheduler wrapping one of the IM-PIR, CPU or GPU
// engines.
type Dispatcher interface {
	Database() *database.DB
	// Digest is the database digest a hello reports. It must not read
	// the database while an update is applying.
	Digest() [32]byte
	// Query answers the batch one query frame of type frame carries —
	// DPF keys or §2.3 selector shares, one or many — with one subresult
	// per query, in order. It takes the connection's context: when a
	// client disconnects, requests it still has queued are abandoned. A
	// scheduler.ErrBusy is reported to the client as a MsgBusy frame.
	Query(ctx context.Context, frame pirproto.MsgType, in dpf.Batch) ([][]byte, metrics.BatchStats, error)
	// Update applies a §3.3 bulk record update atomically (the scheduler
	// quiesces in-flight passes around it). It deliberately takes no
	// context — an update abandoned part-way would leave this replica
	// diverged from its peers.
	Update(updates map[uint64][]byte) error
}

// ErrServerBusy is returned by client exchanges when the server
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
// trace context (clients that trace nothing, or sample below their own
// rate) so a server still populates its ring under untraced traffic.
// Queries whose context says sampled are always kept.
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
		name, traced := f.t.Label()
		start := time.Now()
		s.obs.IncRequest(name)
		var root *obs.Span
		payload, err := f.payload, error(nil)
		if traced {
			root, payload, err = s.beginTrace(name, start, f.flags, f.payload)
		}
		if err == nil {
			err = s.dispatch(obs.ContextWithSpan(ctx, root), fw, f.t, payload)
			root.End()
		}
		total := time.Since(start)
		s.obs.ObserveStage(name, obs.StageTotal, total)
		var werr error
		switch {
		case errors.Is(err, scheduler.ErrBusy):
			s.obs.IncBusy(name)
			werr = fw.sendPayload(pirproto.MsgBusy, nil)
		case err != nil:
			s.obs.IncFailure(name)
			werr = fw.sendError(err)
		default:
			slow := root != nil && s.slowQuery > 0 && total >= s.slowQuery
			if root.Sampled() || slow {
				s.traces.Add(root)
			}
			if slow {
				// A span tree holds only strings, integers and a
				// wall-clock time, so it always marshals.
				line, _ := json.Marshal(root)
				s.logf("transport: slow query: %s", line)
			}
		}
		s.addInflight(-1)
		if werr != nil {
			return
		}
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
		if len(payload) != 1 || payload[0] != pirproto.Version {
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
	}
	// Every other frame is one of the four query frames, or rejected by
	// the one decoder.
	in, err := pirproto.ParseQuery(t, payload)
	if err != nil {
		return err
	}
	results, _, err := s.dispatcher.Query(ctx, t, in)
	if err != nil {
		return err
	}
	return fw.sendReply(t, results)
}

// frameWriter sends frames built in one reused buffer, so each frame —
// header and payload — leaves in a single Write (see pirproto's frame
// header). One goroutine at a time owns it: the server's per-connection
// handler, or a client Conn's writer under its write lock.
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

// sendReply answers query frame t: a single frame with a MsgQueryResp
// carrying its one subresult, a batch frame with a MsgBatchResp carrying
// all of them.
func (fw *frameWriter) sendReply(t pirproto.MsgType, results [][]byte) error {
	if t == pirproto.MsgQuery || t == pirproto.MsgShareQuery {
		return fw.sendPayload(pirproto.MsgQueryResp, results[0])
	}
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

// Conn is a client connection to one PIR server. It carries many
// exchanges at once, and the server answers them in the order they were
// written. Send writes a frame under a short write lock and queues its
// exchange; a Pending's Recv takes the connection's read turn and reads
// replies in queue order, handing each earlier reply to its own
// exchange, until its own arrives. So a second call on a shared Conn
// writes without waiting for the first call's reply, and a reply whose
// exchange nobody receives — a hedge loser's, a cancelled or failed
// call's — is read and dropped by the next reader. Only a partial
// write, a reply cut off mid-frame, a framing error or a reset breaks
// the connection.
type Conn struct {
	conn net.Conn
	info pirproto.ServerInfo

	wmu  sync.Mutex  // the write turn: held for one frame's write
	fw   frameWriter // under wmu
	wint interrupter // under wmu

	turn chan struct{} // the read turn: held for one reply's read
	br   *bufio.Reader // under turn
	rint interrupter   // under turn

	mu     sync.Mutex
	queue  []*Pending // written, reply not yet read, in write order
	broken error      // set once, when the stream position is lost
}

// Pending is one exchange: a frame written, its reply not yet received.
type Pending struct {
	c    *Conn
	sent pirproto.MsgType // the frame written
	want int              // the subresults its reply must carry

	// The reply, set under the read turn by whichever reader read it.
	t       pirproto.MsgType // 0 until then
	payload []byte
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
// ownership of nc (closed on failure).
func handshake(ctx context.Context, nc net.Conn) (*Conn, error) {
	c := &Conn{conn: nc, fw: frameWriter{w: nc}, br: bufio.NewReader(nc), turn: make(chan struct{}, 1),
		wint: interrupter{set: nc.SetWriteDeadline, fired: make(chan struct{}, 1)},
		rint: interrupter{set: nc.SetReadDeadline, fired: make(chan struct{}, 1)}}
	x, err := c.send(ctx, pirproto.MsgHello, 0, func(b []byte) ([]byte, error) {
		return append(b, pirproto.Version), nil
	})
	var t pirproto.MsgType
	var payload []byte
	if err == nil {
		t, payload, err = x.reply(ctx)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("transport: handshake: %w", err)
	case t == pirproto.MsgError:
		err = fmt.Errorf("transport: server rejected handshake: %s", payload)
	case t != pirproto.MsgServerInfo:
		err = fmt.Errorf("transport: unexpected handshake frame %v", t)
	default:
		c.info, err = pirproto.ParseServerInfo(payload)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Info returns the server's database description from the handshake.
func (c *Conn) Info() pirproto.ServerInfo { return c.info }

// send is the write half of every exchange. Under the write lock it
// builds the frame — the trace extension when ctx carries a trace and t
// is a query or update, then the payload appendPayload adds — writes it
// in one Write under ctx's deadline and interrupt, and queues the
// exchange. An encoding error returns before any byte is written; a
// failed write breaks the connection.
func (c *Conn) send(ctx context.Context, t pirproto.MsgType, want int, appendPayload func([]byte) ([]byte, error)) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return nil, err
	}
	var frame []byte
	if tc, ok := ctx.Value(traceCtxKey{}).(pirproto.TraceContext); ok && t != pirproto.MsgHello {
		frame = pirproto.AppendTraceContext(c.fw.begin(t, pirproto.FlagTraceContext), tc)
	} else {
		frame = c.fw.begin(t, 0)
	}
	frame, err := appendPayload(frame)
	if err != nil {
		return nil, err
	}
	c.wint.arm(ctx)
	err = c.fw.send(frame)
	c.wint.disarm()
	if err != nil {
		return nil, c.fail(ctx, err)
	}
	x := &Pending{c: c, sent: t, want: want}
	c.mu.Lock()
	c.queue = append(c.queue, x)
	c.mu.Unlock()
	return x, nil
}

// reply is the read half of every exchange: it waits for x's reply
// frame. It takes the read turn one reply at a time, so a reader that
// reads another exchange's reply hands the turn on at once, and gives
// up when ctx is done — leaving x queued, for the next reader to drop
// its reply.
func (x *Pending) reply(ctx context.Context) (pirproto.MsgType, []byte, error) {
	c := x.c
	for {
		select {
		case c.turn <- struct{}{}:
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
		var err error
		if x.t == 0 {
			err = c.readNext(ctx)
		}
		t, payload := x.t, x.payload // read under the turn its reader held
		<-c.turn
		if err != nil || t != 0 {
			return t, payload, err
		}
	}
}

// readNext reads the next reply under the read turn and hands it to the
// oldest queued exchange. A read that ctx interrupts before the reply's
// first byte leaves the stream where it was; any other failure breaks
// the connection.
func (c *Conn) readNext(ctx context.Context) error {
	if err := c.brokenErr(); err != nil {
		return err
	}
	c.rint.arm(ctx)
	_, err := c.br.Peek(1)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) && ctxErr(ctx) != nil {
		c.rint.disarm()
		return ctxErr(ctx)
	}
	var t pirproto.MsgType
	var payload []byte
	if err == nil {
		t, payload, err = pirproto.ReadFrame(c.br)
	}
	c.rint.disarm()
	if err != nil {
		return c.fail(ctx, err)
	}
	c.mu.Lock()
	x := c.queue[0]
	c.queue = slices.Delete(c.queue, 0, 1)
	c.mu.Unlock()
	x.t, x.payload = t, payload
	return nil
}

// interrupter expires one direction's socket deadline when the context
// of the I/O in progress is done, so that I/O returns at once. The
// writer arms the write direction's under the write lock, the reader
// the read direction's under the read turn.
type interrupter struct {
	set   func(time.Time) error // the direction's SetDeadline
	fired chan struct{}
	stop  func() bool
}

// arm sets the deadline to ctx's — none when ctx has none — and
// expires it when ctx is done.
func (i *interrupter) arm(ctx context.Context) {
	dl, _ := ctx.Deadline()
	i.set(dl)
	if ctx.Done() != nil {
		i.stop = context.AfterFunc(ctx, func() {
			i.set(time.Now())
			i.fired <- struct{}{}
		})
	}
}

// disarm stops the interrupt. When it has already fired, disarm waits
// for it, so a late deadline never lands on the next I/O.
func (i *interrupter) disarm() {
	if i.stop != nil && !i.stop() {
		<-i.fired
	}
	i.stop = nil
}

// ctxErr is ctx's error, or DeadlineExceeded once ctx's deadline has
// passed: the socket deadline is set from it, so it can fire a beat
// before the context's own timer.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// fail breaks the connection after an I/O failure lost the stream
// position, closing the socket so every other reader and writer returns
// at once, and returns the error the caller sees: ctx's, when ctx ended
// the I/O.
func (c *Conn) fail(ctx context.Context, err error) error {
	if cerr := ctxErr(ctx); cerr != nil {
		err = cerr
	}
	c.mu.Lock()
	if c.broken == nil {
		// Deliberately %v: a later call with a healthy context must not
		// see this call's context error through errors.Is and misread a
		// dead connection as its own timeout.
		c.broken = fmt.Errorf("transport: connection unusable after failed exchange: %v", err)
	}
	c.mu.Unlock()
	c.conn.Close()
	return err
}

type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying a wire trace context for the
// next query or update exchange: the party-local span ID the client
// minted for this ONE server's view of one attempt, and whether the
// client sampled the operation. The caller must mint an independent
// random ID per party — never reuse one ID across connections to
// different parties, or colluding servers could link their halves of
// the operation. A zero span ID attaches nothing.
func ContextWithTrace(ctx context.Context, spanID obs.SpanID, sampled bool) context.Context {
	if spanID.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{},
		pirproto.TraceContext{SpanID: spanID.Uint64(), Sampled: sampled})
}

// Query sends one DPF key as a MsgQuery frame and returns the server's
// subresult.
func (c *Conn) Query(ctx context.Context, key *dpf.Key) ([]byte, error) {
	results, err := c.Exchange(ctx, pirproto.MsgQuery, dpf.Batch{Keys: []*dpf.Key{key}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// QueryBatch sends keys as one MsgBatchQuery frame and returns the
// subresults in order.
func (c *Conn) QueryBatch(ctx context.Context, keys []*dpf.Key) ([][]byte, error) {
	return c.Exchange(ctx, pirproto.MsgBatchQuery, dpf.Batch{Keys: keys})
}

// Exchange is Send, then Recv.
func (c *Conn) Exchange(ctx context.Context, t pirproto.MsgType, in dpf.Batch) ([][]byte, error) {
	x, err := c.Send(ctx, t, in)
	if err != nil {
		return nil, err
	}
	return x.Recv(ctx)
}

// Send writes in as one query frame of type t — MsgQuery,
// MsgBatchQuery, MsgShareQuery or MsgShareBatchQuery (the §2.3 naive
// n-server encoding) — and returns the exchange, whose reply Recv
// reads. It holds the connection's write lock only while it writes:
// ctx's deadline and cancellation bound the write, not the reply. A
// caller that abandons the exchange simply never calls Recv; the next
// reader drops its reply.
func (c *Conn) Send(ctx context.Context, t pirproto.MsgType, in dpf.Batch) (*Pending, error) {
	return c.send(ctx, t, in.Len(), func(b []byte) ([]byte, error) { return pirproto.AppendQuery(b, t, in) })
}

// SendUpdate writes a bulk record update frame as Send writes a query,
// with ctx's wire trace context. Updates are an operator action, not a
// private query: the server learns which records changed, by design.
func (c *Conn) SendUpdate(ctx context.Context, updates map[uint64][]byte) (*Pending, error) {
	payload, err := pirproto.MarshalUpdate(updates)
	if err != nil {
		return nil, err
	}
	return c.send(ctx, pirproto.MsgUpdate, 0, func(b []byte) ([]byte, error) {
		return append(b, payload...), nil
	})
}

// Recv reads the reply to x, once. ctx's deadline and cancellation bound
// the wait: when ctx ends first, Recv returns its error, and x's reply
// is dropped by the next reader unless the stream broke mid-reply. A
// query's reply must carry one subresult per query, each of the record
// size the server announced in its hello; an update's is an
// acknowledgement, and Recv returns no subresults. Anything else is an
// error, never a record.
func (x *Pending) Recv(ctx context.Context) ([][]byte, error) {
	rt, payload, err := x.reply(ctx)
	if err != nil {
		return nil, err
	}
	if x.sent == pirproto.MsgUpdate {
		if rt == pirproto.MsgUpdateOK {
			return nil, nil
		}
		return nil, replyErr(rt, payload)
	}
	var results [][]byte
	switch rt {
	case pirproto.MsgQueryResp:
		results = [][]byte{payload}
	case pirproto.MsgBatchResp:
		if results, err = pirproto.ParseBatch(payload); err != nil {
			return nil, err
		}
	default:
		return nil, replyErr(rt, payload)
	}
	if len(results) != x.want {
		return nil, fmt.Errorf("transport: %d results for %d queries", len(results), x.want)
	}
	for i, r := range results {
		if len(r) != int(x.c.info.RecordSize) {
			return nil, fmt.Errorf("transport: subresult %d is %d bytes, but the server announced %d-byte records", i, len(r), x.c.info.RecordSize)
		}
	}
	return results, nil
}

// replyErr interprets a reply frame that carries no answer.
func replyErr(t pirproto.MsgType, payload []byte) error {
	switch t {
	case pirproto.MsgBusy:
		return ErrServerBusy
	case pirproto.MsgError:
		return fmt.Errorf("transport: server error: %s", payload)
	}
	return fmt.Errorf("transport: unexpected frame %v", t)
}

// Update is SendUpdate, then Recv.
func (c *Conn) Update(ctx context.Context, updates map[uint64][]byte) error {
	x, err := c.SendUpdate(ctx, updates)
	if err != nil {
		return err
	}
	_, err = x.Recv(ctx)
	return err
}

// Broken reports whether an I/O failure has lost the stream position,
// making every further exchange fail fast. The client layer redials a
// broken connection. Broken never blocks behind an exchange.
func (c *Conn) Broken() bool { return c.brokenErr() != nil }

func (c *Conn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Close closes the connection. Closing a connection a break already
// closed is not an error.
func (c *Conn) Close() error {
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
