// Package ingest is the binary pipelined append path into a provenance
// store: a TCP listener speaking checksummed wire frames (internal/wire
// stream + ingest codecs; spec in docs/protocol.md), built so a fleet
// of monitored principals can feed one global log as fast as the store
// can commit.
//
// Pipelining. A connection carries many requests in flight: the client
// does not wait for an ack before sending the next batch. Each request
// carries a client-chosen id, echoed in its reply, so replies match
// requests without ordering assumptions (the server does reply in
// request order, but clients need not rely on it).
//
// Adaptive batching. Each connection splits into a reader and a
// committer. The reader decodes request frames into a bounded queue;
// the committer drains whatever has accumulated — across requests —
// into one store.AppendBatch call, then acks every request in the round
// with its slice of the assigned contiguous sequence block. While a
// commit (and its fsync) runs, the queue refills, so batch size adapts
// to commit latency: the classic group-commit shape, the same one the
// runtime's sink pipeline uses in process.
//
// Exactly-once. The session is a property of the connection: its
// handshake (wire.OpIngestHello) must precede the first batch and
// cannot repeat, and every batch carries the session's monotonic batch
// sequence. A sequence the store's session table already holds is
// *re-acked* with its original global sequence block instead of being
// appended again. The table is checkpointed through the store (one
// sessions.log entry per committed batch, written before the ack) and
// recovered on open, so dedup survives a provd restart. The lookup →
// append → checkpoint round runs under the table lock, so a replay
// racing its original commit on another connection serialises behind
// it.
//
// Failure. A request the store rejects up front (validation) is
// answered with an error reply and costs nothing else: the connection
// and the other requests in its round proceed. A batch whose
// sequence has fallen out of the dedup window is likewise rejected per
// request (committing it blind could duplicate records). Frame-level
// corruption (bad checksum, truncation, an unparseable envelope) closes
// the connection after an error reply with id 0 — request boundaries
// can no longer be trusted. Acks are sent only after the store call
// returns, so an acked batch is as durable as the store's Options.Fsync
// promises.
//
// Reads. The same listener serves the binary read path (query.go in
// this package): OpQuery runs a typed query (internal/query) and
// streams its results back as chunk frames, with cursor pagination and
// an optional Follow mode that tails the live log — the remote
// replication and off-box audit primitive. Queries pipeline and
// interleave freely with ingest traffic on a connection.
//
// Drain. Close stops the accept loop, then drains every connection:
// requests already read are committed and acked, running queries end
// with a resume cursor, the encoder is flushed, and only then are
// connections closed. Requests a client wrote but the server had not
// read are dropped unacked — the client's retry discipline
// (internal/provclient) covers them.
package ingest

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/trust"
	"repro/internal/wire"
)

const (
	// connQueue is the per-connection pending-request bound. A full
	// queue blocks that connection's reader — per-connection
	// backpressure, not global.
	connQueue = 256
	// maxRoundActions caps how many actions one commit round hands to
	// store.AppendBatch, bounding the store lock hold of a single round
	// under a firehose of pipelined requests.
	maxRoundActions = 1 << 15
	// drainWriteTimeout bounds reply writes once Close begins, and a
	// TLS handshake. Healthy clients drain their acks and query ends
	// well inside it; a stalled reader (full TCP buffer under a live
	// follow) has its blocked writes failed after the timeout instead
	// of wedging Close forever.
	drainWriteTimeout = 5 * time.Second
)

// Options tunes the listener.
type Options struct {
	// Policy is the disclosure policy queries are redacted under (nil =
	// full disclosure) — the same policy provd's HTTP surface applies,
	// so the binary read path discloses exactly what HTTP would.
	Policy *trust.DisclosurePolicy
	// Engine, when set, serves queries instead of an engine built from
	// Policy. Pass provd's engine (provd.Server.Engine) so both read
	// surfaces share one set of redaction/denial counters — or a
	// cluster coordinator's scatter-gather runner, which is how one
	// binary read protocol serves both a single node and a partitioned
	// fleet. Required when the store is nil (coordinator mode).
	Engine query.Runner
	// MaxQueriesPerConn caps concurrently running queries (including
	// follows) per connection (default 8); one past the cap is rejected
	// with a query-end error, the connection survives.
	MaxQueriesPerConn int
	// LeaderAddr, when set, makes the listener a read replica's: all
	// append traffic (hello, batches) is refused with an error naming
	// this leader ingest address, while queries, follows and snapshots
	// are served unchanged. The replica's store has exactly one writer
	// (its Replicator), and a client that dials the wrong node learns
	// where the leader is.
	LeaderAddr string
	// TLS, when set, wraps the listener: every connection must complete
	// a TLS handshake before its first frame. With
	// tls.RequireAndVerifyClientCert and a ClientCAs pool this is the
	// mutual-TLS deployment shape (docs/security.md); the verified
	// client certificate is what Auth resolves identities from.
	TLS *tls.Config
	// IdlePark is how long a connection must be quiet — nothing
	// buffered, no queued requests, no running queries or follows —
	// before its reader/committer goroutines are torn down and the
	// connection parks (default 2s). A parked connection costs its file
	// descriptor, a small state record and one sentry goroutine blocked
	// in a one-byte read (about 1–2 KB of stack): its stream buffers go
	// back to the wire pools. The first byte from the peer wakes it; the
	// wire protocol is untouched — parking happens only at a frame
	// boundary, so neither side can observe it except as scheduling
	// latency on the first frame after an idle gap.
	IdlePark time.Duration
	// Cluster, when set, is this node's view of the partition map
	// (internal/cluster.Node). Two effects: the listener answers
	// wire.OpClusterMapReq with the map, and — on a leader, where Owns
	// can be true — every batch is ownership-checked, with batches
	// naming a principal this node does not own refused per request by
	// an error starting "cluster:" that names the node's epoch. A
	// routing client that sees one refetches the map and re-routes;
	// nothing from the refused batch was appended, so re-sending it to
	// the new owner under a fresh sequence is exactly-once safe.
	Cluster ClusterView
	// Auth, when set, turns on identity enforcement: a connection must
	// authenticate (client certificate on TLS, a wire.OpIngestAuth
	// token frame on cleartext) as an identity the guard's map knows,
	// and every operation is checked against that identity's grant —
	// appends against its principal set and append role, queries and
	// follows against its read role with the observer coerced to its
	// grant, snapshots against its replica role. Nil disables
	// enforcement (every caller may do anything), the pre-auth
	// behaviour the harness's -insecure shape keeps.
	Auth *auth.Guard
}

// ClusterView is what the listener needs from a partition map: whether
// this node owns a principal, which epoch the node's map carries, and
// the wire form of the map for serving to clients. internal/cluster's
// Node satisfies it; the interface keeps this package free of a
// dependency on the cluster layer.
type ClusterView interface {
	Owns(principal string) bool
	Epoch() uint64
	WireMap() wire.ClusterMap
}

func (o Options) withDefaults() Options {
	if o.MaxQueriesPerConn <= 0 {
		o.MaxQueriesPerConn = 8
	}
	if o.IdlePark <= 0 {
		o.IdlePark = 2 * time.Second
	}
	return o
}

// Stats is a snapshot of the listener's counters.
type Stats struct {
	Accepted        uint64 // connections accepted
	Active          uint64 // connections currently open
	Requests        uint64 // batch requests read
	Records         uint64 // actions acked durable
	Commits         uint64 // store.AppendBatch rounds
	Rejects         uint64 // error replies sent
	ConnFails       uint64 // connections dropped on protocol/write errors
	Sessions        uint64 // session handshakes accepted
	DedupReplays    uint64 // replayed batches re-acked without appending
	DedupRecords    uint64 // actions the dedup window kept out of the log
	DedupEvicted    uint64 // batches refused as outside the dedup window
	CheckpointFails uint64 // session-table checkpoint writes that failed (acks still truthful; replay protection for those batches lost)
	Queries         uint64 // query requests started (including follows)
	QueryRecords    uint64 // records served over the query ops
	Follows         uint64 // queries opened in follow mode
	QueryRejects    uint64 // queries answered with a query-end error
	Snapshots       uint64 // snapshot transfers started
	SnapshotRecords uint64 // records served over snapshot chunks
	Parked          uint64 // connections currently idle-parked (a sentry read instead of a reader/committer pair)
	Parks           uint64 // park transitions since start
	Wakes           uint64 // parked connections woken by traffic (or drain)
}

// Server is the binary ingest listener over a store. With a nil store
// (coordinator mode) it serves only the read plane: queries and
// follows run against Options.Engine, hellos are answered with a zero
// floor so ordinary clients can dial it, batches are refused per
// request (refuseAppend) and a snapshot request closes the connection.
type Server struct {
	store  *store.Store
	opts   Options
	engine query.Runner

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	accepted        atomic.Uint64
	active          atomic.Int64
	requests        atomic.Uint64
	records         atomic.Uint64
	commits         atomic.Uint64
	rejects         atomic.Uint64
	connFails       atomic.Uint64
	sessions        atomic.Uint64
	dedupReplays    atomic.Uint64
	dedupRecords    atomic.Uint64
	dedupEvicted    atomic.Uint64
	checkpointFails atomic.Uint64
	queries         atomic.Uint64
	queryRecords    atomic.Uint64
	follows         atomic.Uint64
	queryRejects    atomic.Uint64
	snapshots       atomic.Uint64
	snapshotRecords atomic.Uint64
	parked          atomic.Int64
	parks           atomic.Uint64
	wakes           atomic.Uint64
}

// NewServer wraps a store in an ingest listener.
func NewServer(st *store.Store, opts Options) *Server {
	opts = opts.withDefaults()
	engine := opts.Engine
	if engine == nil {
		if st == nil {
			panic("ingest: NewServer with a nil store requires Options.Engine")
		}
		engine = query.NewEngine(st, opts.Policy)
	}
	return &Server{
		store:  st,
		opts:   opts,
		engine: engine,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. With Options.TLS set the listener only
// speaks TLS; the handshake itself runs in each connection's handler.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if s.opts.TLS != nil {
		l = tls.NewListener(l, s.opts.TLS)
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Stats snapshots the listener's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:        s.accepted.Load(),
		Active:          uint64(max(s.active.Load(), 0)),
		Requests:        s.requests.Load(),
		Records:         s.records.Load(),
		Commits:         s.commits.Load(),
		Rejects:         s.rejects.Load(),
		ConnFails:       s.connFails.Load(),
		Sessions:        s.sessions.Load(),
		DedupReplays:    s.dedupReplays.Load(),
		DedupRecords:    s.dedupRecords.Load(),
		DedupEvicted:    s.dedupEvicted.Load(),
		CheckpointFails: s.checkpointFails.Load(),
		Queries:         s.queries.Load(),
		QueryRecords:    s.queryRecords.Load(),
		Follows:         s.follows.Load(),
		QueryRejects:    s.queryRejects.Load(),
		Snapshots:       s.snapshots.Load(),
		SnapshotRecords: s.snapshotRecords.Load(),
		Parked:          uint64(max(s.parked.Load(), 0)),
		Parks:           s.parks.Load(),
		Wakes:           s.wakes.Load(),
	}
}

// Close drains and stops the listener: no new connections are accepted,
// every request already read is committed and acked, then all
// connections close. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		s.wg.Wait()
		return
	default:
		close(s.done)
	}
	if s.listener != nil {
		s.listener.Close()
	}
	// Kick every reader out of its blocking read. Frames already in the
	// readers' userspace buffers still decode (a deadline only fails the
	// next syscall), so a just-sent request usually still lands; the
	// committer then drains and acks everything read before the conn
	// closes. Writes get a grace deadline rather than an immediate
	// kick: drain acks and query-end frames to healthy clients must
	// still land, but a peer that stopped reading (a stalled follow
	// consumer) cannot block its writer goroutines — and therefore this
	// Wait — forever.
	//
	// Parked connections need no extra signal: they stay in s.conns, so
	// the same read deadline fails their sentry's blocked read, and the
	// woken cycle sees the drain. A connection parking concurrently is
	// covered by ordering: done is closed before any deadline is set,
	// and awaitFrame checks isDraining after clearing its own probe
	// deadline — so either it sees the drain and closes, or its clear
	// came first and the kick set here stays in force for the sentry.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(drainWriteTimeout))
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go s.handle(conn)
	}
}

// request is one decoded batch request awaiting commit: its request id,
// its batch sequence under the connection's session, and its actions.
// The acts slice is drawn from the connection's freelist and returns
// there after the commit round that resolves it — including its fsync
// and ack write — completes.
type request struct {
	id       uint64
	acts     []logs.Action
	batchSeq uint64
}

func (s *Server) handle(conn net.Conn) {
	st := newConnState(conn)
	grant, ok := s.identify(conn, st.replies)
	if !ok {
		s.finish(st)
		return
	}
	st.grant = grant
	s.serveConn(st)
}

// serveConn runs one serve cycle — a reader/committer goroutine pair —
// over an identified connection, repeating after each wake until the
// connection ends or parks. Parking tears the pair down entirely; the
// sentry calls serveConn again when bytes arrive, so an idle
// connection's server-side presence is its connState and its sentry.
func (s *Server) serveConn(st *connState) {
	reqs := make(chan request, connQueue)
	cq := newConnQueries()
	committerDone := make(chan struct{})
	go func() {
		defer close(committerDone)
		s.commitLoop(st, reqs)
	}()

	verdict := s.readLoop(st, reqs, cq)
	close(reqs)     // reader done: let the committer drain what was read
	close(cq.done)  // and stop this connection's queries and follows
	cq.wg.Wait()    // every query has written its end frame (or given up)
	<-committerDone // committed, acked and flushed — park/close is now graceful

	if verdict == readPark {
		s.park(st) // the sentry re-runs serveConn
		return
	}
	s.finish(st)
}

// finish closes and unregisters a connection: the teardown half of
// accept.
func (s *Server) finish(st *connState) {
	st.conn.Close()
	s.mu.Lock()
	delete(s.conns, st.conn)
	s.mu.Unlock()
	s.active.Add(-1)
	s.wg.Done()
}

// identify runs the connection's TLS handshake (if any) and resolves
// its identity to a grant. A nil grant with ok=true means enforcement
// is off, or a cleartext connection that must still authenticate with
// its first frame (authenticate takes the token); ok=false means the
// connection was rejected and an id-0 error already sent.
func (s *Server) identify(conn net.Conn, replies *replyWriter) (*auth.Grant, bool) {
	tc, isTLS := conn.(*tls.Conn)
	if isTLS {
		// Handshake eagerly under a bound: a peer that connects and
		// stalls must not pin a handler goroutine forever, and the
		// handshake must not run lazily under the reply writer where a
		// failure is indistinguishable from a write error.
		conn.SetDeadline(time.Now().Add(drainWriteTimeout))
		if err := tc.Handshake(); err != nil {
			s.connFails.Add(1)
			return nil, false
		}
		conn.SetDeadline(time.Time{})
	}
	guard := s.opts.Auth
	if guard == nil {
		return nil, true
	}
	if isTLS {
		grant := guard.GrantForCert(tc.ConnectionState().PeerCertificates)
		if grant == nil {
			guard.ConnRejects.Add(1)
			return nil, s.closeConn(replies, "client certificate names no known identity")
		}
		return grant, true
	}
	// Cleartext with enforcement on: the first frame must be an auth
	// token (authenticate checks); no grant yet.
	return nil, true
}

// replyWriter is a connection's serialised reply channel: the reader's
// error replies, the committer's acks and the query and snapshot
// streams interleave under one mutex, sharing one scratch envelope
// encoder so steady-state acks allocate nothing.
type replyWriter struct {
	mu      sync.Mutex
	enc     *wire.StreamEncoder
	scratch *wire.Encoder
}

// write frames one reply envelope (no flush, caller holds mu),
// reporting success.
func (rw *replyWriter) write(build func(*wire.Encoder)) bool {
	rw.scratch.Reset()
	build(rw.scratch)
	return rw.enc.Envelope(rw.scratch.Bytes()) == nil
}

// send frames and flushes one reply, reporting whether the connection
// is still writable. Every reply except a commit round's acks
// (writeRoundReplies, one flush per round) goes through it: flushing
// per frame keeps follows live and lets a resuming client learn its
// replay floor from the hello ack before deciding what to re-send.
func (rw *replyWriter) send(build func(*wire.Encoder)) bool {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.write(build) && rw.enc.Flush() == nil
}

// closeConn sends the connection-scoped (id 0) error that precedes a
// close and counts the failure. It returns false — a reader-side
// handler's "stop reading" — so handlers can return it directly.
func (s *Server) closeConn(replies *replyWriter, msg string) bool {
	replies.send(func(e *wire.Encoder) { e.IngestError(0, "closing: "+msg) })
	s.connFails.Add(1)
	return false
}

// readVerdict is how a serve cycle's reader ended: the connection is
// done (close it) or merely idle (park it). readFrame is awaitFrame's
// "keep reading".
type readVerdict int

const (
	readFrame readVerdict = iota
	readClosed
	readPark
)

// readLoop is the connection's one frame loop: wait for a frame (the
// idle probe), hold every frame of a connection that still has to
// authenticate to the auth gate, then dispatch to the frame's family —
// ingest (queued for the committer), query, snapshot or cluster. It
// ends when the connection does (EOF, error or drain kick), when a
// handler reports the connection untrustworthy (after its id-0 error
// reply), or when the connection idles long enough to park. A drain
// kick (the read-deadline Close sets) must end the loop *silently*: the
// committer is about to ack everything read, and an id-0 error would
// make the client fail those very requests as connection-scoped.
func (s *Server) readLoop(st *connState, reqs chan<- request, cq *connQueries) readVerdict {
	for {
		if v := s.awaitFrame(st, reqs, cq); v != readFrame {
			return v
		}
		env, err := st.dec.Envelope()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isConnKick(err) {
				s.closeConn(st.replies, err.Error())
			}
			return readClosed
		}
		op, _ := wire.PeekOp(env) // a bad header fails the ingest decode
		var ok bool
		switch {
		case st.grant == nil && s.opts.Auth != nil:
			ok = s.authenticate(st, env)
		case wire.IsQueryOp(op):
			ok = s.handleQueryMsg(cq, st.replies, env, st.grant)
		case wire.IsSnapshotOp(op):
			ok = s.handleSnapshotMsg(cq, st.replies, env, st.grant)
		case wire.IsClusterOp(op):
			ok = s.handleClusterMsg(st.replies, env)
		default:
			ok = s.handleIngestMsg(st, reqs, env)
		}
		if !ok {
			return readClosed
		}
	}
}

// awaitFrame is the idle probe: with nothing buffered it waits up to
// IdlePark for the next frame's first byte, with Peek(1)
// under a read deadline. A peek that times out has consumed nothing, so
// the stream is still exactly at a frame boundary — the one place a
// connection can park (or drain) without either side losing protocol
// state. It returns readFrame when a frame is there to read.
func (s *Server) awaitFrame(st *connState, reqs chan<- request, cq *connQueries) readVerdict {
	for st.dec.Buffered() == 0 {
		if s.isDraining() {
			// Nothing is buffered, so there is nothing left this reader
			// owes the committer.
			return readClosed
		}
		st.conn.SetReadDeadline(time.Now().Add(s.opts.IdlePark))
		_, err := st.dec.Peek(1)
		st.conn.SetReadDeadline(time.Time{})
		switch {
		case err == nil:
			return readFrame
		case !isConnKick(err):
			if !errors.Is(err, io.EOF) {
				s.closeConn(st.replies, err.Error())
			}
			return readClosed
		case s.isDraining():
			return readClosed
		case len(reqs) == 0 && cq.active() == 0:
			return readPark
		}
		// Queries still running: stay resident, probe again.
	}
	return readFrame
}

// authenticate is the gate of a cleartext connection under
// enforcement: nothing proceeds until a token frame names a known
// identity, and anything else first is an unauthenticated caller that
// closes the connection.
func (s *Server) authenticate(st *connState, env []byte) bool {
	guard := s.opts.Auth
	m, err := wire.DecodeIngest(env)
	if err != nil || m.Op != wire.OpIngestAuth {
		guard.ConnRejects.Add(1)
		return s.closeConn(st.replies, "authentication required")
	}
	if st.grant = guard.Map.ByToken(m.Token); st.grant == nil {
		guard.ConnRejects.Add(1)
		return s.closeConn(st.replies, "unknown authentication token")
	}
	return true
}

// handleIngestMsg dispatches one ingest-family message from the reader,
// reporting whether the connection is still trustworthy: an auth frame
// on an identified connection is ignored, a hello opens the
// connection's session, and a batch is queued for the committer —
// unless refuseAppend turns the append away.
func (s *Server) handleIngestMsg(st *connState, reqs chan<- request, env []byte) bool {
	// Decode into the connection's reusable message, drawing the acts
	// buffer from its freelist: the steady-state decode of the hot path
	// allocates only what the interner has not yet seen.
	if st.msg.Acts == nil {
		st.msg.Acts = st.getActs()
	}
	m := &st.msg
	if err := wire.DecodeIngestInto(env, m, st.intern); err != nil {
		return s.closeConn(st.replies, fmt.Sprintf("bad ingest message: %v", err))
	}
	switch m.Op {
	case wire.OpIngestAuth:
		// Identity already established (client certificate, an earlier
		// token, or no enforcement at all): accepted and ignored, so
		// clients can send the frame uniformly.
		return true
	case wire.OpIngestHello, wire.OpIngestBatch2:
	default:
		return s.closeConn(st.replies, fmt.Sprintf("unexpected opcode %#x", m.Op))
	}
	if why := s.refuseAppend(st.grant, m); why != "" {
		// A batch is refused per request: "error means none appended"
		// holds, the connection and its other requests survive, and the
		// acts buffer stays in st.msg for the next decode. A hello
		// closes the connection: sessions exist only to make appends
		// idempotent, so a client opening one here is an appender that
		// must dial elsewhere.
		if m.Op == wire.OpIngestHello {
			return s.closeConn(st.replies, why)
		}
		s.rejects.Add(1)
		return st.replies.send(func(e *wire.Encoder) { e.IngestError(m.ID, why) })
	}
	if m.Op == wire.OpIngestHello {
		return s.hello(st, m)
	}
	if st.session == "" {
		return s.closeConn(st.replies, "batch before hello")
	}
	// The committer owns the acts buffer from here until the round that
	// resolves this request is fully acked; the next decode draws a
	// fresh buffer from the freelist.
	req := request{id: m.ID, acts: m.Acts, batchSeq: m.BatchSeq}
	st.msg.Acts = nil
	s.requests.Add(1)
	select {
	case reqs <- req:
		return true
	case <-s.done:
		// Drain began while the queue was full: this request was read
		// but cannot be queued without blocking forever; drop it
		// unacked, like an unread one.
		return false
	}
}

// refuseAppend is the one append-refusal decision: why this node will
// not take the hello or batch m from a connection holding grant, or ""
// to proceed. A read replica refuses every append op and names its
// leader; a coordinator holds no log, so it refuses batches but still
// answers hellos (every client handshakes on dial, query-only ones
// included); otherwise Admit decides on identity and ownership.
func (s *Server) refuseAppend(grant *auth.Grant, m *wire.IngestMsg) string {
	switch {
	case s.opts.LeaderAddr != "":
		return "read-only replica: appends must go to the leader at " + s.opts.LeaderAddr
	case s.store == nil && m.Op == wire.OpIngestBatch2:
		return "coordinator: appends go to the partition leaders; fetch the cluster map and route by principal"
	}
	rej := Admit(grant, s.opts.Cluster, m.Acts)
	if rej == nil {
		return ""
	}
	if rej.Reason != RejectNotOwner {
		s.opts.Auth.AppendRejects.Add(1)
	}
	return rej.Error()
}

// hello binds the connection to the idempotency session its handshake
// names. It must precede every batch and come only once, so no batch
// can be ambiguous about its session. The ack carries the session's
// replay floor (0 on a coordinator, which holds no log).
func (s *Server) hello(st *connState, m *wire.IngestMsg) bool {
	switch {
	case st.session != "":
		return s.closeConn(st.replies, "duplicate hello")
	case m.Version != wire.IngestV2:
		return s.closeConn(st.replies, fmt.Sprintf("unsupported ingest protocol version %d", m.Version))
	case m.Session == "":
		return s.closeConn(st.replies, "empty session id")
	}
	st.session = m.Session
	s.sessions.Add(1)
	floor := uint64(0)
	if s.store != nil {
		floor = s.store.Sessions().Max(st.session)
	}
	return st.replies.send(func(e *wire.Encoder) { e.IngestHelloAck(wire.IngestV2, floor) })
}

// handleClusterMsg answers one cluster-family message from the reader:
// a map request gets the node's partition map (or an error naming the
// absence of one); anything else in the family only flows server →
// client and closes the connection. The map is routing metadata, not
// log data, so any authenticated connection may fetch it regardless of
// role.
func (s *Server) handleClusterMsg(replies *replyWriter, env []byte) bool {
	m, err := wire.DecodeCluster(env)
	if err != nil {
		return s.closeConn(replies, fmt.Sprintf("bad cluster message: %v", err))
	}
	if m.Op != wire.OpClusterMapReq || m.ID == 0 {
		return s.closeConn(replies, fmt.Sprintf("unexpected cluster opcode %#x from client", m.Op))
	}
	cm, errMsg := wire.ClusterMap{}, "cluster: no partition map configured on this node"
	if cv := s.opts.Cluster; cv != nil {
		cm, errMsg = cv.WireMap(), ""
	}
	return replies.send(func(e *wire.Encoder) { e.ClusterMapResp(m.ID, cm, errMsg) })
}

// isConnKick reports whether a read error is a deadline expiry — the
// idle probe's timeout or the drain kick Close sets — rather than
// protocol damage worth counting as a failure. A peer reset is not a
// kick.
func isConnKick(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// commitLoop is the connection's committer: it drains whatever requests
// have queued, commits them in one store round, and acks each with its
// sub-block of the assigned sequence range. All round-scoped scratch —
// the outcome table, the coalesced action slice, the checkpoint entries
// — lives in the connection's commitScratch and is reused round after
// round, so a warm committer allocates nothing per round.
func (s *Server) commitLoop(st *connState, reqs <-chan request) {
	cs := &st.cs
	for {
		req, ok := <-reqs
		if !ok {
			return
		}
		cs.round = append(cs.round[:0], req)
		total := len(req.acts)
	coalesce:
		for total < maxRoundActions {
			select {
			case r, more := <-reqs:
				if !more {
					s.commitRound(st, cs)
					return
				}
				cs.round = append(cs.round, r)
				total += len(r.acts)
			default:
				break coalesce
			}
		}
		if !s.commitRound(st, cs) {
			// The peer is unreachable or the store failed mid-write:
			// further commits would append actions whose acks no one can
			// trust. Drain the queue so the reader never blocks, but
			// drop the requests.
			for range reqs {
				s.connFails.Add(1)
			}
			st.conn.Close()
			return
		}
	}
}

// retryableAlone reports whether a failed coalesced AppendBatch is
// known to have written nothing, making a per-request retry safe.
// Validation and shard-cap failures are detected before any byte is
// written. Anything else is an I/O error: a failed write is truncated
// back and leaves nothing, but a failed sync leaves the round written
// and its durability unknown, and the two are not told apart here, so
// re-appending could duplicate records.
func retryableAlone(err error) bool {
	return errors.Is(err, store.ErrInvalidAction) || errors.Is(err, store.ErrShardCap)
}

// outcome is one request's resolved reply, computed during the commit
// phase and written afterwards.
type outcome struct {
	kind  byte // oNone (unresolved), oAck, oReject, oAlias
	base  uint64
	count uint64
	msg   string
	alias int // oAlias: index of the round-mate this request duplicates
}

const (
	oNone byte = iota
	oAck
	oReject
	oAlias
)

// commitScratch is a committer's round-scoped working memory, owned by
// the connection and reused round after round (serve cycles never
// overlap, so a single instance per connection suffices). Everything
// here is either plain value state or slices whose elements the store
// copies out of before the round ends.
type commitScratch struct {
	round    []request
	outcomes []outcome
	toCommit []int
	all      []logs.Action
	entries  []wire.SessionEntry
	claimed  map[uint64]int // batch sequence → first round index holding it
}

// commitRound appends one coalesced round (cs.round) and writes its
// replies, reporting whether the connection is still usable. When it
// returns, every request's acts buffer has been handed back to the
// connection's freelist: the store has copied the actions it kept, the
// acks are on the wire, and nothing references the buffers again.
//
// Every request goes through the store's session table first, under
// the connection's session: a batch sequence the table holds is
// re-acked with its original block (never re-appended), one outside
// the dedup window is rejected, and everything genuinely new is
// committed and then checkpointed — entry before ack — under the table
// lock, so a replay racing its original commit on another connection
// blocks and then dedups. Store work runs first and replies are written
// afterwards, preserving round order.
func (s *Server) commitRound(st *connState, cs *commitScratch) bool {
	round, session := cs.round, st.session
	outcomes := cs.outcomes[:0]
	for range round {
		outcomes = append(outcomes, outcome{})
	}
	cs.outcomes = outcomes
	fatal := "" // set: the connection must close after the resolved replies

	tab := s.store.Sessions()
	tab.Lock()

	// Classify: replays and evictions resolve now; the rest commits.
	// Claims are strictly intra-round (committed rounds are visible via
	// the table itself), so the map clears between rounds.
	if cs.claimed == nil {
		cs.claimed = make(map[uint64]int)
	}
	claimed := cs.claimed
	clear(claimed)
	toCommit := cs.toCommit[:0]
	for i, r := range round {
		if j, dup := claimed[r.batchSeq]; dup {
			// The same batch sequence twice in one round (a client bug,
			// or a replay racing its original through one connection):
			// resolve to whatever its twin gets.
			outcomes[i] = outcome{kind: oAlias, alias: j}
			continue
		}
		base, count, res := tab.LookupLocked(session, r.batchSeq)
		switch res {
		case store.SessionReplay:
			outcomes[i] = outcome{kind: oAck, base: base, count: count}
			s.dedupReplays.Add(1)
			s.dedupRecords.Add(uint64(len(r.acts)))
		case store.SessionEvicted:
			outcomes[i] = outcome{kind: oReject, msg: fmt.Sprintf("batch seq %d of session %q evicted from dedup window: commit state unknowable", r.batchSeq, session)}
			s.dedupEvicted.Add(1)
		default:
			claimed[r.batchSeq] = i
			toCommit = append(toCommit, i)
		}
	}
	cs.toCommit = toCommit

	entries := cs.entries[:0]
	record := func(i int, base uint64) {
		n := uint64(len(round[i].acts))
		outcomes[i] = outcome{kind: oAck, base: base, count: n}
		entries = append(entries, wire.SessionEntry{Session: session, BatchSeq: round[i].batchSeq, Base: base, Count: n})
	}
	if len(toCommit) > 0 {
		all := cs.all[:0]
		for _, i := range toCommit {
			all = append(all, round[i].acts...)
		}
		cs.all = all
		base, err := s.store.AppendBatch(all)
		switch {
		case err == nil:
			s.commits.Add(1)
			s.records.Add(uint64(len(all)))
			off := uint64(0)
			for _, i := range toCommit {
				record(i, base+off)
				off += uint64(len(round[i].acts))
			}
		case !retryableAlone(err):
			// A failed write leaves nothing of the round, but a failed
			// sync leaves it written and its state unknown: no reply can
			// honour the protocol's "error means none appended" promise,
			// so report a connection-scoped failure and let the client's
			// replay discipline take over.
			s.connFails.Add(1)
			fatal = fmt.Sprintf("closing: commit failed: %v", err)
		default:
			// The coalesced batch was rejected before anything was
			// written. Retry each request on its own so one bad request
			// rejects alone instead of failing the round's innocent
			// bystanders.
			for _, i := range toCommit {
				r := round[i]
				rbase, rerr := s.store.AppendBatch(r.acts)
				switch {
				case rerr == nil:
					s.commits.Add(1)
					s.records.Add(uint64(len(r.acts)))
					record(i, rbase)
				case retryableAlone(rerr):
					s.rejects.Add(1)
					outcomes[i] = outcome{kind: oReject, msg: rerr.Error()}
				default: // I/O failure mid-isolation: same unknowable state as above
					s.connFails.Add(1)
					fatal = fmt.Sprintf("closing: commit failed: %v", rerr)
				}
				if fatal != "" {
					break
				}
			}
		}
	}
	if len(entries) > 0 {
		// Checkpoint before any ack leaves the process: a re-ack after
		// restart is only trustworthy if every acked batch has its entry
		// on disk first. A failed checkpoint does not undo the commit —
		// the acks below stay truthful — it just loses replay protection
		// for these batches, which the counter surfaces.
		if err := tab.AppendLocked(entries); err != nil {
			s.checkpointFails.Add(uint64(len(entries)))
		}
	}
	tab.Unlock()
	cs.entries = entries

	usable := s.writeRoundReplies(st.replies, round, outcomes, fatal)

	// Every request is now resolved with its replies on the wire (or
	// the connection is condemned): the store copied what it kept, so
	// the acts buffers go back to the connection's freelist for the
	// reader to decode into again.
	for i := range round {
		st.putActs(round[i].acts)
		round[i] = request{}
	}
	return usable
}

// writeRoundReplies writes a round's resolved replies in round order,
// then any fatal notice, reporting whether the connection is still
// usable.
func (s *Server) writeRoundReplies(replies *replyWriter, round []request, outcomes []outcome, fatal string) bool {
	replies.mu.Lock()
	defer replies.mu.Unlock()
	for i, o := range outcomes {
		if o.kind == oAlias {
			o = outcomes[o.alias]
			if o.kind == oAck {
				s.dedupReplays.Add(1)
				s.dedupRecords.Add(uint64(len(round[i].acts)))
			}
		}
		var ok bool
		switch o.kind {
		case oAck:
			ok = replies.write(func(e *wire.Encoder) { e.IngestAck(round[i].id, o.base, o.count) })
		case oReject:
			ok = replies.write(func(e *wire.Encoder) { e.IngestError(round[i].id, o.msg) })
		default: // unresolved: the fatal failure struck before this request committed
			continue
		}
		if !ok {
			return false
		}
	}
	if fatal != "" {
		if replies.write(func(e *wire.Encoder) { e.IngestError(0, fatal) }) {
			replies.enc.Flush()
		}
		return false
	}
	return replies.enc.Flush() == nil
}
