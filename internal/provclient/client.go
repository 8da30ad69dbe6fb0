// Package provclient is the client side of the binary pipelined ingest
// protocol (internal/ingest, spec in docs/protocol.md): a monitored
// runtime, or any other producer of provenance actions, uses it to
// mirror its global log into a remote provd over framed binary records
// instead of HTTP/JSON documents.
//
// The client keeps a small pool of connections and pipelines requests
// over each: many appends are in flight at once, matched to their acks
// by request id. Single-action appends coalesce through an ack-clocked
// group-commit batcher, the shape ingest's commit loop has on the
// server: an Append that finds no group in flight ships at once; while
// one is in flight, later Appends join the open group, which ships the
// moment the in-flight one is acked (or at Options.MaxBatch, without
// waiting). There is no timer: an idle producer pays one round trip and
// nothing else, and under load the batch size follows the commit
// latency — however many actions arrived during one commit ride the
// next — so a chatty producer still pays one request per batch, not per
// action. One group in flight, not one per pooled connection: the
// server serialises commit rounds on the session table anyway, so a
// second concurrent group would only halve the batch and double the
// requests.
//
// Client implements runtime.Sink, so it can be installed directly with
// Net.SetSink: the runtime's ordered async pipeline drains its queue
// into AppendActions, which forwards each drained batch as one ingest
// request. On failure the prefix guarantee runtime.Sink demands holds:
// a multi-chunk batch stops at the first failed chunk, and the store
// commits a chunk all or nothing.
//
// Delivery is exactly-once. Every client owns an idempotency session
// (Options.Session, random by default): each connection opens with the
// v2 session handshake, and every batch carries the session's monotonic
// batch sequence number. A request whose connection died between write
// and ack is replayed on a fresh connection *with the same sequence*,
// so a server that had in fact committed it re-acks the original global
// sequence block instead of appending a duplicate — and because the
// server's dedup window is durably checkpointed, this holds across
// provd restarts too. Appends are never silently lost: an error return
// means the batch's tail did not commit.
//
// The client also speaks the binary read path (query.go), which is what
// remote replication and off-box audit are built on. QueryAll runs a
// typed, cursor-paginated remote query on a kept read connection: one
// whose last query ended cleanly waits on a small idle list (at most
// Conns) for the next, so a reader pays one handshake, not one per
// page. Query — a stream the caller holds, such as a live Follow of
// the log as it grows — and FetchSnapshot each dial their own.
package provclient

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"encoding/hex"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logs"
	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("provclient: closed")

// ServerError is a rejection reported by the server itself (validation,
// protocol misuse) rather than a transport failure; it is not retried —
// resending the same bytes would be rejected the same way.
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "provclient: server rejected batch: " + e.Msg }

// Options tunes a client.
type Options struct {
	// Conns is the connection pool size (default 4). Requests round-robin
	// over the pool; each connection pipelines independently. It also
	// caps the read connections QueryAll and FetchClusterMap keep idle.
	Conns int
	// MaxBatch caps actions per request (default 1024, hard cap
	// wire.MaxIngestBatch). Append's group batcher ships at this size;
	// AppendBatch splits larger batches into chunks of it.
	MaxBatch int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request's wait for its ack (default
	// 30s); zero waits forever.
	RequestTimeout time.Duration
	// Retries is how many times a request is re-sent after a connection
	// failure (default 2). Server rejections are never retried.
	Retries int
	// Session is the client's idempotency session identifier (default: a
	// random 128-bit hex string; one longer than wire.MaxSessionLen is
	// replaced by its SHA-256 hex digest, so distinct long names stay
	// distinct). All batches of one client instance share it, keyed by a
	// monotonic batch sequence, which is what makes replays after
	// reconnect dedupable. Name it explicitly only to resume a crashed
	// producer's session — two live clients must never share one. A
	// resumed session continues its sequence numbering after the
	// server's committed floor (learned in the connection handshake), so
	// new appends can never collide with a previous incarnation's
	// batches; see CommittedFloor for re-sending an unacked journal.
	Session string
	// TLSConfig, when set, dials TLS instead of cleartext: every
	// connection — pooled append conns and read-path conns alike,
	// including every redial after a failure — handshakes with it
	// before its first frame. For the mutual-TLS deployment
	// shape it carries the client certificate the server resolves an
	// identity from and the CA pool the server is verified against
	// (internal/testutil.TestCA builds both for tests).
	TLSConfig *tls.Config
	// Token, when set, authenticates cleartext connections: each dial
	// opens with one wire.OpIngestAuth frame carrying it, naming an
	// identity in the server's auth map (the -insecure dev shape).
	// Unused when TLSConfig is set — there the certificate is the
	// identity.
	Token string
	// Journal, when set, write-ahead journals every chunk before its
	// first wire write and marks it on ack, closing exactly-once across
	// producer crashes (see OpenJournal and ReplayJournal). A journal
	// that already names a session overrides Session — the journal and
	// the session resume together.
	Journal *Journal
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBatch > wire.MaxIngestBatch {
		o.MaxBatch = wire.MaxIngestBatch
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	return o
}

// group is one group-commit batch: every Append joining it waits on
// done and then reads its own seq off base+its offset.
type group struct {
	acts []logs.Action
	done chan struct{}
	base uint64
	err  error
}

// Client is a pooled, pipelined ingest client.
type Client struct {
	addr string
	opts Options

	conns []*conn
	rr    atomic.Uint64 // round-robin cursor
	seq   atomic.Uint64 // session batch sequence; the next batch gets seq.Add(1)

	// seedMu/seeded gate the one-time floor seeding (see ensureSeeded):
	// no batch sequence is assigned until the server has reported the
	// session's committed floor, so a resumed session continues after
	// its previous incarnation instead of colliding with it.
	seedMu sync.Mutex
	seeded atomic.Bool
	floor  atomic.Uint64

	mu     sync.Mutex // guards cur, flight, idle and closed
	cur    *group     // the open group: joined by Appends, not yet shipped
	flight []*group   // shipped, not yet acked
	idle   []*qconn   // kept read connections, at most opts.Conns (query.go)
	closed bool
}

// New returns a client for the ingest listener at addr. Connections are
// established lazily, so New cannot fail; the first append surfaces
// unreachability.
func New(addr string, opts Options) *Client {
	opts = opts.withDefaults()
	if opts.Session == "" {
		var b [16]byte
		rand.Read(b[:]) // never fails (crypto/rand panics rather than returning short)
		opts.Session = hex.EncodeToString(b[:])
	} else if len(opts.Session) > wire.MaxSessionLen {
		// Hash rather than truncate: truncation would silently merge two
		// long names sharing a prefix into one session, whose colliding
		// sequence numbers dedup each other's data away.
		sum := sha256.Sum256([]byte(opts.Session))
		opts.Session = hex.EncodeToString(sum[:])
	}
	if opts.Journal != nil {
		// A journal carrying a session is a crashed incarnation's: resume
		// it (its pending batches were journaled under that session's
		// sequences). A fresh journal binds to this client's session.
		if prev := opts.Journal.Session(); prev != "" {
			opts.Session = prev
		} else {
			opts.Journal.bind(opts.Session)
		}
	}
	c := &Client{addr: addr, opts: opts, conns: make([]*conn, opts.Conns)}
	for i := range c.conns {
		c.conns[i] = &conn{addr: addr, dialTimeout: opts.DialTimeout, session: opts.Session, tlsConf: opts.TLSConfig, token: opts.Token}
	}
	return c
}

// Session returns the client's idempotency session identifier. A producer that persists its unsent batches can store
// this beside them and resume the session after a crash with
// Options.Session; see CommittedFloor for trimming the journal before
// re-sending.
func (c *Client) Session() string { return c.opts.Session }

// CommittedFloor reports the highest batch sequence the server had
// durably committed for this session when the client first handshook
// (0 for a fresh session), connecting to learn it if necessary.
//
// This is the crash-resume contract: a producer that journals its
// batches in send order with the sequence each was assigned (the order
// of its AppendBatch calls when Conns is 1) resumes by trimming the
// journal to entries *above* this floor and re-sending the rest — the
// trimmed ones are provably durable, the re-sent ones get fresh
// sequences after the floor and so are appended exactly once. With
// Conns > 1 batches commit out of order and the floor may overstate
// the contiguous committed prefix, so in-order producers that need
// this guarantee should use a single connection.
func (c *Client) CommittedFloor() (uint64, error) {
	if c.isClosed() {
		return 0, ErrClosed
	}
	if err := c.ensureSeeded(); err != nil {
		return 0, err
	}
	return c.floor.Load(), nil
}

// ensureSeeded performs the one-time floor seeding: before the first
// batch sequence is assigned, learn the session's committed floor from
// the server and start the counter past it. Without this, a resumed
// session's counter would restart at 1 and its *new* batches would be
// classified as replays of the previous incarnation's — acked against
// old data and silently dropped.
func (c *Client) ensureSeeded() error {
	if c.seeded.Load() {
		return nil
	}
	c.seedMu.Lock()
	defer c.seedMu.Unlock()
	if c.seeded.Load() {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		cn := c.pick()
		floor, err := cn.sessionFloor()
		if err == nil {
			c.floor.Store(floor)
			// With a journal in play the counter must also clear every
			// journaled-but-uncommitted sequence, or a new batch could
			// collide with one ReplayJournal is about to re-send.
			seed := floor
			if c.opts.Journal != nil {
				seed = max(seed, c.opts.Journal.MaxSeq())
			}
			c.seq.Store(seed)
			c.seeded.Store(true)
			return nil
		}
		if errors.Is(err, ErrClosed) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// Append appends one action, returning its assigned global sequence
// number. Concurrent Appends coalesce into shared batches (see the
// package comment); the call returns once the batch holding the action
// is acked durable.
func (c *Client) Append(a logs.Action) (uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	g := c.cur
	if g == nil {
		g = &group{done: make(chan struct{})}
		c.cur = g
	}
	idx := len(g.acts)
	g.acts = append(g.acts, a)
	// The ack clock: with nothing in flight there is nothing to wait
	// for; otherwise the in-flight group's ack ships this one, unless
	// MaxBatch does first.
	ship := len(c.flight) == 0 || len(g.acts) >= c.opts.MaxBatch
	if ship {
		c.detachLocked()
	}
	c.mu.Unlock()

	if ship {
		// On this goroutine: an idle Append is one request round trip,
		// with no hand-off to pay for on the way out or back.
		c.run(g)
	} else {
		<-g.done
	}
	if g.err != nil {
		return 0, g.err
	}
	return g.base + uint64(idx), nil
}

// detachLocked moves the open group into flight, so that later Appends
// open a new one; the caller holds c.mu and must run the group.
func (c *Client) detachLocked() *group {
	g := c.cur
	c.cur = nil
	c.flight = append(c.flight, g)
	return g
}

// run sends a detached group and resolves its members. When the answer
// (an ack or a failure) leaves nothing in flight, whatever gathered in
// the meantime ships next, on a goroutine of its own: the caller may be
// an Append with its own result to return.
func (c *Client) run(g *group) {
	g.base, g.err = c.send(g.acts)
	close(g.done)
	c.mu.Lock()
	c.flight = slices.DeleteFunc(c.flight, func(f *group) bool { return f == g })
	if len(c.flight) == 0 && c.cur != nil {
		go c.run(c.detachLocked())
	}
	c.mu.Unlock()
}

// AppendBatch appends a batch in order, returning the first assigned
// sequence number; a batch within MaxBatch gets one contiguous block
// (base+i for action i). Larger batches are split into MaxBatch-sized
// requests — still appended in order, but each chunk gets its own
// block, contiguous only within itself. A failure means a prefix of
// whole chunks committed: the failing chunk committed nothing.
func (c *Client) AppendBatch(acts []logs.Action) (uint64, error) {
	if c.isClosed() {
		return 0, ErrClosed
	}
	return c.send(acts)
}

// AppendActions implements runtime.Sink: the runtime pipeline's
// drained batches forward as ingest requests.
func (c *Client) AppendActions(batch []logs.Action) error {
	_, err := c.AppendBatch(batch)
	return err
}

// send ships acts as one or more requests, chunked to MaxBatch.
func (c *Client) send(acts []logs.Action) (uint64, error) {
	if len(acts) == 0 {
		return 0, nil
	}
	first := uint64(0)
	for start := 0; start < len(acts); start += c.opts.MaxBatch {
		end := min(start+c.opts.MaxBatch, len(acts))
		base, err := c.sendChunk(acts[start:end])
		if err != nil {
			return 0, err
		}
		if start == 0 {
			first = base
		}
	}
	return first, nil
}

// sendChunk ships one request with replay-on-reconnect: the chunk is
// assigned its session batch sequence once, and a connection failure
// re-sends it — same sequence — on the next pooled connection (redialing
// as needed) up to Options.Retries times, so a server that committed the
// first attempt re-acks the original block instead of duplicating it.
// Server rejections return immediately.
func (c *Client) sendChunk(acts []logs.Action) (uint64, error) {
	if err := c.ensureSeeded(); err != nil {
		return 0, err
	}
	batchSeq := c.seq.Add(1)
	j := c.opts.Journal
	if j != nil {
		// Journal-before-send: the chunk is on disk under its sequence
		// before any wire write, so a producer crash between here and
		// the ack leaves a replayable record instead of a silent loss.
		if err := j.record(batchSeq, acts); err != nil {
			return 0, err
		}
	}
	base, err := c.deliver(acts, batchSeq)
	if err == nil && j != nil {
		j.ack(batchSeq)
	}
	return base, err
}

// deliver ships one chunk under an already-assigned sequence, retrying
// transport failures with the same sequence.
func (c *Client) deliver(acts []logs.Action, batchSeq uint64) (uint64, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		cn := c.pick()
		base, err := cn.roundTrip(acts, batchSeq, c.opts.RequestTimeout)
		if err == nil {
			return base, nil
		}
		var srvErr *ServerError
		if errors.As(err, &srvErr) || errors.Is(err, ErrClosed) {
			return 0, err // rejection or closed client: retrying cannot help
		}
		lastErr = err
	}
	return 0, lastErr
}

// pick rotates through the pool.
func (c *Client) pick() *conn {
	return c.conns[(c.rr.Add(1)-1)%uint64(len(c.conns))]
}

// Flush ships the open group, if any, and waits for it and for every
// group shipped before it — Flush returning nil means every Append that
// had joined a group by the time of the call is durable on the server.
func (c *Client) Flush() error {
	c.mu.Lock()
	shipped := c.flushLocked()
	c.mu.Unlock()
	return wait(shipped)
}

// flushLocked ships the open group and returns everything now in
// flight; the caller holds c.mu.
func (c *Client) flushLocked() []*group {
	if c.cur != nil {
		go c.run(c.detachLocked())
	}
	return slices.Clone(c.flight)
}

// wait blocks until every group is resolved and returns the first
// failure among them.
func wait(groups []*group) error {
	var err error
	for _, g := range groups {
		<-g.done
		if err == nil {
			err = g.err
		}
	}
	return err
}

// Close flushes — every Append accepted before Close gets its answer
// from the server, not from the teardown — and then closes the pool and
// the idle read connections. Further calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	shipped := c.flushLocked()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, qc := range idle {
		qc.nc.Close()
	}
	err := wait(shipped)
	for _, cn := range c.conns {
		cn.close()
	}
	if c.opts.Journal != nil {
		c.opts.Journal.Close()
	}
	return err
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
