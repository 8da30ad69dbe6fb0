package provclient

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/wire"
)

// errConnBroken marks results delivered because the connection died
// rather than because the server replied; requests failing this way are
// replayed on a fresh connection under the same session batch sequence,
// so the server dedups any attempt that had in fact committed.
var errConnBroken = errors.New("provclient: connection broken")

// result is one request's outcome, delivered by the connection reader.
type result struct {
	base uint64
	err  error
}

// resultChPool recycles waiter channels across requests: a roundTrip
// that consumed its result deterministically hands the (now empty)
// channel back; one whose delivery state is unknowable (the timeout
// path) leaks its channel to the GC instead — a late reply must never
// land in a channel another request is already waiting on.
var resultChPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// conn is one pooled connection. Requests pipeline: the send path
// registers a waiter under the state mutex, then writes its frame under
// a separate write mutex — never holding the state mutex across a
// network write, so the reader's ack dispatch (which needs the state
// mutex) can always drain replies even while a writer is blocked in a
// backpressured send. The connection redials lazily after a failure:
// the next request pays the dial, every later one finds it warm. Every
// dial opens with the v2 hello, binding the connection's batches to the
// client's idempotency session.
type conn struct {
	addr        string
	dialTimeout time.Duration
	session     string      // the client's idempotency session
	tlsConf     *tls.Config // nil = cleartext
	token       string      // cleartext auth token ("" = none)

	mu      sync.Mutex // state: nc/gen/pending/nextID/closed — held across the dial handshake, never across request I/O
	nc      net.Conn
	gen     uint64 // bumped per dial so a stale reader cannot kill its successor
	nextID  uint64
	pending map[uint64]chan result
	closed  bool
	floor   uint64 // last helloack's committed batch sequence

	wmu     sync.Mutex // serialises frame writes on the live connection
	enc     *wire.StreamEncoder
	scratch *wire.Encoder // request envelope buffer, reused under wmu
}

// roundTrip sends one batch under the given session batch sequence and
// waits for its ack. A conn-level
// failure is reported wrapping errConnBroken and the connection is torn
// down; a server rejection comes back as *ServerError and leaves the
// connection usable.
func (cn *conn) roundTrip(acts []logs.Action, batchSeq uint64, timeout time.Duration) (uint64, error) {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return 0, ErrClosed
	}
	if cn.nc == nil {
		if err := cn.dialLocked(); err != nil {
			cn.mu.Unlock()
			return 0, fmt.Errorf("%w: %v", errConnBroken, err)
		}
	}
	if cn.nextID == 0 {
		cn.nextID = 1 // id 0 is reserved for server connection-scoped errors
	}
	id := cn.nextID
	cn.nextID++
	ch := resultChPool.Get().(chan result)
	cn.pending[id] = ch
	gen := cn.gen
	enc := cn.enc
	cn.mu.Unlock()

	// Write outside the state mutex. A concurrent failure/redial leaves
	// us writing to the old (closed) socket: the write errors, and
	// fail(gen) below is a no-op on the stale generation.
	cn.wmu.Lock()
	cn.scratch.Reset()
	cn.scratch.IngestBatch2(id, batchSeq, acts)
	err := enc.Envelope(cn.scratch.Bytes())
	if err == nil {
		err = enc.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		cn.fail(gen, err)
		// fail delivered errConnBroken to ch (or the reader beat us to
		// this request's reply); either way the waiter map is clean.
		res := <-ch
		resultChPool.Put(ch)
		if res.err != nil {
			return 0, res.err
		}
		return res.base, nil
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case res := <-ch:
		resultChPool.Put(ch)
		return res.base, res.err
	case <-timer:
		// The ack may still be in flight, but this request's outcome is
		// now unknowable in time: kill the connection (failing every
		// other in-flight request with it — they are retryable) rather
		// than leave a waiter that can never be matched again.
		cn.fail(gen, errors.New("request timed out"))
		select {
		case res := <-ch:
			resultChPool.Put(ch)
			return res.base, res.err
		default:
			// Delivery state unknowable: the channel does not return to
			// the pool.
			return 0, fmt.Errorf("%w: request timed out after %v", errConnBroken, timeout)
		}
	}
}

// dialLocked establishes the connection and starts its reader; the
// caller holds cn.mu. The v2 handshake runs synchronously before the
// reader starts: hello out, helloack back,
// the session's committed floor recorded — so by the time any batch
// can be written, the client knows where the committed prefix ends
// (Client.ensureSeeded relies on this to keep a resumed session's new
// sequences from colliding with a previous incarnation's).
func (cn *conn) dialLocked() error {
	nc, err := dial(cn.addr, cn.dialTimeout, cn.tlsConf, cn.token)
	if err != nil {
		return err
	}
	cn.nc = nc
	cn.enc = wire.NewStreamEncoder(nc)
	if cn.scratch == nil {
		cn.scratch = wire.NewEncoder()
	}
	dec := wire.NewStreamDecoder(nc)
	if err := cn.handshakeLocked(nc, dec); err != nil {
		nc.Close()
		cn.nc, cn.enc = nil, nil
		return err
	}
	cn.gen++
	if cn.pending == nil {
		cn.pending = make(map[uint64]chan result)
	}
	go cn.readLoop(dec, cn.gen)
	return nil
}

// dial establishes one connection the way every provclient dial site
// does — the pooled append conns and the read-path conns must
// authenticate identically, including on every retry redial. TCP
// first; then, under the same timeout, the TLS handshake (run eagerly
// so a certificate the server rejects fails the dial, not the first
// write); then, cleartext only, the auth token as the connection's
// first frame.
func dial(addr string, timeout time.Duration, tlsConf *tls.Config, token string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tlsConf != nil {
		if tlsConf.ServerName == "" && !tlsConf.InsecureSkipVerify {
			// Verify the server against the name being dialed, the same
			// default crypto/tls.Dial applies.
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			tlsConf = tlsConf.Clone()
			tlsConf.ServerName = host
		}
		tc := tls.Client(nc, tlsConf)
		tc.SetDeadline(time.Now().Add(timeout))
		if err := tc.Handshake(); err != nil {
			nc.Close()
			return nil, err
		}
		tc.SetDeadline(time.Time{})
		return tc, nil
	}
	if token != "" {
		e := wire.NewEncoder()
		e.IngestAuth(token)
		enc := wire.NewStreamEncoder(nc)
		if err := enc.Envelope(e.Bytes()); err == nil {
			err = enc.Flush()
		}
		if err != nil {
			nc.Close()
			return nil, err
		}
	}
	return nc, nil
}

// handshakeLocked runs the blocking hello/helloack exchange on a fresh
// connection, bounded by the dial timeout; the caller holds cn.mu.
func (cn *conn) handshakeLocked(nc net.Conn, dec *wire.StreamDecoder) error {
	e := wire.NewEncoder()
	e.IngestHello(wire.IngestV2, cn.session)
	if err := cn.enc.Envelope(e.Bytes()); err != nil {
		return err
	}
	if err := cn.enc.Flush(); err != nil {
		return err
	}
	nc.SetReadDeadline(time.Now().Add(cn.dialTimeout))
	defer nc.SetReadDeadline(time.Time{})
	env, err := dec.Envelope()
	if err != nil {
		return fmt.Errorf("session handshake: %w", err)
	}
	m, err := wire.DecodeIngest(env)
	if err != nil {
		return fmt.Errorf("session handshake: %w", err)
	}
	if m.Op != wire.OpIngestHelloAck || m.Version != wire.IngestV2 {
		return fmt.Errorf("session handshake: unexpected reply op %#x version %d", m.Op, m.Version)
	}
	cn.floor = m.BatchSeq
	return nil
}

// readLoop dispatches server replies to their waiters until the
// connection dies, then fails whatever is still pending. It takes over
// the dial's stream decoder (the handshake reply was consumed there, so
// a helloack here is a protocol violation handled by the default arm).
func (cn *conn) readLoop(dec *wire.StreamDecoder, gen uint64) {
	// The decoder dies with the connection: its frame buffer (and, if
	// clean, its read buffer) go back to the wire pools for the redial
	// to reacquire.
	defer dec.ReleaseBuffers()
	var msg wire.IngestMsg // reply decode target, reused frame to frame
	for {
		env, err := dec.Envelope()
		if err != nil {
			cn.fail(gen, err)
			return
		}
		if err := wire.DecodeIngestInto(env, &msg, nil); err != nil {
			cn.fail(gen, err)
			return
		}
		m := &msg
		switch m.Op {
		case wire.OpIngestAck:
			cn.deliver(m.ID, result{base: m.Base})
		case wire.OpIngestError:
			if m.ID == 0 {
				// Connection-scoped error (the server is closing us;
				// clients never use id 0): fail everything in flight.
				cn.fail(gen, fmt.Errorf("server closed connection: %s", m.Msg))
				return
			}
			cn.deliver(m.ID, result{err: &ServerError{Msg: m.Msg}})
		default:
			cn.fail(gen, fmt.Errorf("unexpected opcode %#x from server", m.Op))
			return
		}
	}
}

// sessionFloor returns the session's committed batch-sequence floor as
// reported by this connection's handshake, dialing (and handshaking)
// first if the connection is down.
func (cn *conn) sessionFloor() (uint64, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return 0, ErrClosed
	}
	if cn.nc == nil {
		if err := cn.dialLocked(); err != nil {
			return 0, fmt.Errorf("%w: %v", errConnBroken, err)
		}
	}
	return cn.floor, nil
}

// deliver hands one reply to its waiter (ignoring ids the connection no
// longer knows — e.g. a reply racing a timeout kill).
func (cn *conn) deliver(id uint64, res result) {
	cn.mu.Lock()
	ch, ok := cn.pending[id]
	delete(cn.pending, id)
	cn.mu.Unlock()
	if ok {
		ch <- res
	}
}

// fail tears down generation gen of the connection, failing all its
// in-flight requests. A stale generation (already redialed) is a no-op.
func (cn *conn) fail(gen uint64, cause error) {
	cn.mu.Lock()
	if cn.gen != gen || cn.nc == nil {
		cn.mu.Unlock()
		return
	}
	nc := cn.nc
	cn.nc = nil
	cn.enc = nil
	waiters := cn.pending
	cn.pending = make(map[uint64]chan result)
	cn.mu.Unlock()
	nc.Close()
	for _, ch := range waiters {
		ch <- result{err: fmt.Errorf("%w: %v", errConnBroken, cause)}
	}
}

// close tears down the connection for good: in-flight requests fail,
// and — unlike fail — no later roundTrip may redial it.
func (cn *conn) close() {
	cn.mu.Lock()
	cn.closed = true
	gen := cn.gen
	cn.mu.Unlock()
	cn.fail(gen, ErrClosed)
}
