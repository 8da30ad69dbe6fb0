package ingest

// Idle-connection parking: the piece of the listener that makes 10k
// mostly-idle monitored middlewares cost approximately nothing.
//
// A connection that has been quiet for Options.IdlePark — nothing
// buffered, nothing queued, no queries running — tears down its
// reader/committer goroutine pair, releases its stream buffers back to
// the wire pools, and registers its socket with a shared readiness
// poller. On Linux that poller is one epoll instance (poller_linux.go)
// watching every parked socket: a parked connection costs its file
// descriptor and a connState, zero goroutines. Elsewhere (or when a
// connection's fd cannot be extracted) a sentry goroutine performs a
// single blocking one-byte read — still one goroutine instead of two,
// and no 64 KiB buffer pair.
//
// Parking happens only with the stream at a frame boundary (the
// Peek-under-deadline probe in readLoop consumes nothing), so neither
// side can observe it except as scheduling latency on the first frame
// after an idle gap. The first byte from the peer — or the drain
// deadline Close sets — wakes the connection, which re-enters
// serveConn with all its protocol state (grant, session, interner,
// dedup position) intact in its connState.

import (
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"syscall"

	"repro/internal/auth"
	"repro/internal/logs"
	"repro/internal/wire"
)

var (
	errPollerClosed      = errors.New("ingest: poller closed")
	errPollerUnsupported = errors.New("ingest: no readiness poller on this platform")
)

// maxPooledActs bounds the capacity of an acts buffer the freelist
// keeps; anything larger is dropped to the GC so one huge batch cannot
// pin its worth of memory on the connection forever.
const maxPooledActs = 1 << 12

// maxFreelist bounds how many acts buffers a connection retains.
const maxFreelist = 64

// parkedScratchCap is the largest reply scratch a parked connection
// keeps; a scratch grown past it (by a large query chunk) is dropped
// on park so 10k parked connections cannot pin 10k chunk-sized
// buffers.
const parkedScratchCap = 4 << 10

// connState is a connection's whole server-side identity: everything
// that must survive a park/wake cycle. While the connection is active
// a reader and a committer share it; while parked it is all that
// remains.
type connState struct {
	conn    net.Conn
	rd      connReader   // decoder source: conn plus a one-byte pushback
	replies *replyWriter // serialised reply channel (reader errors + committer acks)
	dec     *wire.StreamDecoder
	intern  *wire.Interner
	grant   *auth.Grant

	session string         // idempotency session named by the hello ("" until it arrives)
	msg     wire.IngestMsg // reusable decode target; Acts drawn from the freelist
	cs      commitScratch  // the committer's round-scoped working memory

	freeMu sync.Mutex
	free   [][]logs.Action // recycled acts buffers, reader ⇄ committer
}

func newConnState(conn net.Conn) *connState {
	st := &connState{conn: conn}
	st.rd.c = conn
	st.replies = &replyWriter{enc: wire.NewStreamEncoder(conn), scratch: wire.NewEncoder()}
	st.intern = wire.NewInterner()
	st.dec = wire.NewStreamDecoder(&st.rd)
	st.dec.SetInterner(st.intern)
	return st
}

// connReader is the decoder's view of the connection: the raw conn
// plus room for one pushed-back byte. The sentry park path reads one
// byte directly from the conn to learn the peer woke up; pushing it
// back here keeps the stream intact without holding a buffer while
// parked.
type connReader struct {
	c   net.Conn
	pb  byte
	has bool
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.has {
		r.has = false
		p[0] = r.pb
		return 1, nil
	}
	return r.c.Read(p)
}

// getActs draws a recycled acts buffer from the freelist (nil if none:
// the decoder allocates on first use and the buffer enters circulation
// when its round completes).
func (st *connState) getActs() []logs.Action {
	st.freeMu.Lock()
	defer st.freeMu.Unlock()
	n := len(st.free)
	if n == 0 {
		return nil
	}
	a := st.free[n-1]
	st.free[n-1] = nil
	st.free = st.free[:n-1]
	return a
}

// poisonAction is what a recycled acts buffer is smeared with when the
// wire pools run in poison mode (testutil.PoisonPools): any component
// still reading a buffer after it was handed back sees this instead of
// the committed data, turning a silent aliasing bug into a loud
// mismatch.
var poisonAction = logs.Action{Principal: "\xdb\xdbpooled-acts-poison\xdb\xdb"}

// putActs returns an acts buffer to the freelist once nothing
// references it: after the commit round that consumed it has fsynced
// and written its acks.
func (st *connState) putActs(a []logs.Action) {
	if cap(a) == 0 || cap(a) > maxPooledActs {
		return
	}
	if wire.PoolPoisoned() {
		a = a[:cap(a)]
		for i := range a {
			a[i] = poisonAction
		}
	}
	st.freeMu.Lock()
	defer st.freeMu.Unlock()
	if len(st.free) < maxFreelist {
		st.free = append(st.free, a[:0])
	}
}

// dropScratch releases everything a parked connection need not hold:
// the freelist's acts buffers, the committer scratch, and the decode
// target. Protocol state (grant, session, interner) stays.
func (st *connState) dropScratch() {
	st.freeMu.Lock()
	st.free = nil
	st.freeMu.Unlock()
	st.cs = commitScratch{}
	st.msg = wire.IngestMsg{}
}

// release flushes and returns the reply writer's stream buffer to the
// wire pool and drops an oversized scratch, the write-side half of
// parking.
func (rw *replyWriter) release() {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.enc.Flush()
	rw.enc.ReleaseBuffers()
	if rw.scratch.Cap() > parkedScratchCap {
		rw.scratch = wire.NewEncoder()
	}
}

// isDraining reports whether Close has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// poller lazily creates the shared readiness poller (nil where
// unsupported, or once Close has claimed the init slot).
func (s *Server) poller() *netPoller {
	s.pollOnce.Do(func() {
		if p, err := newNetPoller(s.wake); err == nil {
			s.poll = p
		}
	})
	return s.poll
}

// park transfers an idle connection from its serve cycle to the
// poller. Called with both cycle goroutines already stopped and every
// queued request acked, so the buffers being released are guaranteed
// quiet.
func (s *Server) park(st *connState) {
	st.dropScratch()
	st.replies.release()
	st.dec.ReleaseBuffers()
	s.parks.Add(1)
	s.parked.Add(1)
	if p := s.poller(); p != nil {
		if fd, ok := connFD(st.conn); ok {
			if err := p.park(fd, st); err == nil {
				return
			}
		}
	}
	// Portable fallback: a sentry goroutine blocked in a one-byte read.
	// The byte (if one arrives) is pushed back into the decoder's
	// source, so the stream stays exactly at its frame boundary. A
	// read error wakes the connection too — the reborn readLoop
	// re-observes it (EOF and resets repeat; a drain kick re-fires via
	// the deadline already set by Close).
	go func() {
		var b [1]byte
		n, _ := st.rd.c.Read(b[:])
		if n == 1 {
			st.rd.pb = b[0]
			st.rd.has = true
		}
		s.wake(st)
	}()
}

// wake brings a parked connection back: a fresh serve cycle picks its
// connState up exactly where park left it.
func (s *Server) wake(st *connState) {
	s.parked.Add(-1)
	s.wakes.Add(1)
	go s.serveConn(st)
}

// connFD extracts a connection's file descriptor for the poller. TLS
// connections park by their underlying socket: a timed-out Peek proves
// the tls.Conn holds no undelivered plaintext (its Read drains
// buffered records before touching the socket), so readiness of the
// socket is exactly readiness of the stream.
func connFD(c net.Conn) (int, bool) {
	if tc, ok := c.(*tls.Conn); ok {
		c = tc.NetConn()
	}
	sc, ok := c.(syscall.Conn)
	if !ok {
		return 0, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return 0, false
	}
	fd := -1
	if cerr := rc.Control(func(f uintptr) { fd = int(f) }); cerr != nil || fd < 0 {
		return 0, false
	}
	return fd, true
}
