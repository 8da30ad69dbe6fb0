package ingest

// Idle-connection parking: what lets one listener hold a fleet of
// mostly-idle monitored middlewares without paying for their buffers.
//
// A connection that has been quiet for Options.IdlePark — nothing
// buffered, nothing queued, no queries running — tears down its
// reader/committer goroutine pair and releases its stream buffers back
// to the wire pools. What is left is its file descriptor, its connState
// and one fresh sentry goroutine blocked in a one-byte read, parked on
// Go's own netpoller: about 1–2 KB of stack instead of two grown
// goroutines and a 64 KiB buffer pair.
//
// Parking happens only with the stream at a frame boundary (the
// Peek-under-deadline probe in readLoop consumes nothing), so neither
// side can observe it except as scheduling latency on the first frame
// after an idle gap. The first byte from the peer — or the drain
// deadline Close sets — wakes the connection, which re-enters
// serveConn with all its protocol state (grant, session, interner,
// dedup position) intact in its connState.

import (
	"net"
	"sync"

	"repro/internal/auth"
	"repro/internal/logs"
	"repro/internal/wire"
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

// park hands an idle connection from its serve cycle to a sentry: a
// fresh goroutine blocked in a one-byte read of the connection (through
// the *tls.Conn on TLS, so record decryption stays its business). The
// byte, if one arrives, is pushed back into the decoder's source, so the
// stream stays exactly at its frame boundary, and the sentry becomes the
// next serve cycle. A read error wakes the connection too: the reborn
// readLoop re-observes it (EOF and resets repeat; a drain kick re-fires
// through the deadline Close set).
//
// Called with both cycle goroutines stopped and every queued request
// acked, so the buffers being released are guaranteed quiet. The sentry
// is fresh rather than the serve goroutine itself because a goroutine
// that has run a serve cycle keeps its grown stack while it waits.
func (s *Server) park(st *connState) {
	st.dropScratch()
	st.replies.release()
	st.dec.ReleaseBuffers()
	s.parks.Add(1)
	s.parked.Add(1)
	go func() {
		var b [1]byte
		if n, _ := st.conn.Read(b[:]); n == 1 {
			st.rd.pb, st.rd.has = b[0], true
		}
		s.parked.Add(-1)
		s.wakes.Add(1)
		s.serveConn(st)
	}()
}
