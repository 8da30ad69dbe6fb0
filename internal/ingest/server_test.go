package ingest

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

func newTestServer(t *testing.T, opts Options) (*Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := NewServer(st, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, st, addr
}

// rawConn is a hand-rolled client speaking frames directly, so a test
// controls exactly what crosses the wire and sees exactly what returns.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder
	seq uint64 // the last batch sequence sendBatch used
}

// rawSessions numbers the sessions dialRaw opens, one per connection.
var rawSessions atomic.Uint64

// dialRaw connects and completes the session handshake under a fresh
// session, leaving the connection ready for batches.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	rc := dialBare(t, addr)
	rc.handshake(fmt.Sprintf("raw-%d", rawSessions.Add(1)))
	return rc
}

// dialBare connects without a handshake, for tests that choreograph
// the hello themselves.
func dialBare(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, enc: wire.NewStreamEncoder(c), dec: wire.NewStreamDecoder(c)}
}

// frame writes one envelope built by build, without flushing.
func (rc *rawConn) frame(build func(*wire.Encoder)) {
	rc.t.Helper()
	e := wire.NewEncoder()
	build(e)
	if err := rc.enc.Envelope(e.Bytes()); err != nil {
		rc.t.Fatal(err)
	}
}

// sendBatch sends a batch under the connection's next batch sequence.
func (rc *rawConn) sendBatch(id uint64, acts []logs.Action) {
	rc.t.Helper()
	rc.seq++
	rc.sendBatch2(id, rc.seq, acts)
}

func (rc *rawConn) flush() {
	rc.t.Helper()
	if err := rc.enc.Flush(); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) readMsg() (wire.IngestMsg, error) {
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := rc.dec.Envelope()
	if err != nil {
		return wire.IngestMsg{}, err
	}
	return wire.DecodeIngest(env)
}

func act(p string, i int) logs.Action {
	return logs.SndAct(p, logs.NameT(fmt.Sprintf("m%d", i)), logs.NameT("v"))
}

func acts(p string, base, n int) []logs.Action {
	out := make([]logs.Action, n)
	for i := range out {
		out[i] = act(p, base+i)
	}
	return out
}

// TestIngestSingleBatch: one request, one ack carrying the assigned
// contiguous block, records visible in the store in batch order.
func TestIngestSingleBatch(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	rc := dialRaw(t, addr)
	batch := acts("alice", 0, 5)
	rc.sendBatch(7, batch)
	rc.flush()
	m, err := rc.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != wire.OpIngestAck || m.ID != 7 || m.Count != 5 {
		t.Fatalf("ack: %+v", m)
	}
	recs := st.ScanShardTail("alice", store.Filter{}, 0, -1)
	if len(recs) != 5 {
		t.Fatalf("store has %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != m.Base+uint64(i) || r.Act != batch[i] {
			t.Fatalf("record %d: %+v (ack base %d)", i, r, m.Base)
		}
	}
}

// TestIngestPipelined: many requests in flight before any ack is read.
// Every request is acked with a block of its exact size, blocks do not
// overlap, and same-connection requests land in send order.
func TestIngestPipelined(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	rc := dialRaw(t, addr)
	const nReq, perReq = 40, 8
	for id := 0; id < nReq; id++ {
		rc.sendBatch(uint64(id), acts("p", id*perReq, perReq))
	}
	rc.flush()
	var lastBase uint64
	for i := 0; i < nReq; i++ {
		m, err := rc.readMsg()
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if m.Op != wire.OpIngestAck || m.ID != uint64(i) || m.Count != perReq {
			t.Fatalf("ack %d: %+v", i, m)
		}
		if i > 0 && m.Base < lastBase+perReq {
			t.Fatalf("ack %d: block %d overlaps previous base %d", i, m.Base, lastBase)
		}
		lastBase = m.Base
	}
	recs := st.ScanShardTail("p", store.Filter{}, 0, -1)
	if len(recs) != nReq*perReq {
		t.Fatalf("store has %d records, want %d", len(recs), nReq*perReq)
	}
	for i, r := range recs {
		if want := act("p", i); r.Act != want {
			t.Fatalf("record %d out of order: got %v want %v", i, r.Act, want)
		}
	}
}

// TestIngestValidationError: a bad request is rejected alone — its
// round-mates commit and ack, and the connection stays usable.
func TestIngestValidationError(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.sendBatch(1, acts("good", 0, 3))
	rc.sendBatch(2, []logs.Action{{Principal: "", Kind: logs.Snd, A: logs.NameT("m"), B: logs.NameT("v")}})
	rc.sendBatch(3, acts("good", 3, 3))
	rc.flush()
	got := map[uint64]wire.IngestMsg{}
	for i := 0; i < 3; i++ {
		m, err := rc.readMsg()
		if err != nil {
			t.Fatal(err)
		}
		got[m.ID] = m
	}
	if got[1].Op != wire.OpIngestAck || got[3].Op != wire.OpIngestAck {
		t.Fatalf("good requests not acked: %+v", got)
	}
	if got[2].Op != wire.OpIngestError || !strings.Contains(got[2].Msg, "empty principal") {
		t.Fatalf("bad request reply: %+v", got[2])
	}
	if n := len(st.ScanShardTail("good", store.Filter{}, 0, -1)); n != 6 {
		t.Fatalf("store has %d good records, want 6", n)
	}
	// The connection survives a rejected request.
	rc.sendBatch(4, acts("good", 6, 1))
	rc.flush()
	if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck || m.ID != 4 {
		t.Fatalf("post-error request: %+v %v", m, err)
	}
}

// TestIngestMalformedFrame: garbage on the wire draws an id-0 error and
// a close, without disturbing other connections.
func TestIngestMalformedFrame(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	bad := dialRaw(t, addr)
	good := dialRaw(t, addr)

	if _, err := bad.c.Write([]byte{0x04, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	m, err := bad.readMsg()
	if err != nil {
		t.Fatalf("expected id-0 error reply, got %v", err)
	}
	if m.Op != wire.OpIngestError || m.ID != 0 {
		t.Fatalf("got %+v", m)
	}
	if _, err := bad.readMsg(); err == nil {
		t.Fatal("connection should be closed after frame damage")
	}

	good.sendBatch(1, acts("p", 0, 2))
	good.flush()
	if m, err := good.readMsg(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("good connection disturbed: %+v %v", m, err)
	}
	if n := len(st.ScanShardTail("p", store.Filter{}, 0, -1)); n != 2 {
		t.Fatalf("store has %d records, want 2", n)
	}
}

// TestIngestDrain: requests fully written before Close are committed
// and acked during the drain, and the connection then closes cleanly.
func TestIngestDrain(t *testing.T) {
	srv, st, addr := newTestServer(t, Options{})
	rc := dialRaw(t, addr)
	const nReq = 10
	for id := 0; id < nReq; id++ {
		rc.sendBatch(uint64(id), acts("p", id*2, 2))
	}
	rc.flush()
	// Give the reader a moment to pull the frames off the socket, then
	// drain. (Frames still in the kernel buffer at drain time may drop —
	// that is the documented contract — so wait for them to be read.)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Requests < nReq {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d/%d requests", srv.Stats().Requests, nReq)
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	acked := 0
	for {
		m, err := rc.readMsg()
		if err != nil {
			break // server closed after flushing its acks
		}
		if m.Op == wire.OpIngestError && m.ID == 0 {
			// A connection-scoped error during drain would make a real
			// client fail its in-flight requests — the drain kick must
			// end the reader silently.
			t.Fatalf("drain sent a connection-scoped error: %q", m.Msg)
		}
		if m.Op == wire.OpIngestAck {
			acked++
		}
	}
	if acked != nReq {
		t.Fatalf("drained %d acks, want %d", acked, nReq)
	}
	if n := len(st.ScanShardTail("p", store.Filter{}, 0, -1)); n != nReq*2 {
		t.Fatalf("store has %d records, want %d", n, nReq*2)
	}
}

// TestIngestStats: the counters add up after a mixed workload.
func TestIngestStats(t *testing.T) {
	srv, _, addr := newTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.sendBatch(1, acts("p", 0, 4))
	rc.sendBatch(2, []logs.Action{{Principal: "", Kind: logs.Snd, A: logs.NameT("m"), B: logs.NameT("v")}})
	rc.flush()
	for i := 0; i < 2; i++ {
		if _, err := rc.readMsg(); err != nil {
			t.Fatal(err)
		}
	}
	s := srv.Stats()
	if s.Accepted != 1 || s.Requests != 2 || s.Records != 4 || s.Rejects != 1 {
		t.Fatalf("stats: %+v", s)
	}
}
