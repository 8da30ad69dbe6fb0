package ingest

// Tests for the exactly-once half of the listener: the session
// handshake, the per-session dedup window, replay re-acks, eviction,
// and the retired v1 batch opcode. These drive raw wire connections so
// the replay choreography (send the same batch sequence twice, across
// connections, across server restarts) is exact; the client-side view
// lives in internal/provclient and the full e2e in internal/provd.

import (
	"strings"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

func (rc *rawConn) sendHello(version uint64, session string) {
	rc.t.Helper()
	rc.frame(func(e *wire.Encoder) { e.IngestHello(version, session) })
}

func (rc *rawConn) sendBatch2(id, batchSeq uint64, acts []logs.Action) {
	rc.t.Helper()
	rc.frame(func(e *wire.Encoder) { e.IngestBatch2(id, batchSeq, acts) })
}

// handshake sends a hello and consumes the helloack, returning the
// server's highest committed batch sequence for the session.
func (rc *rawConn) handshake(session string) uint64 {
	rc.t.Helper()
	rc.sendHello(wire.IngestV2, session)
	rc.flush()
	m, err := rc.readMsg()
	if err != nil {
		rc.t.Fatal(err)
	}
	if m.Op != wire.OpIngestHelloAck || m.Version != wire.IngestV2 {
		rc.t.Fatalf("handshake reply: %+v", m)
	}
	return m.BatchSeq
}

// TestSessionReplayReAck: the same batch sequence sent twice on one
// connection is appended once; the replay's ack carries the original
// sequence block.
func TestSessionReplayReAck(t *testing.T) {
	srv, st, addr := newTestServer(t, Options{})
	rc := dialBare(t, addr)
	if max := rc.handshake("sess-a"); max != 0 {
		t.Fatalf("fresh session reports max %d", max)
	}

	batch := acts("p", 0, 4)
	rc.sendBatch2(1, 1, batch)
	rc.flush()
	first, err := rc.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if first.Op != wire.OpIngestAck || first.ID != 1 || first.Count != 4 {
		t.Fatalf("first ack: %+v", first)
	}

	rc.sendBatch2(2, 1, batch) // the replay: same batch seq, fresh request id
	rc.flush()
	second, err := rc.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if second.Op != wire.OpIngestAck || second.ID != 2 {
		t.Fatalf("replay ack: %+v", second)
	}
	if second.Base != first.Base || second.Count != first.Count {
		t.Fatalf("replay re-acked %d+%d, want the original %d+%d", second.Base, second.Count, first.Base, first.Count)
	}
	if n := st.Len(); n != 4 {
		t.Fatalf("store has %d records, want 4 (no duplicate append)", n)
	}
	stats := srv.Stats()
	if stats.DedupReplays != 1 || stats.DedupRecords != 4 {
		t.Fatalf("dedup stats: %+v", stats)
	}
}

// TestSessionReplayAcrossConnections: a replay arriving on a fresh
// connection — the client reconnected after losing the ack — finds the
// committed entry, and the handshake reports the session's floor.
func TestSessionReplayAcrossConnections(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})

	rc1 := dialBare(t, addr)
	rc1.handshake("sess-b")
	rc1.sendBatch2(1, 1, acts("p", 0, 3))
	rc1.flush()
	first, err := rc1.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	rc1.c.Close() // the ack was "lost": the client dies before processing it

	rc2 := dialBare(t, addr)
	if max := rc2.handshake("sess-b"); max != 1 {
		t.Fatalf("resumed session reports max %d, want 1", max)
	}
	rc2.sendBatch2(1, 1, acts("p", 0, 3))
	rc2.flush()
	replay, err := rc2.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Op != wire.OpIngestAck || replay.Base != first.Base || replay.Count != first.Count {
		t.Fatalf("cross-connection replay: %+v, want block %d+%d", replay, first.Base, first.Count)
	}
	if n := st.Len(); n != 3 {
		t.Fatalf("store has %d records, want 3", n)
	}
}

// TestSessionDedupSurvivesRestart: the session table is durable — a
// replay against a server recovered from the same store directory is
// still re-acked with the original block, not appended again.
func TestSessionDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialBare(t, addr)
	rc.handshake("sess-c")
	rc.sendBatch2(1, 1, acts("p", 0, 5))
	rc.flush()
	first, err := rc.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := NewServer(st2, Options{})
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	rc2 := dialBare(t, addr2)
	if max := rc2.handshake("sess-c"); max != 1 {
		t.Fatalf("recovered session reports max %d, want 1", max)
	}
	rc2.sendBatch2(1, 1, acts("p", 0, 5))
	rc2.flush()
	replay, err := rc2.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Op != wire.OpIngestAck || replay.Base != first.Base || replay.Count != first.Count {
		t.Fatalf("post-restart replay: %+v, want block %d+%d", replay, first.Base, first.Count)
	}
	if n := st2.Len(); n != 5 {
		t.Fatalf("recovered store has %d records, want 5", n)
	}
	if got := srv2.Stats().DedupReplays; got != 1 {
		t.Fatalf("DedupReplays = %d, want 1", got)
	}
}

// TestSessionEvictionRejected: a batch sequence that has fallen out of
// the dedup window is refused with a request-scoped error — committing
// it blind could duplicate records — and the connection stays usable.
func TestSessionEvictionRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SessionWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := NewServer(st, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	rc := dialBare(t, addr)
	rc.handshake("sess-d")
	for seq := uint64(1); seq <= 5; seq++ {
		rc.sendBatch2(seq, seq, acts("p", int(seq), 1))
		rc.flush()
		if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck {
			t.Fatalf("seq %d: %+v %v", seq, m, err)
		}
	}
	rc.sendBatch2(9, 1, acts("p", 1, 1)) // ancient replay: outside the window of 2
	rc.flush()
	m, err := rc.readMsg()
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != wire.OpIngestError || m.ID != 9 || !strings.Contains(m.Msg, "evicted") {
		t.Fatalf("evicted replay: %+v", m)
	}
	if got := srv.Stats().DedupEvicted; got != 1 {
		t.Fatalf("DedupEvicted = %d, want 1", got)
	}
	// The connection survives a per-request rejection.
	rc.sendBatch2(10, 6, acts("p", 6, 1))
	rc.flush()
	if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("post-eviction batch: %+v %v", m, err)
	}
	if n := st.Len(); n != 6 {
		t.Fatalf("store has %d records, want 6", n)
	}
}

// TestHandshakeProtocolErrors: batches before a hello, bad
// hello versions, empty sessions and duplicate hellos are all
// connection-scoped failures.
func TestHandshakeProtocolErrors(t *testing.T) {
	_, _, addr := newTestServer(t, Options{})

	expectClose := func(name string, drive func(rc *rawConn)) {
		t.Helper()
		rc := dialBare(t, addr)
		drive(rc)
		rc.flush()
		for {
			m, err := rc.readMsg()
			if err != nil {
				t.Fatalf("%s: connection died without an id-0 error: %v", name, err)
			}
			if m.Op == wire.OpIngestHelloAck {
				continue // the leg that sends a valid hello first
			}
			if m.Op != wire.OpIngestError || m.ID != 0 {
				t.Fatalf("%s: got %+v, want id-0 error", name, m)
			}
			return
		}
	}
	expectClose("batch2 before hello", func(rc *rawConn) {
		rc.sendBatch2(1, 1, acts("p", 0, 1))
	})
	expectClose("bad version", func(rc *rawConn) {
		rc.sendHello(99, "sess-x")
	})
	expectClose("empty session", func(rc *rawConn) {
		rc.sendHello(wire.IngestV2, "")
	})
	expectClose("duplicate hello", func(rc *rawConn) {
		rc.sendHello(wire.IngestV2, "sess-y")
		rc.sendHello(wire.IngestV2, "sess-y")
	})
}

// TestRetiredBatchOpcodeCloses: opcode 0x21, the sessionless batch of
// protocol revision 1, is retired. A well-formed v1 batch frame, before
// or after a hello, draws an id-0 error and a close and appends
// nothing.
func TestRetiredBatchOpcodeCloses(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	e := wire.NewEncoder()
	e.IngestBatch2(1, 1, acts("p", 0, 2))
	env := e.Bytes()
	// env is MAGIC(2) VERSION(1) op id batchSeq n action*n, with one-byte
	// id and batchSeq; a v1 batch was the same under op 0x21 without
	// the batchSeq.
	v1 := append([]byte{env[0], env[1], env[2], 0x21, env[4]}, env[6:]...)
	for _, rc := range []*rawConn{dialBare(t, addr), dialRaw(t, addr)} {
		if err := rc.enc.Envelope(v1); err != nil {
			t.Fatal(err)
		}
		rc.flush()
		m, err := rc.readMsg()
		if err != nil || m.Op != wire.OpIngestError || m.ID != 0 || !strings.Contains(m.Msg, "bad ingest message") {
			t.Fatalf("retired opcode: %+v %v, want an id-0 error", m, err)
		}
		if _, err := rc.readMsg(); err == nil {
			t.Fatal("connection should be closed after a retired opcode")
		}
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store has %d records, want 0", n)
	}
}
