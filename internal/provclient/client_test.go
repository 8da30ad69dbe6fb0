package provclient

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/testutil"
)

// newBackend and act delegate to the shared fixture kit; the wrappers
// exist so the suite's many call sites keep their historical shape.
func newBackend(t *testing.T, opts ingest.Options) (*ingest.Server, *store.Store, string) {
	t.Helper()
	st, srv, addr := testutil.NewBackend(t, opts)
	return srv, st, addr
}

func act(p string, i int) logs.Action { return testutil.Act(p, i) }

// TestAppendBatch: a batch lands in order with the acked contiguous
// sequence block.
func TestAppendBatch(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()

	batch := []logs.Action{act("a", 0), act("a", 1), act("b", 2)}
	base, err := c.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	recs := st.ScanGlobalTail(0, -1)
	if len(recs) != len(batch) {
		t.Fatalf("store has %d records, want %d", len(recs), len(batch))
	}
	for i, r := range recs {
		if r.Seq != base+uint64(i) || r.Act != batch[i] {
			t.Fatalf("record %d: %+v (base %d)", i, r, base)
		}
	}
}

// TestAppendConcurrent: concurrent single-action Appends, grouped
// however the ack clock happens to group them, each get the true
// sequence number of their own action. (That they share requests is
// pinned deterministically by TestAppendJoinsWhileInFlight.)
func TestAppendConcurrent(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()

	const n = 200
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqs[i], errs[i] = c.Append(act("p", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs := st.ScanGlobalTail(0, -1)
	if len(recs) != n {
		t.Fatalf("store has %d records, want %d", len(recs), n)
	}
	bySeq := make(map[uint64]logs.Action, n)
	for _, r := range recs {
		bySeq[r.Seq] = r.Act
	}
	for i, seq := range seqs {
		if bySeq[seq] != act("p", i) {
			t.Fatalf("append %d: seq %d holds %v, want %v", i, seq, bySeq[seq], act("p", i))
		}
	}
}

// TestServerErrorNotRetried: a validation rejection surfaces as
// *ServerError immediately and leaves the client usable.
func TestServerErrorNotRetried(t *testing.T) {
	srv, _, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()

	_, err := c.AppendBatch([]logs.Action{{Principal: "", Kind: logs.Snd, A: logs.NameT("m"), B: logs.NameT("v")}})
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("got %v, want *ServerError", err)
	}
	if rejects := srv.Stats().Rejects; rejects != 1 {
		t.Fatalf("server saw %d rejects, want 1 (no retry of a rejection)", rejects)
	}
	if _, err := c.AppendBatch([]logs.Action{act("p", 0)}); err != nil {
		t.Fatalf("client unusable after rejection: %v", err)
	}
}

// TestRetryReconnect: a server restart between appends is absorbed by
// retry-with-reconnect; no append is lost.
func TestRetryReconnect(t *testing.T) {
	st := testutil.OpenStore(t, t.TempDir(), store.Options{})
	srv := ingest.NewServer(st, ingest.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := New(addr, Options{Conns: 2, RequestTimeout: 5 * time.Second})
	defer c.Close()

	if _, err := c.AppendBatch([]logs.Action{act("p", 0)}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := ingest.NewServer(st, ingest.Options{})
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := c.AppendBatch([]logs.Action{act("p", 1)}); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	if n := len(st.ScanShardTail("p", store.Filter{}, 0, -1)); n != 2 {
		t.Fatalf("store has %d records, want 2", n)
	}
}

// TestReplayAfterLostAck: the server commits a batch but its ack never
// reaches the client (the connection dies in between). The client's
// replay carries the same session batch sequence, so the server re-acks
// the original block instead of appending again: the caller gets the
// true sequence numbers and the store holds exactly one copy —
// exactly-once where the v1 protocol would have duplicated.
func TestReplayAfterLostAck(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})
	proxy, err := testutil.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	dropped := proxy.ArmAckDrop()
	c := New(proxy.Addr(), Options{Conns: 1, RequestTimeout: 5 * time.Second})
	defer c.Close()

	batch := []logs.Action{act("p", 0), act("p", 1), act("p", 2)}
	base, err := c.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-dropped:
	default:
		t.Fatal("proxy never dropped an ack; the test exercised nothing")
	}
	recs := st.ScanGlobalTail(0, -1)
	if len(recs) != len(batch) {
		t.Fatalf("store has %d records, want %d (replay must not duplicate)", len(recs), len(batch))
	}
	for i, r := range recs {
		if r.Seq != base+uint64(i) || r.Act != batch[i] {
			t.Fatalf("record %d: %+v (client told base %d)", i, r, base)
		}
	}
	stats := srv.Stats()
	if stats.DedupReplays != 1 {
		t.Fatalf("DedupReplays = %d, want 1", stats.DedupReplays)
	}
}

// TestSessionResumeContinues: a producer that resumes its session by
// name learns the committed floor in the handshake and continues its
// sequence numbering past it — the second incarnation's *new* batches
// are appended, never misclassified as replays of the first
// incarnation's committed sequences.
func TestSessionResumeContinues(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})

	batch1 := []logs.Action{act("p", 0), act("p", 1)}
	c1 := New(addr, Options{Conns: 1})
	if c1.Session() == "" {
		t.Fatal("no default session")
	}
	base1, err := c1.AppendBatch(batch1)
	if err != nil {
		t.Fatal(err)
	}
	session := c1.Session()
	c1.Close() // the producer crashes

	c2 := New(addr, Options{Conns: 1, Session: session})
	defer c2.Close()
	floor, err := c2.CommittedFloor()
	if err != nil {
		t.Fatal(err)
	}
	if floor != 1 {
		t.Fatalf("CommittedFloor = %d, want 1 (one committed batch)", floor)
	}
	batch2 := []logs.Action{act("p", 2), act("p", 3), act("p", 4)}
	base2, err := c2.AppendBatch(batch2) // NEW data from the resumed session
	if err != nil {
		t.Fatal(err)
	}
	if base2 != base1+uint64(len(batch1)) {
		t.Fatalf("resumed batch got base %d, want %d (appended after the committed prefix)", base2, base1+uint64(len(batch1)))
	}
	if n := st.Len(); n != len(batch1)+len(batch2) {
		t.Fatalf("store has %d records, want %d — resume must not drop new data", n, len(batch1)+len(batch2))
	}
	if got := srv.Stats().DedupReplays; got != 0 {
		t.Fatalf("DedupReplays = %d, want 0 (new data is not a replay)", got)
	}
}

// TestLongSessionHashedNotTruncated: two long session names sharing a
// 128-byte prefix must not silently merge into one session — the client
// hashes over-long names, so each producer keeps its own dedup window.
func TestLongSessionHashedNotTruncated(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	prefix := strings.Repeat("x", 200)
	cA := New(addr, Options{Conns: 1, Session: prefix + "A"})
	defer cA.Close()
	cB := New(addr, Options{Conns: 1, Session: prefix + "B"})
	defer cB.Close()
	if cA.Session() == cB.Session() {
		t.Fatalf("distinct long sessions collapsed to %q", cA.Session())
	}
	batch := []logs.Action{act("p", 0)}
	if _, err := cA.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 2 {
		t.Fatalf("store has %d records, want 2 — B's batch must not dedup against A's", n)
	}
}

// TestChunkedBatch: a batch larger than MaxBatch splits into ordered
// chunks; the store sees every action in batch order.
func TestChunkedBatch(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{MaxBatch: 16})
	defer c.Close()

	batch := make([]logs.Action, 100)
	for i := range batch {
		batch[i] = act("p", i)
	}
	if _, err := c.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	recs := st.ScanShardTail("p", store.Filter{}, 0, -1)
	if len(recs) != len(batch) {
		t.Fatalf("store has %d records, want %d", len(recs), len(batch))
	}
	for i, r := range recs {
		if r.Act != batch[i] {
			t.Fatalf("record %d: got %v want %v", i, r.Act, batch[i])
		}
	}
}
