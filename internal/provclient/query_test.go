package provclient

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/pattern"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/testutil"
	"repro/internal/trust"
	"repro/internal/wire"
)

// TestQueryAllRoundTrip: records appended through the client come back
// through a remote query, filters and pagination included.
func TestQueryAllRoundTrip(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{Conns: 1})
	defer c.Close()

	batch := make([]logs.Action, 120)
	for i := range batch {
		p := "a"
		if i%3 == 0 {
			p = "b"
		}
		batch[i] = logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))
	}
	if _, err := c.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}

	recs, cursor, err := c.QueryAll(wire.QuerySpec{})
	if err != nil || cursor != "" {
		t.Fatalf("query all: %v cursor %q", err, cursor)
	}
	if len(recs) != 120 || len(recs) != st.Len() {
		t.Fatalf("remote query returned %d records, store holds %d", len(recs), st.Len())
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, r.Seq)
		}
	}

	// Shard filter + explicit page limit + cursor resume.
	page1, cursor, err := c.QueryAll(wire.QuerySpec{Principal: "b", Limit: 25})
	if err != nil || len(page1) != 25 || cursor == "" {
		t.Fatalf("page 1: %d records, cursor %q, err %v", len(page1), cursor, err)
	}
	page2, cursor, err := c.QueryAll(wire.QuerySpec{Principal: "b", Cursor: cursor})
	if err != nil || cursor != "" {
		t.Fatalf("page 2: %v cursor %q", err, cursor)
	}
	if len(page1)+len(page2) != 40 {
		t.Fatalf("paginated shard query returned %d records, want 40", len(page1)+len(page2))
	}

	// Tail reassembles ascending.
	tail, _, err := c.QueryAll(wire.QuerySpec{Tail: true, Limit: 30})
	if err != nil || len(tail) != 30 {
		t.Fatalf("tail: %d records, err %v", len(tail), err)
	}
	for i := range tail {
		if tail[i].Seq != uint64(90+i) {
			t.Fatalf("tail position %d holds seq %d", i, tail[i].Seq)
		}
	}
}

// TestQueryServerRejection: a denied shard comes back as *ServerError,
// not a transport failure.
func TestQueryServerRejection(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("s", "eve")
	_, st, addr := newBackend(t, ingest.Options{Policy: policy})
	if _, err := st.Append(logs.SndAct("s", logs.NameT("m"), logs.NameT("v"))); err != nil {
		t.Fatal(err)
	}
	c := New(addr, Options{})
	defer c.Close()
	_, _, err := c.QueryAll(wire.QuerySpec{Principal: "s", Observer: "eve"})
	var srvErr *ServerError
	if !errors.As(err, &srvErr) {
		t.Fatalf("denied query returned %v", err)
	}
}

// TestFollowLiveTail: a follow delivers history, then live appends;
// cancel yields the resume cursor; the resumed follow continues without
// gap or duplicate.
func TestFollowLiveTail(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	for i := 0; i < 25; i++ {
		if _, err := st.Append(logs.SndAct("p", logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	c := New(addr, Options{})
	defer c.Close()

	qs, err := c.Query(wire.QuerySpec{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	var got []wire.Record
	for len(got) < 25 {
		chunk, err := qs.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	// Live appends arrive without a new request.
	for i := 0; i < 5; i++ {
		if _, err := st.Append(logs.SndAct("p", logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	for len(got) < 30 {
		chunk, err := qs.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	if err := qs.Cancel(); err != nil {
		t.Fatal(err)
	}
	for {
		chunk, err := qs.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
	}
	cursor := qs.Cursor()
	if cursor == "" {
		t.Fatal("cancelled follow returned no resume cursor")
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, r.Seq)
		}
	}

	// Resume exactly past what was served.
	for i := 0; i < 3; i++ {
		if _, err := st.Append(logs.SndAct("p", logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	rest, _, err := c.QueryAll(wire.QuerySpec{Cursor: cursor})
	if err != nil {
		t.Fatal(err)
	}
	if len(got)+len(rest) != st.Len() {
		t.Fatalf("resume covers %d + %d of %d records", len(got), len(rest), st.Len())
	}
	if len(rest) > 0 && rest[0].Seq != got[len(got)-1].Seq+1 {
		t.Fatalf("resume gap: %d then %d", got[len(got)-1].Seq, rest[0].Seq)
	}
}

// TestFollowRemoteAuditParity is the off-box-audit e2e the read path
// exists for: a monitored runtime mirrors its log into a provd store
// over the ingest protocol while a second process follows that provd
// over the read protocol into its own replica store — and the replica's
// Definition-3 verdicts, for every delivered value and for forgeries,
// match the source's.
func TestFollowRemoteAuditParity(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()

	// The off-box replica, fed only by the follow stream.
	replica, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	follower, err := c.Query(wire.QuerySpec{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	var replicated atomic.Int64
	go func() {
		for {
			chunk, err := follower.Next()
			if err != nil {
				return
			}
			acts := make([]logs.Action, len(chunk))
			for i, r := range chunk {
				acts[i] = r.Act
			}
			if _, err := replica.AppendBatch(acts); err != nil {
				t.Errorf("replica append: %v", err)
				return
			}
			replicated.Add(int64(len(acts)))
		}
	}()

	// The monitored system: alice relays values to bob through the
	// runtime, whose log mirrors into the source provd store.
	n := runtime.NewNet()
	defer n.Close()
	n.SetSink(c)
	alice := n.Register("alice")
	bob := n.Register("bob")
	ch := syntax.Fresh(syntax.Chan("m"))
	var held []syntax.AnnotatedValue
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			vals, err := bob.Recv(ch, 200*time.Millisecond, pattern.AnyP())
			if err != nil {
				return
			}
			held = append(held, vals[0])
		}
	}()
	for i := 0; i < 20; i++ {
		if err := alice.Send(ch, syntax.Fresh(syntax.Chan("v"))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("nothing delivered")
	}

	// Wait until the follower has replicated everything the source holds.
	want := st.Len()
	for deadline := time.Now().Add(5 * time.Second); replicated.Load() < int64(want); {
		if time.Now().After(deadline) {
			t.Fatalf("replica has %d of %d records", replica.Len(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replica is the source, action for action.
	if got, want := replica.GlobalLog().String(), st.GlobalLog().String(); got != want {
		t.Fatalf("replica log diverged:\n  source:  %s\n  replica: %s", want, got)
	}
	// Replayed audits agree on every delivered value and on a forgery.
	for _, v := range held {
		src, rep := st.Audit(v), replica.Audit(v)
		if (src == nil) != (rep == nil) {
			t.Fatalf("audit verdicts diverge for %s: source=%v replica=%v", v, src, rep)
		}
		if src != nil {
			t.Fatalf("genuine value rejected by both: %v", src)
		}
	}
	forged := syntax.Annot(syntax.Chan("vX"), syntax.Seq(syntax.OutEvent("mallory", nil)))
	if (st.Audit(forged) == nil) != (replica.Audit(forged) == nil) {
		t.Fatal("forgery verdicts diverge between source and replica")
	}
	if replica.Audit(forged) == nil {
		t.Fatal("replica accepted a forged provenance claim")
	}
}

// accepted is the listener's connection-accept count: what every
// connection-reuse test below is stated against.
func accepted(srv *ingest.Server) uint64 { return srv.Stats().Accepted }

// queryWithin runs QueryAll, failing the test if it has not returned
// within ten seconds: a kept connection gone stale must fail or
// recover, never hang.
func queryWithin(t *testing.T, c *Client, spec wire.QuerySpec) ([]wire.Record, error) {
	t.Helper()
	type result struct {
		recs []wire.Record
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		recs, _, err := c.QueryAll(spec)
		ch <- result{recs, err}
	}()
	select {
	case r := <-ch:
		return r.recs, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("QueryAll hung")
		return nil, nil
	}
}

// checkSpine fails unless recs are exactly the sequences 0..n-1.
func checkSpine(t *testing.T, recs []wire.Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, r.Seq)
		}
	}
}

// TestQueryAllReusesConnection: sequential QueryAlls on one client run
// on one kept connection, not one dial (and TLS handshake) each.
func TestQueryAllReusesConnection(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})
	testutil.SeedStore(t, st, 40)
	c := New(addr, Options{})
	defer c.Close()
	for i := 0; i < 50; i++ {
		recs, _, err := c.QueryAll(wire.QuerySpec{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkSpine(t, recs, 40)
	}
	if n := accepted(srv); n != 1 {
		t.Fatalf("50 sequential queries accepted %d connections, want 1", n)
	}
}

// TestQueryAllErrorEndKeepsConnection: a query the server answers with
// an error end frame leaves its connection at a clean boundary, so the
// next query reuses it.
func TestQueryAllErrorEndKeepsConnection(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})
	testutil.SeedStore(t, st, 10)
	c := New(addr, Options{})
	defer c.Close()
	var srvErr *ServerError
	if _, _, err := c.QueryAll(wire.QuerySpec{Cursor: "not-a-cursor"}); !errors.As(err, &srvErr) {
		t.Fatalf("bad cursor returned %v, want *ServerError", err)
	}
	recs, _, err := c.QueryAll(wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	checkSpine(t, recs, 10)
	if n := accepted(srv); n != 1 {
		t.Fatalf("accepted %d connections, want 1", n)
	}
}

// TestQueryAllStaleConnection: a kept connection that died while idle
// costs one fresh dial, not a failed query; a dead network fails the
// query the way a fresh dial does, without hanging; and a stream cut
// short by a sequence gap is never kept.
func TestQueryAllStaleConnection(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})
	// More than one engine page, so the unfiltered walk spans chunks
	// and a dropped chunk is a gap rather than an empty walk.
	const n = 5000
	testutil.SeedStore(t, st, n)
	p, err := testutil.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := New(p.Addr(), Options{})
	defer c.Close()
	spec := wire.QuerySpec{Principal: "p0", Limit: 5}
	if _, err := queryWithin(t, c, spec); err != nil {
		t.Fatal(err)
	}

	t.Run("cut", func(t *testing.T) {
		before := accepted(srv)
		p.CutConns()
		recs, err := queryWithin(t, c, spec)
		if err != nil || len(recs) != 5 {
			t.Fatalf("after a cut: %d records, %v", len(recs), err)
		}
		if got := accepted(srv) - before; got != 1 {
			t.Fatalf("after a cut: %d new connections, want 1", got)
		}
	})

	t.Run("partition", func(t *testing.T) {
		before := accepted(srv)
		p.Partition()
		defer p.Heal()
		_, keptErr := queryWithin(t, c, spec)
		fresh := New(p.Addr(), Options{})
		defer fresh.Close()
		_, freshErr := queryWithin(t, fresh, spec)
		var srvErr *ServerError
		if keptErr == nil || freshErr == nil || errors.As(keptErr, &srvErr) || errors.As(freshErr, &srvErr) {
			t.Fatalf("partitioned: kept client %v, fresh client %v; want transport failures from both", keptErr, freshErr)
		}
		if got := accepted(srv) - before; got != 0 {
			t.Fatalf("partition let %d connections through", got)
		}
	})

	t.Run("gap", func(t *testing.T) {
		if _, err := queryWithin(t, c, spec); err != nil { // healed: keep one connection
			t.Fatal(err)
		}
		before := accepted(srv)
		dropped := p.ArmChunkDrop()
		_, err := queryWithin(t, c, wire.QuerySpec{})
		var gap *SeqGapError
		if !errors.As(err, &gap) {
			t.Fatalf("dropped chunk returned %v, want *SeqGapError", err)
		}
		<-dropped
		recs, err := queryWithin(t, c, wire.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		checkSpine(t, recs, n)
		if got := accepted(srv) - before; got != 1 {
			t.Fatalf("after a gap: %d new connections, want 1 (the gapped one must not be kept)", got)
		}
	})
}

// TestQueryAllConcurrentReuse: concurrent QueryAlls never share a
// connection or reuse a query id on one, and at most Conns connections
// stay idle afterwards.
func TestQueryAllConcurrentReuse(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	testutil.SeedStore(t, st, 300)
	c := New(addr, Options{Conns: 2})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := uint64((g*50 + i) % 250)
				recs, _, err := c.QueryAll(wire.QuerySpec{MinSeq: from, Limit: 20})
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if len(recs) != 20 || recs[0].Seq != from || recs[19].Seq != from+19 {
					t.Errorf("goroutine %d query %d: page from %d came back wrong (%d records)", g, i, from, len(recs))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle > 2 {
		t.Fatalf("%d idle connections kept, cap is 2", idle)
	}
}

// TestQueryAllAfterClose: Close closes the kept connections, and a
// later QueryAll is refused without dialing.
func TestQueryAllAfterClose(t *testing.T) {
	srv, st, addr := newBackend(t, ingest.Options{})
	testutil.SeedStore(t, st, 10)
	c := New(addr, Options{})
	if _, _, err := c.QueryAll(wire.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.QueryAll(wire.QuerySpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueryAll after Close returned %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Active != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after Close", srv.Stats().Active)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := accepted(srv); n != 1 {
		t.Fatalf("accepted %d connections, want 1", n)
	}
}

// TestFetchClusterMapKeptConnection: a cluster-map request borrows the
// same kept connections as QueryAll — a reply carrying an error still
// leaves its connection reusable — while a node that closes a fresh
// connection instead of answering (one without the cluster family)
// comes back as *ServerError.
func TestFetchClusterMapKeptConnection(t *testing.T) {
	srv, _, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()
	var srvErr *ServerError
	for i := 0; i < 3; i++ {
		if _, err := c.FetchClusterMap(); !errors.As(err, &srvErr) || !strings.Contains(srvErr.Msg, "no partition map") {
			t.Fatalf("map fetch from a node without a map returned %v", err)
		}
		if _, _, err := c.QueryAll(wire.QuerySpec{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepted(srv); n != 1 {
		t.Fatalf("accepted %d connections, want 1", n)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, err := wire.NewStreamDecoder(nc).Envelope(); err != nil {
					return
				}
				e := wire.NewEncoder()
				e.IngestError(0, "unexpected opcode")
				enc := wire.NewStreamEncoder(nc)
				if enc.Envelope(e.Bytes()) == nil {
					enc.Flush()
				}
			}()
		}
	}()
	old := New(ln.Addr().String(), Options{})
	defer old.Close()
	if _, err := old.FetchClusterMap(); !errors.As(err, &srvErr) || srvErr.Msg != "unexpected opcode" {
		t.Fatalf("map fetch from a node without the cluster family returned %v, want *ServerError", err)
	}
}
