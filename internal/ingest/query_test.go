package ingest

// Raw-wire coverage of the binary read path: queries stream chunks and
// end with a cursor, interleave with ingest traffic on one connection,
// reject what they must, cancel cleanly, and follow live appends.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/trust"
	"repro/internal/wire"
)

func (rc *rawConn) sendQuery(id uint64, spec wire.QuerySpec) {
	rc.t.Helper()
	rc.frame(func(e *wire.Encoder) { e.Query(id, spec) })
	rc.flush()
}

func (rc *rawConn) sendCancel(id uint64) {
	rc.t.Helper()
	rc.frame(func(e *wire.Encoder) { e.QueryCancel(id) })
	rc.flush()
}

func (rc *rawConn) readQueryMsg() (wire.QueryMsg, error) {
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := rc.dec.Envelope()
	if err != nil {
		return wire.QueryMsg{}, err
	}
	return wire.DecodeQuery(env)
}

// collect reads one query's chunks until its end frame, returning the
// records and the end cursor.
func (rc *rawConn) collect(id uint64) ([]wire.Record, string) {
	rc.t.Helper()
	var recs []wire.Record
	for {
		m, err := rc.readQueryMsg()
		if err != nil {
			rc.t.Fatalf("reading query reply: %v", err)
		}
		if m.ID != id {
			rc.t.Fatalf("reply for id %d while collecting %d", m.ID, id)
		}
		switch m.Op {
		case wire.OpQueryChunk:
			recs = append(recs, m.Recs...)
		case wire.OpQueryEnd:
			if m.Err != "" {
				rc.t.Fatalf("query failed: %s", m.Err)
			}
			return recs, m.Cursor
		default:
			rc.t.Fatalf("unexpected op %#x", m.Op)
		}
	}
}

// TestQueryOverWire: a populated store streams back over OpQuery in
// ascending order, honouring filters, and a paginated resume via the
// end cursor covers the remainder exactly.
func TestQueryOverWire(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	for i := 0; i < 500; i++ {
		p := "a"
		if i%2 == 1 {
			p = "b"
		}
		if _, err := st.Append(act(p, i)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, addr)

	// Whole-log query streams everything in order.
	rc.sendQuery(1, wire.QuerySpec{})
	recs, cursor := rc.collect(1)
	if len(recs) != 500 || cursor != "" {
		t.Fatalf("got %d records, cursor %q", len(recs), cursor)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, r.Seq)
		}
	}

	// Shard-filtered with an explicit limit: a page plus resume cursor.
	rc.sendQuery(2, wire.QuerySpec{Principal: "b", Limit: 100})
	recs, cursor = rc.collect(2)
	if len(recs) != 100 || cursor == "" {
		t.Fatalf("limited query: %d records, cursor %q", len(recs), cursor)
	}
	rc.sendQuery(3, wire.QuerySpec{Principal: "b", Cursor: cursor})
	rest, cursor := rc.collect(3)
	if len(recs)+len(rest) != 250 || cursor != "" {
		t.Fatalf("resume: %d + %d records, cursor %q", len(recs), len(rest), cursor)
	}
	for _, r := range append(recs, rest...) {
		if r.Act.Principal != "b" {
			t.Fatalf("shard filter leaked %+v", r)
		}
	}

	// Tail query serves the most recent records ascending.
	rc.sendQuery(4, wire.QuerySpec{Tail: true, Limit: 10})
	recs, _ = rc.collect(4)
	if len(recs) != 10 || recs[0].Seq != 490 || recs[9].Seq != 499 {
		t.Fatalf("tail query returned %d records starting at %d", len(recs), recs[0].Seq)
	}
}

// TestQueryInterleavesWithIngest: queries and batch appends pipeline on
// one connection; both families resolve correctly by id.
func TestQueryInterleavesWithIngest(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	for i := 0; i < 50; i++ {
		if _, err := st.Append(act("seed", i)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, addr)
	rc.sendBatch(7, acts("w", 0, 20))
	rc.sendQuery(8, wire.QuerySpec{Principal: "seed"})
	rc.flush()

	var gotAck bool
	var recs []wire.Record
	for !gotAck || recs == nil {
		rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		env, err := rc.dec.Envelope()
		if err != nil {
			t.Fatal(err)
		}
		op, err := wire.PeekOp(env)
		if err != nil {
			t.Fatal(err)
		}
		if wire.IsQueryOp(op) {
			m, err := wire.DecodeQuery(env)
			if err != nil {
				t.Fatal(err)
			}
			switch m.Op {
			case wire.OpQueryChunk:
				recs = append(recs, m.Recs...)
			case wire.OpQueryEnd:
				if m.Err != "" || len(recs) != 50 {
					t.Fatalf("query: %d records, err %q", len(recs), m.Err)
				}
			}
			continue
		}
		m, err := wire.DecodeIngest(env)
		if err != nil {
			t.Fatal(err)
		}
		if m.Op != wire.OpIngestAck || m.ID != 7 || m.Count != 20 {
			t.Fatalf("unexpected ingest reply %+v", m)
		}
		gotAck = true
	}
}

// TestQueryRejections: denied shards and bad cursors fail the query
// (not the connection); client-sent chunk frames and id 0 kill the
// connection.
func TestQueryRejections(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("secret", "eve")
	srv, st, addr := newTestServer(t, Options{Policy: policy, MaxQueriesPerConn: 2})
	if _, err := st.Append(act("secret", 0)); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)

	rc.sendQuery(1, wire.QuerySpec{Principal: "secret", Observer: "eve"})
	m, err := rc.readQueryMsg()
	if err != nil || m.Op != wire.OpQueryEnd || !strings.Contains(m.Err, "does not disclose") {
		t.Fatalf("denied query: %+v %v", m, err)
	}
	rc.sendQuery(2, wire.QuerySpec{Cursor: "garbage!"})
	if m, err = rc.readQueryMsg(); err != nil || m.Err == "" {
		t.Fatalf("bad cursor: %+v %v", m, err)
	}
	// The connection survived both rejections.
	rc.sendQuery(3, wire.QuerySpec{Principal: "secret", Observer: "friend"})
	if recs, _ := rc.collect(3); len(recs) != 1 {
		t.Fatalf("post-rejection query got %d records", len(recs))
	}
	if rj := srv.Stats().QueryRejects; rj != 2 {
		t.Fatalf("reject counter %d", rj)
	}

	// id 0 is reserved: the reply is an ingest-family connection-scoped
	// error and the connection closes.
	rc2 := dialRaw(t, addr)
	rc2.sendQuery(0, wire.QuerySpec{})
	im, err := rc2.readMsg()
	if err != nil || im.Op != wire.OpIngestError || im.ID != 0 {
		t.Fatalf("id-0 query: %+v %v", im, err)
	}
}

// TestFollowOverWire: a follow streams history, then live appends, and
// a cancel ends it with a cursor that resumes without gaps.
func TestFollowOverWire(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	for i := 0; i < 30; i++ {
		if _, err := st.Append(act("p", i)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, addr)
	rc.sendQuery(1, wire.QuerySpec{Follow: true})

	var recs []wire.Record
	for len(recs) < 30 {
		m, err := rc.readQueryMsg()
		if err != nil || m.Op != wire.OpQueryChunk {
			t.Fatalf("history chunk: %+v %v", m, err)
		}
		recs = append(recs, m.Recs...)
	}

	// Live appends stream without another request.
	for i := 30; i < 40; i++ {
		if _, err := st.Append(act("p", i)); err != nil {
			t.Fatal(err)
		}
	}
	for len(recs) < 40 {
		m, err := rc.readQueryMsg()
		if err != nil || m.Op != wire.OpQueryChunk {
			t.Fatalf("live chunk: %+v %v", m, err)
		}
		recs = append(recs, m.Recs...)
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("follow position %d holds seq %d", i, r.Seq)
		}
	}

	// Cancel ends the follow with a resume cursor.
	rc.sendCancel(1)
	var cursor string
	for {
		m, err := rc.readQueryMsg()
		if err != nil {
			t.Fatal(err)
		}
		if m.Op == wire.OpQueryEnd {
			if m.Err != "" || m.Cursor == "" {
				t.Fatalf("follow end: %+v", m)
			}
			cursor = m.Cursor
			break
		}
		recs = append(recs, m.Recs...) // chunks racing the cancel
	}

	// The cursor resumes exactly past everything served.
	for i := 40; i < 45; i++ {
		if _, err := st.Append(act("p", i)); err != nil {
			t.Fatal(err)
		}
	}
	rc.sendQuery(2, wire.QuerySpec{Cursor: cursor})
	rest, _ := rc.collect(2)
	if len(recs)+len(rest) != 45 {
		t.Fatalf("resume after cancel: %d + %d records", len(recs), len(rest))
	}
	if rest[0].Seq != recs[len(recs)-1].Seq+1 {
		t.Fatalf("resume gap: %d then %d", recs[len(recs)-1].Seq, rest[0].Seq)
	}
}

// TestFollowDrainOnClose: server Close ends a live follow with a
// resume-cursor end frame before the connection drops.
func TestFollowDrainOnClose(t *testing.T) {
	srv, st, addr := newTestServer(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := st.Append(act("p", i)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, addr)
	rc.sendQuery(1, wire.QuerySpec{Follow: true})
	var recs []wire.Record
	for len(recs) < 10 {
		m, err := rc.readQueryMsg()
		if err != nil || m.Op != wire.OpQueryChunk {
			t.Fatalf("history: %+v %v", m, err)
		}
		recs = append(recs, m.Recs...)
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	m, err := rc.readQueryMsg()
	if err != nil || m.Op != wire.OpQueryEnd || m.Cursor == "" {
		t.Fatalf("drain end: %+v %v", m, err)
	}
	<-done
}

// TestFollowTailBacklogHonoursLimit: a tail follow with an explicit
// backlog larger than one chunk serves exactly that many history
// records (in chunked frames), not a chunk-size truncation.
func TestFollowTailBacklogHonoursLimit(t *testing.T) {
	_, st, addr := newTestServer(t, Options{})
	batch := acts("p", 0, 6000)
	if _, err := st.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	rc.sendQuery(1, wire.QuerySpec{Follow: true, Tail: true, Limit: 5000})
	var recs []wire.Record
	for len(recs) < 5000 {
		m, err := rc.readQueryMsg()
		if err != nil || m.Op != wire.OpQueryChunk {
			t.Fatalf("backlog chunk: %+v %v", m, err)
		}
		recs = append(recs, m.Recs...)
	}
	if len(recs) != 5000 || recs[0].Seq != 1000 || recs[4999].Seq != 5999 {
		t.Fatalf("backlog %d records, seqs %d..%d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

// TestQueryCapPerConn: the per-connection cap rejects the follow past
// it and the reject names the cap.
func TestQueryCapPerConn(t *testing.T) {
	_, st, addr := newTestServer(t, Options{MaxQueriesPerConn: 1})
	if _, err := st.Append(act("p", 0)); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	rc.sendQuery(1, wire.QuerySpec{Follow: true}) // occupies the one slot
	m, err := rc.readQueryMsg()
	if err != nil || m.Op != wire.OpQueryChunk {
		t.Fatalf("first follow: %+v %v", m, err)
	}
	rc.sendQuery(2, wire.QuerySpec{})
	for {
		if m, err = rc.readQueryMsg(); err != nil {
			t.Fatal(err)
		}
		if m.ID == 2 {
			break
		}
	}
	if m.Op != wire.OpQueryEnd || !strings.Contains(m.Err, "cap") {
		t.Fatalf("over-cap query: %+v", m)
	}
}

// TestQueryRedactionParity: the binary path redacts exactly like the
// engine it shares with HTTP.
func TestQueryRedactionParity(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("s")
	_, st, addr := newTestServer(t, Options{Policy: policy})
	if _, err := st.Append(act("a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(act("s", 1)); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, addr)
	rc.sendQuery(1, wire.QuerySpec{Observer: "anyone"})
	recs, _ := rc.collect(1)
	e := query.NewEngine(st, policy)
	page, err := e.Run(query.Query{Observer: "anyone"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(page.Records) {
		t.Fatalf("binary %d records, engine %d", len(recs), len(page.Records))
	}
	for i := range recs {
		if recs[i] != page.Records[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, recs[i], page.Records[i])
		}
	}
	if recs[1].Act.Principal != trust.RedactedPrincipal {
		t.Fatalf("hidden principal served unmasked: %+v", recs[1])
	}
}
