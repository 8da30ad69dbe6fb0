package ingest_test

// Raw-wire authorization coverage of the binary listener: the suite
// that proves the ISSUE's acceptance claim — identity A cannot append
// records for principal B, cannot read an unredacted view beyond A's
// observer grant, and cannot pull a snapshot without the replica role.
// It lives outside the package because it authenticates with real
// certificates from testutil's in-memory CA, and testutil imports
// ingest (the frame-aware proxy decodes its stream).

import (
	"crypto/tls"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trust"
	"repro/internal/wire"
)

// authFixture is one secured listener: a fresh CA, a guard with the
// grants each test needs, and a store the tests may seed directly.
type authFixture struct {
	ca    *testutil.TestCA
	guard *auth.Guard
	st    *store.Store
	srv   *ingest.Server
	addr  string
}

// newAuthFixture starts a listener enforcing grants behind mutual TLS
// (or cleartext token auth when serveTLS is false). Connections park
// after 20ms of silence, so any test that waits that long crosses a
// park/wake cycle through the TLS layer.
func newAuthFixture(t *testing.T, serveTLS bool, policy *trust.DisclosurePolicy, grants ...authGrant) *authFixture {
	t.Helper()
	ca, err := testutil.NewTestCA()
	if err != nil {
		t.Fatal(err)
	}
	m := auth.NewMap()
	for _, g := range grants {
		if err := m.Add(g.Grant, g.token); err != nil {
			t.Fatal(err)
		}
	}
	guard := auth.NewGuard(m)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts := ingest.Options{Auth: guard, Policy: policy, IdlePark: 20 * time.Millisecond}
	if serveTLS {
		conf, err := ca.ServerConfig("leader")
		if err != nil {
			t.Fatal(err)
		}
		opts.TLS = conf
	}
	srv := ingest.NewServer(st, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &authFixture{ca: ca, guard: guard, st: st, srv: srv, addr: addr}
}

type authGrant struct {
	auth.Grant
	token string
}

// wc is a raw wire connection speaking frames directly, so the tests
// control exactly what crosses the wire and see exactly what returns.
type wc struct {
	t   *testing.T
	c   net.Conn
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder
	seq uint64 // the last batch sequence batch used
}

// dialTLS connects as the named identity: a certificate the fixture's
// CA signed, verified against the server the same way provclient's
// dial helper does (ServerName from the dialed host).
func (f *authFixture) dialTLS(t *testing.T, identity string) *wc {
	t.Helper()
	conf, err := f.ca.ClientConfig(identity)
	if err != nil {
		t.Fatal(err)
	}
	host, _, err := net.SplitHostPort(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	conf.ServerName = host
	c, err := tls.Dial("tcp", f.addr, conf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &wc{t: t, c: c, enc: wire.NewStreamEncoder(c), dec: wire.NewStreamDecoder(c)}
}

// dialClear connects without TLS (the dev shape: token auth, or no
// auth at all to prove the listener demands it).
func (f *authFixture) dialClear(t *testing.T) *wc {
	t.Helper()
	c, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &wc{t: t, c: c, enc: wire.NewStreamEncoder(c), dec: wire.NewStreamDecoder(c)}
}

func (w *wc) send(build func(*wire.Encoder)) {
	w.t.Helper()
	e := wire.NewEncoder()
	build(e)
	if err := w.enc.Envelope(e.Bytes()); err != nil {
		w.t.Fatal(err)
	}
	if err := w.enc.Flush(); err != nil {
		w.t.Fatal(err)
	}
}

// hello opens the connection's idempotency session and checks its ack.
func (w *wc) hello(session string) {
	w.t.Helper()
	w.send(func(e *wire.Encoder) { e.IngestHello(wire.IngestV2, session) })
	if m, err := w.readIngest(); err != nil || m.Op != wire.OpIngestHelloAck {
		w.t.Fatalf("hello: %+v %v", m, err)
	}
}

// batch sends acts as request id under the connection's next batch
// sequence.
func (w *wc) batch(id uint64, acts ...logs.Action) {
	w.t.Helper()
	w.seq++
	w.send(func(e *wire.Encoder) { e.IngestBatch2(id, w.seq, acts) })
}

func (w *wc) readEnvelope() ([]byte, error) {
	w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	return w.dec.Envelope()
}

func (w *wc) readIngest() (wire.IngestMsg, error) {
	env, err := w.readEnvelope()
	if err != nil {
		return wire.IngestMsg{}, err
	}
	return wire.DecodeIngest(env)
}

func sndAct(p string, i int) logs.Action {
	return logs.SndAct(p, logs.NameT(fmt.Sprintf("m%d", i)), logs.NameT("v"))
}

// TestWireAuthPrincipalBound: an identity granted principal "alice"
// cannot append as "bob" — not alone, and not smuggled inside an
// otherwise-allowed batch — while its own appends commit and the
// connection survives each rejection.
func TestWireAuthPrincipalBound(t *testing.T) {
	f := newAuthFixture(t, true, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"alice"}, Roles: auth.RoleAppend}})
	c := f.dialTLS(t, "producer")
	c.hello("producer-1")

	// Within the grant: commits and acks.
	c.batch(1, sndAct("alice", 0))
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestAck || m.ID != 1 {
		t.Fatalf("in-grant append: %+v %v", m, err)
	}

	// Pure impersonation: rejected, per-request.
	c.batch(2, sndAct("bob", 0))
	m, err := c.readIngest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != wire.OpIngestError || m.ID != 2 || !strings.Contains(m.Msg, `may not append as principal "bob"`) {
		t.Fatalf("impersonating append: %+v", m)
	}

	// Smuggled inside a mixed batch: the whole batch is refused —
	// error means none appended, so no partial commit under alice's
	// name either.
	c.batch(3, sndAct("alice", 1), sndAct("bob", 1))
	if m, err = c.readIngest(); err != nil || m.Op != wire.OpIngestError || m.ID != 3 {
		t.Fatalf("mixed batch: %+v %v", m, err)
	}

	// The connection survives and the store holds exactly the granted
	// append.
	c.batch(4, sndAct("alice", 2))
	if m, err = c.readIngest(); err != nil || m.Op != wire.OpIngestAck || m.ID != 4 {
		t.Fatalf("post-rejection append: %+v %v", m, err)
	}
	if n := len(f.st.ScanShardTail("bob", store.Filter{}, 0, -1)); n != 0 {
		t.Fatalf("bob has %d records; impersonation committed", n)
	}
	if n := len(f.st.ScanShardTail("alice", store.Filter{}, 0, -1)); n != 2 {
		t.Fatalf("alice has %d records, want 2", n)
	}
	if got := f.guard.AppendRejects.Load(); got != 2 {
		t.Fatalf("AppendRejects = %d, want 2", got)
	}
}

// waitParked polls until exactly n connections are parked.
func (f *authFixture) waitParked(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.srv.Stats().Parked != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked connections: %+v", n, f.srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireAuthParkWake: an mTLS connection parks (its sentry reads
// through the *tls.Conn), and the batch that wakes it is acked with the
// next block; the identity's grant survives the park, so a batch
// outside it is still refused.
func TestWireAuthParkWake(t *testing.T) {
	f := newAuthFixture(t, true, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"alice"}, Roles: auth.RoleAppend}})
	c := f.dialTLS(t, "producer")
	c.hello("producer-1")
	c.batch(1, sndAct("alice", 0))
	first, err := c.readIngest()
	if err != nil || first.Op != wire.OpIngestAck || first.ID != 1 {
		t.Fatalf("first append: %+v %v", first, err)
	}

	f.waitParked(t, 1)
	c.batch(2, sndAct("alice", 1))
	m, err := c.readIngest()
	if err != nil || m.Op != wire.OpIngestAck || m.ID != 2 || m.Base != first.Base+first.Count || m.Count != 1 {
		t.Fatalf("post-park append: %+v %v (want base %d)", m, err, first.Base+first.Count)
	}
	if s := f.srv.Stats(); s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("park cycle not counted: %+v", s)
	}

	f.waitParked(t, 1)
	c.batch(3, sndAct("bob", 0))
	if m, err = c.readIngest(); err != nil || m.Op != wire.OpIngestError || m.ID != 3 || !strings.Contains(m.Msg, `may not append as principal "bob"`) {
		t.Fatalf("impersonation after park: %+v %v", m, err)
	}
	if n := len(f.st.ScanShardTail("alice", store.Filter{}, 0, -1)); n != 2 {
		t.Fatalf("alice has %d records, want 2", n)
	}
	if n := len(f.st.ScanShardTail("bob", store.Filter{}, 0, -1)); n != 0 {
		t.Fatalf("bob has %d records; impersonation committed", n)
	}
}

// TestWireAuthParkedDrain: Close drains a parked mTLS connection — the
// drain deadline fails the sentry's read through the TLS layer — and
// leaks nothing.
func TestWireAuthParkedDrain(t *testing.T) {
	f := newAuthFixture(t, true, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"alice"}, Roles: auth.RoleAppend}})
	c := f.dialTLS(t, "producer")
	c.hello("producer-1")
	c.batch(1, sndAct("alice", 0))
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("append: %+v %v", m, err)
	}
	f.waitParked(t, 1)

	done := make(chan struct{})
	go func() {
		f.srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a parked mTLS connection")
	}
	if s := f.srv.Stats(); s.Active != 0 || s.Parked != 0 {
		t.Fatalf("connection leaked through drain: %+v", s)
	}
	if _, err := c.readIngest(); err == nil {
		t.Fatal("drained connection still open")
	}
}

// TestWireAuthObserverCoercion: a read-role identity bound to observer
// "c" asks for the full (uncoerced) view and gets c's redacted one —
// while a replica-role identity passes through and sees the log
// unredacted, because replication must.
func TestWireAuthObserverCoercion(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("s", "c")
	f := newAuthFixture(t, true, policy,
		authGrant{Grant: auth.Grant{Name: "consumer", Observer: "c", Roles: auth.RoleRead}},
		authGrant{Grant: auth.Grant{Name: "replica", Roles: auth.RoleReplica}})
	for _, p := range []string{"s", "p", "s"} {
		if _, err := f.st.Append(sndAct(p, 0)); err != nil {
			t.Fatal(err)
		}
	}

	read := func(c *wc, id uint64) []wire.Record {
		t.Helper()
		c.send(func(e *wire.Encoder) { e.Query(id, wire.QuerySpec{Observer: ""}) })
		var recs []wire.Record
		for {
			env, err := c.readEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			m, err := wire.DecodeQuery(env)
			if err != nil {
				t.Fatal(err)
			}
			if m.Op == wire.OpQueryEnd {
				if m.Err != "" {
					t.Fatalf("query failed: %s", m.Err)
				}
				return recs
			}
			recs = append(recs, m.Recs...)
		}
	}

	// The consumer asked for the unredacted view; coercion hands back
	// what observer "c" is allowed to see.
	recs := read(f.dialTLS(t, "consumer"), 1)
	if len(recs) != 3 {
		t.Fatalf("consumer sees %d records, want 3", len(recs))
	}
	for i, r := range recs {
		want := trust.RedactedPrincipal
		if i == 1 {
			want = "p"
		}
		if r.Act.Principal != want {
			t.Fatalf("record %d: principal %q, want %q", i, r.Act.Principal, want)
		}
	}

	// The replica role is exempt — its follow of the log must be
	// bit-identical or convergence checks would fail on honest
	// redaction.
	recs = read(f.dialTLS(t, "replica"), 1)
	for i, r := range recs {
		if r.Act.Principal == trust.RedactedPrincipal {
			t.Fatalf("replica record %d redacted", i)
		}
	}
}

// TestWireAuthRoleGates: an append-only identity is refused queries,
// and a read-only identity is refused both appends and snapshots —
// snapshot transfer demands the replica role, read is not enough.
func TestWireAuthRoleGates(t *testing.T) {
	f := newAuthFixture(t, true, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"*"}, Roles: auth.RoleAppend}},
		authGrant{Grant: auth.Grant{Name: "consumer", Roles: auth.RoleRead}},
		authGrant{Grant: auth.Grant{Name: "replica", Roles: auth.RoleReplica}})
	if _, err := f.st.Append(sndAct("p", 0)); err != nil {
		t.Fatal(err)
	}

	// Append-only identity queries: query-end error, connection lives.
	prod := f.dialTLS(t, "producer")
	prod.send(func(e *wire.Encoder) { e.Query(1, wire.QuerySpec{}) })
	env, err := prod.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	qm, err := wire.DecodeQuery(env)
	if err != nil {
		t.Fatal(err)
	}
	if qm.Op != wire.OpQueryEnd || !strings.Contains(qm.Err, "lacks the read role") {
		t.Fatalf("producer query: %+v", qm)
	}
	prod.hello("producer-1")
	prod.batch(2, sndAct("p", 1))
	if m, err := prod.readIngest(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("producer append after refused query: %+v %v", m, err)
	}

	// Read-only identity appends (no hello: one would close the
	// connection): per-request error.
	cons := f.dialTLS(t, "consumer")
	cons.batch(1, sndAct("p", 2))
	m, err := cons.readIngest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != wire.OpIngestError || !strings.Contains(m.Msg, "lacks the append role") {
		t.Fatalf("consumer append: %+v", m)
	}

	// Read-only identity asks for a snapshot: refused by role.
	cons.send(func(e *wire.Encoder) { e.Snapshot(2) })
	env, err = cons.readEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := wire.DecodeSnapshot(env)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Op != wire.OpSnapshotEnd || !strings.Contains(sm.Err, "lacks the replica role") {
		t.Fatalf("consumer snapshot: %+v", sm)
	}
	if got := f.guard.SnapshotRejects.Load(); got != 1 {
		t.Fatalf("SnapshotRejects = %d, want 1", got)
	}

	// The replica role pulls the transfer end to end.
	rep := f.dialTLS(t, "replica")
	rep.send(func(e *wire.Encoder) { e.Snapshot(1) })
	got := 0
	for {
		env, err := rep.readEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		sm, err := wire.DecodeSnapshot(env)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Op == wire.OpSnapshotEnd {
			if sm.Err != "" {
				t.Fatalf("replica snapshot failed: %s", sm.Err)
			}
			break
		}
		if sm.Op == wire.OpSnapshotChunk {
			got += len(sm.Recs)
		}
	}
	if got != 2 {
		t.Fatalf("replica snapshot shipped %d records, want 2", got)
	}
}

// TestWireAuthUnknownCertificate: a certificate the CA signed but the
// map does not know authenticates the TLS layer and is still turned
// away at the identity layer, with a connection-scoped error first.
func TestWireAuthUnknownCertificate(t *testing.T) {
	f := newAuthFixture(t, true, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"*"}, Roles: auth.RoleAppend}})
	c := f.dialTLS(t, "stranger")
	m, err := c.readIngest()
	if err != nil {
		t.Fatalf("expected id-0 error before close, got %v", err)
	}
	if m.Op != wire.OpIngestError || m.ID != 0 || !strings.Contains(m.Msg, "no known identity") {
		t.Fatalf("got %+v", m)
	}
	if _, err := c.readIngest(); err == nil {
		t.Fatal("connection should be closed after identity rejection")
	}
	if got := f.guard.ConnRejects.Load(); got != 1 {
		t.Fatalf("ConnRejects = %d, want 1", got)
	}
}

// TestWireAuthCleartextToken: with enforcement on a cleartext listener
// (the dev shape), the first frame must be a token naming a known
// identity — no token and wrong token are both connection-fatal, and
// the token's grant is then enforced like any other.
func TestWireAuthCleartextToken(t *testing.T) {
	f := newAuthFixture(t, false, nil,
		authGrant{Grant: auth.Grant{Name: "producer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, token: "s3cret"})

	// No token first: closed.
	c := f.dialClear(t)
	c.batch(1, sndAct("alice", 0))
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestError || m.ID != 0 || !strings.Contains(m.Msg, "authentication required") {
		t.Fatalf("unauthenticated first frame: %+v %v", m, err)
	}

	// Wrong token: closed.
	c = f.dialClear(t)
	c.send(func(e *wire.Encoder) { e.IngestAuth("wrong") })
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestError || m.ID != 0 || !strings.Contains(m.Msg, "unknown authentication token") {
		t.Fatalf("wrong token: %+v %v", m, err)
	}

	// Right token: the grant holds, and is enforced.
	c = f.dialClear(t)
	c.send(func(e *wire.Encoder) { e.IngestAuth("s3cret") })
	c.hello("producer-1")
	c.batch(1, sndAct("alice", 0))
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestAck || m.ID != 1 {
		t.Fatalf("token-authenticated append: %+v %v", m, err)
	}
	c.batch(2, sndAct("bob", 0))
	if m, err := c.readIngest(); err != nil || m.Op != wire.OpIngestError || m.ID != 2 {
		t.Fatalf("token identity impersonating: %+v %v", m, err)
	}
}
