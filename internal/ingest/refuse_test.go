package ingest

import (
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// ownerView is a partition map under which this node owns exactly one
// principal.
type ownerView string

func (v ownerView) Owns(p string) bool     { return p == string(v) }
func (ownerView) Epoch() uint64            { return 7 }
func (ownerView) WireMap() wire.ClusterMap { return wire.ClusterMap{} }

// TestAppendRefusals: every source of an append refusal answers in the
// one shape refuseAppend gives it. A batch is refused per request — an
// error carrying its id, nothing appended — and the same connection
// then serves a query. A hello draws an id-0 error and a close where the
// refusal covers the whole connection (a read replica, an identity
// without the append role). Where the refusal depends on a batch's
// principals (outside the grant, owned by another leader), and on a
// coordinator, the hello carries no actions to refuse and is acked with
// floor 0.
func TestAppendRefusals(t *testing.T) {
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "reader", Roles: auth.RoleRead}, "reader-token"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend | auth.RoleRead}, "writer-token"); err != nil {
		t.Fatal(err)
	}
	guard := auth.NewGuard(m)
	cases := []struct {
		name        string
		opts        Options
		coordinator bool   // serve with a nil store, queries through an engine
		token       string // cleartext auth frame, where the listener enforces the map
		principal   string // the refused batch's principal
		want        string // in the refusal
		helloAcked  bool
	}{
		{name: "replica", opts: Options{LeaderAddr: "10.0.0.9:7710"}, principal: "alice",
			want: "read-only replica: appends must go to the leader at 10.0.0.9:7710"},
		{name: "coordinator", coordinator: true, principal: "alice",
			want: "coordinator: appends go to the partition leaders", helloAcked: true},
		{name: "no append role", opts: Options{Auth: guard}, token: "reader-token", principal: "alice",
			want: `identity "reader" lacks the append role`},
		{name: "foreign principal", opts: Options{Auth: guard}, token: "writer-token", principal: "bob",
			want: `identity "writer" may not append as principal "bob"`, helloAcked: true},
		{name: "not owner", opts: Options{Cluster: ownerView("alice")}, principal: "bob",
			want: `cluster: not owner of principal "bob" at epoch 7`, helloAcked: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if _, err := st.Append(act("seed", 0)); err != nil {
				t.Fatal(err)
			}
			opts, served := tc.opts, st
			if tc.coordinator {
				opts.Engine, served = query.NewEngine(st, nil), nil
			}
			srv := NewServer(served, opts)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			dial := func() *rawConn {
				rc := dialBare(t, addr)
				if tc.token != "" {
					rc.frame(func(e *wire.Encoder) { e.IngestAuth(tc.token) })
				}
				return rc
			}

			// The batch: refused under its own id, and the connection lives
			// on to serve a query.
			rc := dial()
			if tc.helloAcked {
				rc.handshake("batch-leg")
			}
			rc.sendBatch2(5, 1, []logs.Action{act(tc.principal, 1)})
			rc.flush()
			if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestError || m.ID != 5 || !strings.Contains(m.Msg, tc.want) {
				t.Fatalf("batch: %+v %v, want a request-scoped error with %q", m, err, tc.want)
			}
			rc.sendQuery(6, wire.QuerySpec{})
			if recs, _ := rc.collect(6); len(recs) != 1 {
				t.Fatalf("query after the refusal served %d records, want 1", len(recs))
			}
			if n := st.Len(); n != 1 {
				t.Fatalf("store has %d records, want 1: the refused batch was appended", n)
			}
			if got := srv.Stats().Rejects; got != 1 {
				t.Fatalf("Rejects = %d, want 1", got)
			}

			// The hello.
			rc = dial()
			rc.sendHello(wire.IngestV2, "hello-leg")
			rc.flush()
			m, err := rc.readMsg()
			if tc.helloAcked {
				if err != nil || m.Op != wire.OpIngestHelloAck || m.BatchSeq != 0 {
					t.Fatalf("hello: %+v %v, want an ack with floor 0", m, err)
				}
				return
			}
			if err != nil || m.Op != wire.OpIngestError || m.ID != 0 || !strings.Contains(m.Msg, tc.want) {
				t.Fatalf("hello: %+v %v, want an id-0 error with %q", m, err, tc.want)
			}
			if _, err := rc.readMsg(); err == nil {
				t.Fatal("connection should be closed after a refused hello")
			}
		})
	}
}
