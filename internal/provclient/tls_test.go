package provclient

// The TLS client path under failure: every redial must re-run the full
// handshake — TCP, TLS with server verification and the client
// certificate, then the v2 session hello — because retry-reconnect is
// exactly when an authenticating deployment would otherwise degrade to
// an unauthenticated socket. Certificates come fresh from testutil's
// in-memory CA; nothing is committed.

import (
	"crypto/tls"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/testutil"
)

// tlsBackend starts an mTLS ingest server enforcing a wildcard-append
// producer grant, returning the store, listen address, server TLS
// config (for restarts and proxies) and the producer's client config.
func tlsBackend(t *testing.T) (*store.Store, string, *testCluster) {
	t.Helper()
	ca, err := testutil.NewTestCA()
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.ServerConfig("leader")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.ClientConfig("producer")
	if err != nil {
		t.Fatal(err)
	}
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "producer", Principals: []string{"*"}, Roles: auth.RoleAppend}, ""); err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{server: server, client: client, guard: auth.NewGuard(m)}
	st := testutil.OpenStore(t, t.TempDir(), store.Options{})
	addr := tc.listen(t, st, "127.0.0.1:0")
	return st, addr, tc
}

type testCluster struct {
	server, client *tls.Config
	guard          *auth.Guard
	srv            *ingest.Server
}

// listen starts (or restarts) an enforcing mTLS server for st.
func (tc *testCluster) listen(t *testing.T, st *store.Store, addr string) string {
	t.Helper()
	srv := ingest.NewServer(st, ingest.Options{TLS: tc.server, Auth: tc.guard})
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	tc.srv = srv
	return bound
}

// TestTLSRetryReconnect: a server restart between appends is absorbed
// by retry-with-reconnect, and the redial performs a full fresh mTLS
// handshake against the restarted listener — no append is lost and no
// frame travels unauthenticated.
func TestTLSRetryReconnect(t *testing.T) {
	st, addr, tc := tlsBackend(t)
	c := New(addr, Options{Conns: 1, RequestTimeout: 5 * time.Second, TLSConfig: tc.client})
	defer c.Close()

	if _, err := c.AppendBatch([]logs.Action{act("p", 0)}); err != nil {
		t.Fatal(err)
	}
	tc.srv.Close()
	tc.listen(t, st, addr)
	if _, err := c.AppendBatch([]logs.Action{act("p", 1)}); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
	if n := len(st.ScanShardTail("p", store.Filter{}, 0, -1)); n != 2 {
		t.Fatalf("store has %d records, want 2", n)
	}
}

// TestTLSReplayAfterLostAck: the exactly-once replay property holds on
// the authenticated path. The TLS-terminating proxy swallows the ack
// and kills the connection; the client redials (fresh TLS handshake,
// fresh session hello) and replays under the same batch sequence, and
// the server re-acks instead of duplicating.
func TestTLSReplayAfterLostAck(t *testing.T) {
	st, addr, tc := tlsBackend(t)
	proxy, err := testutil.NewProxyTLS(addr, tc.server, tc.client)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	dropped := proxy.ArmAckDrop()
	c := New(proxy.Addr(), Options{Conns: 1, RequestTimeout: 5 * time.Second, TLSConfig: tc.client})
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
	if got := tc.srv.Stats().DedupReplays; got != 1 {
		t.Fatalf("DedupReplays = %d, want 1", got)
	}
}
