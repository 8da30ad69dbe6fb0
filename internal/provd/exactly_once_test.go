package provd

// The exactly-once e2e: the same logical batch stream is driven once
// cleanly (the control run) and once through every failure the session
// protocol protects against — acks lost mid-batch forcing client
// replays, and a full provd restart (drain, close, recover from disk)
// in the middle of the stream — and the two stores must end up
// *bit-identical*: same records, same global sequence numbers, not
// merely the same audit verdicts. This is the Definition-3 story at
// fleet scale: the durable log is the exact spine of monitored actions
// even when the transport and the daemon misbehave.

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/provclient"
	"repro/internal/store"
	"repro/internal/testutil"
)

// TestExactlyOnceBitIdenticalLog: lost acks mid-stream (client
// reconnects and replays) and a provd restart mid-stream (session table
// recovered from disk) leave the experiment store bit-identical to the
// no-failure control run — same actions, same global sequence numbers —
// and the recovered log still audits correctly.
func TestExactlyOnceBitIdenticalLog(t *testing.T) {
	const batches = 10

	// Control run: no failures, one connection, sequential batches.
	ctlStore := testutil.OpenStore(t, t.TempDir(), store.Options{SegmentBytes: 512})
	ctlSrv := ingest.NewServer(ctlStore, ingest.Options{})
	ctlAddr, err := ctlSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctlSrv.Close()
	ctl := provclient.New(ctlAddr, provclient.Options{Conns: 1})
	for i := 0; i < batches; i++ {
		if _, err := ctl.AppendBatch(chainActs(1, i)); err != nil {
			t.Fatalf("control batch %d: %v", i, err)
		}
	}
	ctl.Close()
	want := ctlStore.ScanGlobalTail(0, -1)
	if len(want) != batches*5 {
		t.Fatalf("control run has %d records, want %d", len(want), batches*5)
	}

	// Experiment run. Sequential acked batches make the ack ordinals
	// deterministic: batch k is ack k plus one per earlier re-ack. Drop
	// ordinal 3 (batch seq 3; its replay re-ack is ordinal 4) and
	// ordinal 9 (batch seq 8, the first ack after the restart below —
	// seqs 4,5 are acks 5,6, seqs 6,7 are acks 7,8 — so its replay is
	// answered by the *recovered* session table).
	expDir := t.TempDir()
	expStore, err := store.Open(expDir, store.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	expSrv := ingest.NewServer(expStore, ingest.Options{})
	expAddr, err := expSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := testutil.NewProxy(expAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.DropAckAt(3, 9)
	exp := provclient.New(proxy.Addr(), provclient.Options{Conns: 1, RequestTimeout: 5 * time.Second})
	defer exp.Close()

	for i := 0; i < 5; i++ {
		if _, err := exp.AppendBatch(chainActs(1, i)); err != nil {
			t.Fatalf("experiment batch %d: %v", i, err)
		}
	}
	if got := expSrv.Stats().DedupReplays; got != 1 {
		t.Fatalf("pre-restart DedupReplays = %d, want 1 (the dropped ack's replay)", got)
	}

	// Restart provd mid-stream: drain the listener, close the store,
	// recover both — including the session table — from disk.
	expSrv.Close()
	if err := expStore.Close(); err != nil {
		t.Fatal(err)
	}
	expStore2, err := store.Open(expDir, store.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer expStore2.Close()
	expSrv2 := ingest.NewServer(expStore2, ingest.Options{})
	expAddr2, err := expSrv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer expSrv2.Close()
	proxy.SetBackend(expAddr2)

	for i := 5; i < batches; i++ {
		if _, err := exp.AppendBatch(chainActs(1, i)); err != nil {
			t.Fatalf("post-restart batch %d: %v", i, err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := proxy.AcksDropped(); got != 2 {
		t.Fatalf("proxy dropped %d acks, want 2; the failure injection misfired", got)
	}
	if got := expSrv2.Stats().DedupReplays; got != 1 {
		t.Fatalf("post-restart DedupReplays = %d, want 1", got)
	}

	// The acceptance bar: bit-identical, not merely audit-equivalent.
	if err := testutil.DiffStores(ctlStore, expStore2); err != nil {
		t.Fatalf("experiment store diverged from control: %v", err)
	}

	// And the recovered log still justifies a genuine chain while
	// refusing a forged one, served through the provd app layer.
	ts := httptest.NewServer(NewServer(expStore2, nil))
	defer ts.Close()
	for i, claim := range []AuditRequest{
		{Value: "v1_0", Prov: []EventDTO{
			{Principal: "c1", Dir: "?"}, {Principal: "s1", Dir: "!"},
			{Principal: "s1", Dir: "?"}, {Principal: "a1", Dir: "!"},
		}},
		{Value: "v1_0", Prov: []EventDTO{
			{Principal: "c1", Dir: "?"}, {Principal: "zz", Dir: "!"},
		}},
	} {
		var resp AuditResponse
		if code := postJSON(t, ts, "/audit", claim, &resp); code != 200 {
			t.Fatalf("audit status %d", code)
		}
		if genuine := i == 0; resp.Correct != genuine {
			t.Fatalf("claim %d: verdict %v, want %v (%s)", i, resp.Correct, genuine, resp.Detail)
		}
	}
}
