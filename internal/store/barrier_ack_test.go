package store_test

import (
	"fmt"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/store"
	"repro/internal/testutil"
)

// TestBarrierFailureIsNeverAcked: a commit round whose barrier fails on
// one of its touched segments produces no ack — the producer's append
// fails, the server counts nothing as acked durable, and no session
// entry vouches for the batch.
func TestBarrierFailureIsNeverAcked(t *testing.T) {
	st := testutil.OpenStore(t, t.TempDir(), store.Options{Fsync: true})
	srv := ingest.NewServer(st, ingest.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := provclient.New(addr, provclient.Options{Conns: 1, Retries: -1})
	defer c.Close()

	batch := make([]logs.Action, 12)
	for i := range batch {
		batch[i] = testutil.Act(fmt.Sprintf("p%d", i), i)
	}
	if _, err := c.AppendBatch(batch); err != nil { // creates the shards
		t.Fatal(err)
	}
	acked, entries := srv.Stats().Records, st.Stats().SessionEntries
	store.BreakSync(t, st, batch[7].Principal)
	if _, err := c.AppendBatch(batch); err == nil {
		t.Fatal("the producer was acked a batch whose barrier failed")
	}
	if got := srv.Stats().Records; got != acked {
		t.Fatalf("server counts %d records acked durable, want %d", got, acked)
	}
	if got := st.Stats().SessionEntries; got != entries {
		t.Fatalf("session table holds %d entries, want %d: a failed batch was checkpointed", got, entries)
	}
}
