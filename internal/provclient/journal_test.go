package provclient

// Write-ahead journal suite: exactly-once across *producer* crashes.
// Every "crash" here is literal — the first client incarnation is
// abandoned without a clean Close (its journal file handle is, since
// two incarnations must not share one), and the second incarnation
// opens the same journal file cold, exactly as a restarted process
// would.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
)

func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJournalCrashReplay is the headline property: a batch journaled
// but never sent (the producer died first) is re-sent by the next
// incarnation with its original sequence, landing exactly once.
func TestJournalCrashReplay(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	path := filepath.Join(t.TempDir(), "producer.journal")

	// First incarnation: one batch delivered, then a second batch
	// journaled — crash before it touches the wire. Journaling under
	// the *next* sequence is exactly what appendChunk does between its
	// record() and deliver() calls.
	j := openJournal(t, path)
	c := New(addr, Options{Session: "crash-replay", Journal: j})
	if _, err := c.AppendBatch([]logs.Action{act("a", 0), act("a", 1)}); err != nil {
		t.Fatal(err)
	}
	undelivered := []logs.Action{act("b", 2), act("b", 3)}
	if err := j.record(2, undelivered); err != nil {
		t.Fatal(err)
	}
	j.Close() // crash: no client Close, no send

	if got := st.NextSeq(); got != 2 {
		t.Fatalf("store holds %d records before replay, want 2", got)
	}

	// Second incarnation: the journal names the session and the lost
	// batch; replay must deliver it and nothing else.
	j2 := openJournal(t, path)
	if got := j2.Session(); got != "crash-replay" {
		t.Fatalf("recovered session %q", got)
	}
	if p := j2.Pending(); len(p) != 1 || p[0] != 2 {
		t.Fatalf("recovered pending %v, want [2]", p)
	}
	c2 := New(addr, Options{Session: j2.Session(), Journal: j2})
	defer c2.Close()
	resent, err := c2.ReplayJournal()
	if err != nil {
		t.Fatal(err)
	}
	if resent != 1 {
		t.Fatalf("replay re-sent %d batches, want 1", resent)
	}
	if p := j2.Pending(); len(p) != 0 {
		t.Fatalf("journal still pending %v after replay", p)
	}
	recs := st.ScanGlobalTail(0, -1)
	if len(recs) != 4 {
		t.Fatalf("store holds %d records after replay, want 4", len(recs))
	}
	for i, want := range append([]logs.Action{act("a", 0), act("a", 1)}, undelivered...) {
		if recs[i].Act != want {
			t.Fatalf("record %d: %+v, want %+v", i, recs[i].Act, want)
		}
	}
	// And the resumed incarnation keeps appending above the replayed
	// floor without colliding.
	if _, err := c2.AppendBatch([]logs.Action{act("c", 4)}); err != nil {
		t.Fatal(err)
	}
	if got := st.NextSeq(); got != 5 {
		t.Fatalf("store holds %d records after post-replay append, want 5", got)
	}
}

// TestJournalReplayBelowFloor is the delivered-but-unmarked shape: the
// crashed incarnation's batch reached the server, only the journal ack
// was lost. Replay must prove it durable from the committed floor and
// drop it without a wire re-send — and even if it re-sent, the server
// dedup would re-ack. Either way: exactly one copy.
func TestJournalReplayBelowFloor(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	path := filepath.Join(t.TempDir(), "producer.journal")

	j := openJournal(t, path)
	c := New(addr, Options{Session: "lost-ack", Journal: j})
	batch := []logs.Action{act("a", 0), act("a", 1)}
	if _, err := c.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Re-journal the same batch under its real sequence (1) as if the
	// ack entry never hit the file, then crash.
	if err := j.record(1, batch); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openJournal(t, path)
	if p := j2.Pending(); len(p) != 1 || p[0] != 1 {
		t.Fatalf("recovered pending %v, want [1]", p)
	}
	c2 := New(addr, Options{Session: j2.Session(), Journal: j2})
	defer c2.Close()
	resent, err := c2.ReplayJournal()
	if err != nil {
		t.Fatal(err)
	}
	if resent != 0 {
		t.Fatalf("replay re-sent %d batches; the floor already proved them durable", resent)
	}
	if p := j2.Pending(); len(p) != 0 {
		t.Fatalf("journal still pending %v", p)
	}
	if got := st.NextSeq(); got != 2 {
		t.Fatalf("store holds %d records, want 2 — the floor check failed to dedup", got)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn frame; recovery
// keeps the checksummed prefix and drops the tail.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "producer.journal")
	j := openJournal(t, path)
	if err := j.bind("torn"); err != nil {
		t.Fatal(err)
	}
	if err := j.record(1, []logs.Action{act("a", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := j.record(2, []logs.Action{act("b", 1)}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the last frame: chop a few bytes off the end.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, path)
	defer j2.Close()
	if got := j2.Session(); got != "torn" {
		t.Fatalf("recovered session %q", got)
	}
	if p := j2.Pending(); len(p) != 1 || p[0] != 1 {
		t.Fatalf("recovered pending %v, want [1] — the torn batch must vanish", p)
	}
}

// TestJournalAckTrim: acked batches leave Pending immediately, and a
// reopened journal does not resurrect them.
func TestJournalAckTrim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "producer.journal")
	j := openJournal(t, path)
	if err := j.record(1, []logs.Action{act("a", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := j.record(2, []logs.Action{act("b", 1)}); err != nil {
		t.Fatal(err)
	}
	j.ack(1)
	if p := j.Pending(); len(p) != 1 || p[0] != 2 {
		t.Fatalf("pending %v after ack, want [2]", p)
	}
	j.Close()

	j2 := openJournal(t, path)
	defer j2.Close()
	if p := j2.Pending(); len(p) != 1 || p[0] != 2 {
		t.Fatalf("reopened pending %v, want [2]", p)
	}
	if got := j2.MaxSeq(); got != 2 {
		t.Fatalf("MaxSeq %d, want 2", got)
	}
}

// TestJournaledClientEndToEnd drives the whole loop through the public
// API only: a journaled client appends across a server restart, crashes
// with work in flight... no — with work journaled; the next incarnation
// replays through New + ReplayJournal and the store matches a journal-
// free control run exactly.
func TestJournaledClientEndToEnd(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	ctrlDir := t.TempDir()
	control, err := store.Open(ctrlDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	path := filepath.Join(t.TempDir(), "producer.journal")

	workload := [][]logs.Action{
		{act("a", 0), act("a", 1)},
		{act("b", 2)},
		{act("c", 3), act("c", 4), act("c", 5)},
	}
	for _, batch := range workload {
		if _, err := control.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	// Incarnation 1 sends the first two batches, journals the third,
	// and dies.
	j := openJournal(t, path)
	c := New(addr, Options{Session: "e2e", Journal: j})
	for _, batch := range workload[:2] {
		if _, err := c.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.record(3, workload[2]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Incarnation 2 replays and catches up.
	j2 := openJournal(t, path)
	c2 := New(addr, Options{Session: j2.Session(), Journal: j2})
	defer c2.Close()
	if _, err := c2.ReplayJournal(); err != nil {
		t.Fatal(err)
	}

	want := control.ScanGlobalTail(0, -1)
	got := st.ScanGlobalTail(0, -1)
	if len(got) != len(want) {
		t.Fatalf("store holds %d records, control %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, control %+v", i, got[i], want[i])
		}
	}
}
