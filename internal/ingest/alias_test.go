package ingest

// The pool-aliasing property suite: the listener's hot path recycles
// frame buffers, acts slices and scratch encoders aggressively, and
// these tests exist to prove the recycling can never corrupt what was
// committed or acked. They run with pool poisoning on (every buffer is
// smeared the moment it is returned), under concurrent pipelined
// clients with random batch shapes, and assert the committed records
// are bit-identical to what each client sent — any use-after-return
// anywhere in the path shows up as poison in the store or a mismatched
// ack.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// poisonPools turns on wire-pool poisoning for one test.
func poisonPools(t *testing.T) {
	t.Helper()
	wire.SetPoolPoison(true)
	t.Cleanup(func() { wire.SetPoolPoison(false) })
}

// randActs builds a batch of n actions whose every string encodes
// (principal, batch, index), so a single leaked or stomped action is
// attributable.
func randActs(principal string, batch, n int) []logs.Action {
	out := make([]logs.Action, n)
	for i := range out {
		out[i] = logs.SndAct(principal,
			logs.NameT(fmt.Sprintf("b%d.i%d", batch, i)),
			logs.NameT(fmt.Sprintf("val.%s.%d.%d", principal, batch, i)))
	}
	return out
}

// TestIngestAliasingConcurrent: several connections, each under its own
// session, pipeline batches of random shapes while every recycled
// buffer is poisoned on return. Each connection's committed records
// must be exactly its sent actions, in order, bit for bit.
func TestIngestAliasingConcurrent(t *testing.T) {
	poisonPools(t)
	// A short idle gap forces park/wake cycles into the middle of the
	// traffic, so buffer release and reacquisition are exercised too.
	_, st, addr := newTestServer(t, Options{IdlePark: 20 * time.Millisecond})

	const conns = 6
	const batches = 40
	var wg sync.WaitGroup
	sent := make([][][]logs.Action, conns)
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) * 7919))
			principal := fmt.Sprintf("conn%d", c)
			rc := dialRaw(t, addr)
			for b := 0; b < batches; b++ {
				n := 1 + rng.Intn(40)
				acts := randActs(principal, b, n)
				sent[c] = append(sent[c], acts)
				rc.sendBatch(uint64(b+1), acts)
				if rng.Intn(4) == 0 {
					rc.flush()
					// Occasionally go quiet long enough to park mid-stream.
					if rng.Intn(4) == 0 {
						time.Sleep(35 * time.Millisecond)
					}
				}
			}
			rc.flush()
			for b := 0; b < batches; b++ {
				m, err := rc.readMsg()
				if err != nil {
					errs <- fmt.Errorf("conn %d ack %d: %v", c, b, err)
					return
				}
				if m.Op != wire.OpIngestAck || m.ID != uint64(b+1) || int(m.Count) != len(sent[c][b]) {
					errs <- fmt.Errorf("conn %d ack %d: %+v (want id=%d count=%d)", c, b, m, b+1, len(sent[c][b]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	for c := 0; c < conns; c++ {
		principal := fmt.Sprintf("conn%d", c)
		var want []logs.Action
		for _, b := range sent[c] {
			want = append(want, b...)
		}
		recs := st.ScanShardTail(principal, store.Filter{}, 0, -1)
		if len(recs) != len(want) {
			t.Fatalf("conn %d: %d records committed, want %d", c, len(recs), len(want))
		}
		for i, r := range recs {
			if r.Act != want[i] {
				t.Fatalf("conn %d record %d corrupted: got %+v want %+v", c, i, r.Act, want[i])
			}
		}
	}
}

// TestIngestNoCrossSessionAckLeak: two sessions commit the same batch
// sequence; a replay on each must re-ack its *own* original block —
// recycled dedup scratch must never alias one session's outcome to the
// other's.
func TestIngestNoCrossSessionAckLeak(t *testing.T) {
	poisonPools(t)
	_, _, addr := newTestServer(t, Options{})

	rcA := dialBare(t, addr)
	rcA.handshake("sessA")
	rcB := dialBare(t, addr)
	rcB.handshake("sessB")

	rcA.sendBatch2(1, 1, randActs("pA", 0, 5))
	rcA.flush()
	ackA, err := rcA.readMsg()
	if err != nil || ackA.Op != wire.OpIngestAck {
		t.Fatalf("A ack: %+v %v", ackA, err)
	}
	rcB.sendBatch2(1, 1, randActs("pB", 0, 3))
	rcB.flush()
	ackB, err := rcB.readMsg()
	if err != nil || ackB.Op != wire.OpIngestAck {
		t.Fatalf("B ack: %+v %v", ackB, err)
	}
	if ackA.Base == ackB.Base {
		t.Fatalf("sessions share a block: %d", ackA.Base)
	}

	// Replays, in swapped order to stress any shared scratch.
	rcB.sendBatch2(2, 1, randActs("pB", 0, 3))
	rcB.flush()
	reB, err := rcB.readMsg()
	if err != nil || reB.Op != wire.OpIngestAck || reB.Base != ackB.Base || reB.Count != ackB.Count {
		t.Fatalf("B replay re-ack: %+v (want base=%d count=%d)", reB, ackB.Base, ackB.Count)
	}
	rcA.sendBatch2(2, 1, randActs("pA", 0, 5))
	rcA.flush()
	reA, err := rcA.readMsg()
	if err != nil || reA.Op != wire.OpIngestAck || reA.Base != ackA.Base || reA.Count != ackA.Count {
		t.Fatalf("A replay re-ack: %+v (want base=%d count=%d)", reA, ackA.Base, ackA.Count)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIngestParkWake: an idle connection parks (its goroutines gone,
// its buffers returned), then a new batch wakes it and commits exactly
// as if it had never parked.
func TestIngestParkWake(t *testing.T) {
	poisonPools(t)
	srv, st, addr := newTestServer(t, Options{IdlePark: 30 * time.Millisecond})
	rc := dialRaw(t, addr)

	batch := acts("alice", 0, 4)
	rc.sendBatch(1, batch)
	rc.flush()
	if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("first ack: %+v %v", m, err)
	}

	waitFor(t, "connection to park", func() bool { return srv.Stats().Parked == 1 })

	// The wake: a second batch after the park.
	batch2 := acts("alice", 4, 3)
	rc.sendBatch(2, batch2)
	rc.flush()
	m, err := rc.readMsg()
	if err != nil || m.Op != wire.OpIngestAck || m.Count != 3 {
		t.Fatalf("post-park ack: %+v %v", m, err)
	}
	stats := srv.Stats()
	if stats.Parks == 0 || stats.Wakes == 0 {
		t.Fatalf("park cycle not counted: %+v", stats)
	}

	recs := st.ScanShardTail("alice", store.Filter{}, 0, -1)
	want := append(append([]logs.Action(nil), batch...), batch2...)
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Act != want[i] {
			t.Fatalf("record %d corrupted across park: got %+v want %+v", i, r.Act, want[i])
		}
	}
}

// TestIngestParkSessionSurvives: a sessioned connection that parks
// keeps its session — a post-wake batch on the next sequence commits,
// and a post-wake replay still re-acks the pre-park block.
func TestIngestParkSessionSurvives(t *testing.T) {
	srv, _, addr := newTestServer(t, Options{IdlePark: 30 * time.Millisecond})
	rc := dialBare(t, addr)
	rc.handshake("parked-sess")
	rc.sendBatch2(1, 1, acts("p", 0, 6))
	rc.flush()
	first, err := rc.readMsg()
	if err != nil || first.Op != wire.OpIngestAck {
		t.Fatalf("ack: %+v %v", first, err)
	}

	waitFor(t, "connection to park", func() bool { return srv.Stats().Parked == 1 })

	rc.sendBatch2(2, 1, acts("p", 0, 6)) // replay across the park
	rc.flush()
	re, err := rc.readMsg()
	if err != nil || re.Op != wire.OpIngestAck || re.Base != first.Base || re.Count != first.Count {
		t.Fatalf("post-park replay: %+v (want base=%d count=%d)", re, first.Base, first.Count)
	}
	rc.sendBatch2(3, 2, acts("p", 6, 2)) // and the session advances
	rc.flush()
	next, err := rc.readMsg()
	if err != nil || next.Op != wire.OpIngestAck || next.Count != 2 {
		t.Fatalf("post-park next batch: %+v %v", next, err)
	}
}

// TestIngestParkedConnClose: a peer that disconnects while parked is
// noticed and cleaned up without traffic.
func TestIngestParkedConnClose(t *testing.T) {
	srv, _, addr := newTestServer(t, Options{IdlePark: 20 * time.Millisecond})
	rc := dialRaw(t, addr)
	rc.sendBatch(1, acts("p", 0, 2))
	rc.flush()
	if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck {
		t.Fatalf("ack: %+v %v", m, err)
	}
	waitFor(t, "connection to park", func() bool { return srv.Stats().Parked == 1 })
	rc.c.Close()
	waitFor(t, "parked connection to be reaped", func() bool {
		s := srv.Stats()
		return s.Active == 0 && s.Parked == 0
	})
}

// TestIngestParkedDrain: Close with parked connections neither hangs
// nor leaks them.
func TestIngestParkedDrain(t *testing.T) {
	srv, _, addr := newTestServer(t, Options{IdlePark: 20 * time.Millisecond})
	for i := 0; i < 3; i++ {
		rc := dialRaw(t, addr)
		rc.sendBatch(1, acts(fmt.Sprintf("p%d", i), 0, 2))
		rc.flush()
		if m, err := rc.readMsg(); err != nil || m.Op != wire.OpIngestAck {
			t.Fatalf("conn %d ack: %+v %v", i, m, err)
		}
	}
	waitFor(t, "all connections to park", func() bool { return srv.Stats().Parked == 3 })

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on parked connections")
	}
	if s := srv.Stats(); s.Active != 0 || s.Parked != 0 {
		t.Fatalf("connections leaked through drain: %+v", s)
	}
}

// TestIngestParkWakeStress: rapid park/wake cycling under pipelined
// traffic (run with -race). IdlePark of a millisecond makes nearly
// every inter-batch gap a park; every batch must still ack and commit.
func TestIngestParkWakeStress(t *testing.T) {
	poisonPools(t)
	srv, st, addr := newTestServer(t, Options{IdlePark: time.Millisecond})
	rc := dialRaw(t, addr)
	const batches = 60
	total := 0
	for b := 0; b < batches; b++ {
		n := 1 + b%5
		rc.sendBatch(uint64(b+1), acts("stress", total, n))
		rc.flush()
		m, err := rc.readMsg()
		if err != nil || m.Op != wire.OpIngestAck || int(m.Count) != n {
			t.Fatalf("batch %d: %+v %v", b, m, err)
		}
		total += n
		if b%7 == 0 {
			time.Sleep(3 * time.Millisecond) // likely parks here
		}
	}
	recs := st.ScanShardTail("stress", store.Filter{}, 0, -1)
	if len(recs) != total {
		t.Fatalf("%d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if want := act("stress", i); r.Act != want {
			t.Fatalf("record %d: got %+v want %+v", i, r.Act, want)
		}
	}
	if srv.Stats().Parks == 0 {
		t.Fatal("stress run never parked")
	}
}
