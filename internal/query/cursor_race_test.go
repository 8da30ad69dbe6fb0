package query

// Cursor stability under fire: the walks the engine promises are pinned
// to their snapshot even while appends hammer the store. Run with
// -race; the suite doubles as the engine's concurrency proof.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// hammer starts writers appending concurrently (single appends and
// batches, several principals) until stop is closed or each has run
// perWriter iterations — bounded, so a slow walker under -race never
// faces an endlessly growing store; wait for them with the returned
// WaitGroup.
func hammer(t *testing.T, st *store.Store, writers, perWriter int, stop chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ch := fmt.Sprintf("c%d", i%2)
				if i%3 == 0 {
					batch := []logs.Action{
						logs.SndAct(p, logs.NameT(ch), logs.NameT("v")),
						logs.RcvAct(p, logs.NameT(ch), logs.NameT("v")),
					}
					if _, err := st.AppendBatch(batch); err != nil && failed.CompareAndSwap(false, true) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				} else if _, err := st.Append(logs.SndAct(p, logs.NameT(ch), logs.NameT("v"))); err != nil && failed.CompareAndSwap(false, true) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	return &wg
}

// TestCursorStabilityUnderConcurrentAppends: a paginated global walk
// started mid-firehose sees a gap-free, duplicate-free sequence of
// records covering exactly [0, snapshot) — no record past the snapshot,
// none skipped, none twice — while appends continue throughout.
func TestCursorStabilityUnderConcurrentAppends(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := NewEngine(st, nil)

	stop := make(chan struct{})
	wg := hammer(t, st, 4, 2000, stop)
	defer func() { wg.Wait() }()
	defer close(stop)

	// Let some records land before each walk begins.
	for st.Len() < 500 {
		time.Sleep(time.Millisecond)
	}

	for round := 0; round < 3; round++ {
		page, err := e.Run(Query{Limit: 7})
		if err != nil {
			t.Fatal(err)
		}
		snap := page.Snapshot
		var got []uint64
		for {
			for _, r := range page.Records {
				got = append(got, r.Seq)
			}
			if page.Cursor == "" {
				break
			}
			if page, err = e.Run(Query{Limit: 7, Cursor: page.Cursor}); err != nil {
				t.Fatal(err)
			}
		}
		if uint64(len(got)) != snap {
			t.Fatalf("round %d: walk served %d records for snapshot %d", round, len(got), snap)
		}
		for i, s := range got {
			if s != uint64(i) {
				t.Fatalf("round %d: position %d holds seq %d (gap or duplicate)", round, i, s)
			}
		}
	}
}

// TestFilteredWalkStabilityUnderConcurrentAppends: the multi-shard
// merged plan (a channel filter with no principal) is held to the same
// contract: the walk's records are exactly the matching records below
// its snapshot, in order, verified against the quiesced store.
func TestFilteredWalkStabilityUnderConcurrentAppends(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := NewEngine(st, nil)

	stop := make(chan struct{})
	wg := hammer(t, st, 4, 2000, stop)
	for st.Len() < 300 {
		time.Sleep(time.Millisecond)
	}

	q := Query{Channel: "c1", Limit: 5}
	page, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	snap := page.Snapshot
	var got []wire.Record
	for {
		got = append(got, page.Records...)
		if page.Cursor == "" {
			break
		}
		q.Cursor = page.Cursor
		if page, err = e.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	var want []wire.Record
	for _, r := range st.ScanGlobalTail(0, -1) {
		if r.Seq >= snap {
			break
		}
		if (r.Act.Kind == logs.Snd || r.Act.Kind == logs.Rcv) && r.Act.A.Name == "c1" {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("filtered walk served %d records, store holds %d matches below %d", len(got), len(want), snap)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("filtered walk diverges at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestFollowerUnderConcurrentAppends: a live follower consuming chunks
// while writers append sees every record exactly once, in order — the
// replication-consumer contract.
func TestFollowerUnderConcurrentAppends(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := NewEngine(st, nil)

	stop := make(chan struct{})
	wg := hammer(t, st, 4, 2000, stop)

	f, err := e.Follow(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []uint64
	for len(got) < 2000 {
		recs, ok := f.NextChunk(64, nil)
		if !ok {
			t.Fatal("follower stopped")
		}
		for _, r := range recs {
			got = append(got, r.Seq)
		}
	}
	close(stop)
	wg.Wait()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("follower position %d holds seq %d", i, s)
		}
	}
}
