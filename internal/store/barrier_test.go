package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logs"
	"repro/internal/wire"
)

// onePer returns one action for each of n distinct principals, so a
// batch of them touches n segments.
func onePer(n int) []logs.Action {
	acts := make([]logs.Action, n)
	for i := range acts {
		acts[i] = logs.SndAct(fmt.Sprintf("p%02d", i), logs.NameT("m"), logs.NameT("v"))
	}
	return acts
}

// TestBarrierFailureFailsTheBatch: with Fsync on, one touched segment
// among many refusing its sync fails the whole AppendBatch /
// ApplyReplicated — wherever in the fan-out that segment lands — and
// the batch is not counted as appended.
func TestBarrierFailureFailsTheBatch(t *testing.T) {
	const touched = 3 * barrierWidth
	for _, broken := range []int{0, touched / 2, touched - 1} {
		t.Run(fmt.Sprintf("segment%d", broken), func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			acts := onePer(touched)
			if _, err := s.AppendBatch(acts); err != nil { // creates the shards
				t.Fatal(err)
			}
			before := s.Stats()
			if want := uint64(touched); before.SyncBarriers != 1 || before.SegmentSyncs != want {
				t.Fatalf("one batch over %d segments counted %d barriers, %d syncs", touched, before.SyncBarriers, before.SegmentSyncs)
			}
			BreakSync(t, s, acts[broken].Principal)

			if _, err := s.AppendBatch(acts); err == nil {
				t.Fatal("AppendBatch succeeded over a segment that cannot sync")
			}
			recs := make([]wire.Record, len(acts))
			for i, a := range acts {
				recs[i] = wire.Record{Seq: s.NextSeq() + uint64(i), Act: a}
			}
			if err := s.ApplyReplicated(recs); err == nil {
				t.Fatal("ApplyReplicated succeeded over a segment that cannot sync")
			}
			if got := s.Stats().BatchAppends; got != before.BatchAppends {
				t.Fatalf("BatchAppends went %d → %d across two failed barriers", before.BatchAppends, got)
			}
		})
	}
}

// TestBarrierConcurrentBatches: fsynced AppendBatch calls racing on
// overlapping and on disjoint stripe sets (run under -race) each get
// their own contiguous block and nothing is lost.
func TestBarrierConcurrentBatches(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, rounds, touched = 6, 8, 2 * barrierWidth
	all := onePer(workers / 2 * touched)
	var wg sync.WaitGroup
	bases := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		// Workers 2k and 2k+1 share a principal range (every stripe they
		// take overlaps); ranges of different pairs overlap only by hash.
		acts := all[w/2*touched : (w/2+1)*touched]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				base, err := s.AppendBatch(acts)
				if err != nil {
					t.Error(err)
					return
				}
				bases[w] = append(bases[w], base)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[uint64]bool)
	for _, bs := range bases {
		for _, base := range bs {
			for i := uint64(0); i < touched; i++ {
				if seen[base+i] {
					t.Fatalf("seq %d assigned twice", base+i)
				}
				seen[base+i] = true
			}
		}
	}
	if want := workers * rounds * touched; len(seen) != want || s.Len() != want {
		t.Fatalf("%d seqs assigned, %d records stored, want %d", len(seen), s.Len(), want)
	}
	st := s.Stats()
	if want := uint64(workers * rounds); st.SyncBarriers != want || st.SegmentSyncs != want*touched {
		t.Fatalf("%d barriers / %d syncs, want %d / %d", st.SyncBarriers, st.SegmentSyncs, want, want*touched)
	}
}

// TestSyncAndCloseBarrier: Sync and Close run every shard through the
// same barrier (counted once each) and leave the store recoverable.
func TestSyncAndCloseBarrier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3 * barrierWidth
	if _, err := s.AppendBatch(onePer(shards)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SyncBarriers != 0 || st.SegmentSyncs != 0 {
		t.Fatalf("Fsync off: %d barriers, %d syncs before any Sync", st.SyncBarriers, st.SegmentSyncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SyncBarriers != 1 || st.SegmentSyncs != shards {
		t.Fatalf("Sync: %d barriers, %d syncs, want 1, %d", st.SyncBarriers, st.SegmentSyncs, shards)
	}
	BreakSync(t, s, "p05")
	if err := s.Sync(); err == nil {
		t.Fatal("Sync succeeded over a segment that cannot sync")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close succeeded over a segment that cannot sync")
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != shards {
		t.Fatalf("recovered %d records, want %d", r.Len(), shards)
	}
}
