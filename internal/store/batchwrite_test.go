package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logs"
	"repro/internal/wire"
)

// applyBatch writes acts through AppendBatch or, for path
// "ApplyReplicated", as records numbered from NextSeq.
func applyBatch(s *Store, path string, acts []logs.Action) error {
	if path == "AppendBatch" {
		_, err := s.AppendBatch(acts)
		return err
	}
	recs := make([]wire.Record, len(acts))
	for i, a := range acts {
		recs[i] = wire.Record{Seq: s.NextSeq() + uint64(i), Act: a}
	}
	return s.ApplyReplicated(recs)
}

var batchPaths = []string{"AppendBatch", "ApplyReplicated"}

// activeSize is the on-disk size of principal's active segment file.
func activeSize(t *testing.T, s *Store, principal string) int64 {
	t.Helper()
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	fi, err := os.Stat(sh.active.path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// fillSegment appends to principal until its active segment holds at
// least segBytes, so its next append rotates.
func fillSegment(t *testing.T, s *Store, principal string, segBytes int64) {
	t.Helper()
	for {
		if _, err := s.Append(logs.SndAct(principal, logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
		if activeSize(t, s, principal) >= segBytes {
			return
		}
	}
}

// TestBatchWriteFailureAppendsNothing: a batch over three principals
// whose last-written segment refuses writes fails as a whole. Nothing
// of it is visible, the two segments already written are truncated back
// on disk, and after a restart no sequence number of the batch exists.
// AppendBatch burns the batch's sequence block; ApplyReplicated leaves
// NextSeq where it was, so the batch can be retried as is.
func TestBatchWriteFailureAppendsNothing(t *testing.T) {
	for _, path := range batchPaths {
		t.Run(path, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			principals := []string{"pa", "pb", "pc"}
			var acts []logs.Action
			for round := 0; round < 2; round++ {
				for _, p := range principals {
					acts = append(acts, logs.SndAct(p, logs.NameT("m"), logs.NameT(fmt.Sprintf("v%d", round))))
				}
			}
			if _, err := s.AppendBatch(acts[:3]); err != nil { // creates the shards
				t.Fatal(err)
			}
			sizes := make(map[string]int64)
			for _, p := range principals {
				sizes[p] = activeSize(t, s, p)
			}
			before := s.Stats()
			BreakWrite(t, s, "pc")

			if err := applyBatch(s, path, acts); err == nil {
				t.Fatalf("%s succeeded over a segment that refuses writes", path)
			}
			if n := s.Len(); n != 3 {
				t.Fatalf("Len %d after the failed batch, want 3", n)
			}
			for _, pc := range s.Counts().Principals {
				if pc.Records != 1 {
					t.Fatalf("Counts: %s holds %d records, want 1", pc.Principal, pc.Records)
				}
			}
			if got := s.ScanGlobal(before.NextSeq, 0, -1); len(got) != 0 {
				t.Fatalf("ScanGlobal shows %d records of the failed batch", len(got))
			}
			for _, p := range principals {
				if got := activeSize(t, s, p); got != sizes[p] {
					t.Fatalf("%s's segment is %d bytes after the failed batch, was %d", p, got, sizes[p])
				}
			}
			after := s.Stats()
			if after.Appends != before.Appends || after.AppendedBytes != before.AppendedBytes || after.SegmentWrites != before.SegmentWrites {
				t.Fatalf("counters moved across a failed batch: %+v → %+v", before, after)
			}
			wantNext := before.NextSeq
			if path == "AppendBatch" {
				wantNext += uint64(len(acts))
			}
			if after.NextSeq != wantNext {
				t.Fatalf("NextSeq %d → %d, want %d", before.NextSeq, after.NextSeq, wantNext)
			}

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.ScanGlobal(0, 0, -1); len(got) != 3 || got[2].Seq >= before.NextSeq {
				t.Fatalf("recovered %v, want the 3 records before the failed batch", got)
			}
		})
	}
}

// TestBatchOneWritePerSegment: a batch over k distinct principals
// issues exactly k segment writes, however many records it holds, and
// still k when one of its shards rotates inside the batch.
func TestBatchOneWritePerSegment(t *testing.T) {
	const segBytes, k, perShard = 256, 5, 8
	for _, path := range batchPaths {
		t.Run(path, func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillSegment(t, s, "p0", segBytes)
			acts := make([]logs.Action, 0, k*perShard)
			for i := 0; i < k*perShard; i++ {
				acts = append(acts, logs.SndAct(fmt.Sprintf("p%d", i%k), logs.NameT("m"), logs.NameT("v")))
			}
			before := s.Stats()
			if err := applyBatch(s, path, acts); err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if got := after.SegmentWrites - before.SegmentWrites; got != k {
				t.Fatalf("%d records over %d principals took %d segment writes, want %d", len(acts), k, got, k)
			}
			if got := after.Rotations - before.Rotations; got != 1 {
				t.Fatalf("%d rotations inside the batch, want 1 (p0's full segment)", got)
			}
			if got := after.Appends - before.Appends; got != uint64(len(acts)) {
				t.Fatalf("Appends rose by %d, want %d", got, len(acts))
			}
		})
	}
}

// TestBatchRotatesAtRunStart: a shard whose active segment is full
// rotates before its run in a batch, to a segment named after the run's
// first sequence number, and never inside the run — so the new segment
// holds the whole run, passing SegmentBytes by less than the run's
// frame bytes. Everything reads back in sequence order after a restart.
func TestBatchRotatesAtRunStart(t *testing.T) {
	const segBytes = 128
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	fillSegment(t, s, "p", segBytes)
	for round := 0; round < 2; round++ {
		// q, then a run of p long enough to cross segBytes twice over.
		acts := []logs.Action{logs.RcvAct("q", logs.NameT("m"), logs.NameT("v"))}
		for i := 0; i < 30; i++ {
			acts = append(acts, logs.SndAct("p", logs.NameT("m"), logs.NameT(fmt.Sprintf("v%d", i))))
		}
		segs, rotations := s.SegmentCount("p"), s.Stats().Rotations
		base, err := s.AppendBatch(acts)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Rotations - rotations; got != 1 {
			t.Fatalf("round %d: %d rotations, want 1 (p's, at its run's start)", round, got)
		}
		if got := s.SegmentCount("p"); got != segs+1 {
			t.Fatalf("round %d: p has %d segments, want %d", round, got, segs+1)
		}
		s.mu.RLock()
		active := s.shards["p"].active
		s.mu.RUnlock()
		if got, want := filepath.Base(active.path), segName(base+1); got != want {
			t.Fatalf("round %d: p's new segment is %s, want %s (its run's first seq)", round, got, want)
		}
		runBytes := 0
		for i, a := range acts[1:] {
			runBytes += len(wire.AppendRecordFrame(nil, wire.Record{Seq: base + 1 + uint64(i), Act: a}))
		}
		if runBytes <= 2*segBytes {
			t.Fatalf("run of %d bytes does not cross the threshold twice", runBytes)
		}
		if got := activeSize(t, s, "p"); got != int64(runBytes) {
			t.Fatalf("round %d: p's new segment holds %d bytes, want the whole run's %d", round, got, runBytes)
		}
	}
	want := s.ScanGlobal(0, 0, -1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.ScanGlobal(0, 0, -1)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] || (i > 0 && got[i].Seq <= got[i-1].Seq) {
			t.Fatalf("record %d recovered as %+v, want %+v in sequence order", i, got[i], want[i])
		}
	}
}
