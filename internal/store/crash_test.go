//go:build unix

package store

import (
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/wire"
)

// HaltWrite makes the next write to principal's active segment block
// until release is called: the segment's descriptor is swapped for the
// write end of a pipe whose buffer is full, so the bytes never reach
// the file. A store reopened on the directory meanwhile sees the disk
// as a process killed at that write would leave it. release closes the
// pipe's read end, so the blocked write fails and its batch rolls back
// (the pipe refuses Truncate too, so the segment ends poisoned). The
// real descriptor is back when the test ends.
func HaltWrite(tb testing.TB, s *Store, principal string) (release func()) {
	tb.Helper()
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		tb.Fatalf("HaltWrite: no shard for %q", principal)
	}
	r, w, err := os.Pipe()
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := w.SyscallConn()
	if err != nil {
		tb.Fatal(err)
	}
	// Fill the buffer: page-sized writes, then single bytes, until the
	// non-blocking descriptor refuses more.
	page, one := make([]byte, 4096), []byte{0}
	if err := raw.Write(func(fd uintptr) bool {
		for _, b := range [][]byte{page, one} {
			for {
				if _, err := syscall.Write(int(fd), b); err != nil {
					break
				}
			}
		}
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	st := s.stripeFor(principal)
	st.Lock()
	seg := sh.active
	real := seg.f
	seg.f = w
	st.Unlock()
	tb.Cleanup(func() {
		st.Lock()
		defer st.Unlock()
		if s.closed.Load() {
			real.Close()
			return
		}
		seg.f = real
		w.Close()
	})
	return func() { r.Close() }
}

// TestBatchCrashMidWrite: a process killed between the segment writes
// of one batch. Each arm reopens the directory while the batch's write
// to pb hangs, pa's already done. A batch whose shards interleave (pa,
// pb, pa) comes back all or nothing — here nothing, so the next
// sequence number does not pass the missing pb record, and a replica
// resuming there refetches the whole batch. A batch in runs (pa, pa, pb)
// comes back as the prefix it wrote.
func TestBatchCrashMidWrite(t *testing.T) {
	for _, path := range batchPaths {
		for _, tc := range []struct {
			name   string
			order  []string
			prefix int // records of the batch the reopened store holds
		}{
			{"interleaved", []string{"pa", "pb", "pa"}, 0},
			{"runs", []string{"pa", "pa", "pb"}, 2},
		} {
			t.Run(path+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []string{"pa", "pb"} {
					if _, err := s.Append(logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))); err != nil {
						t.Fatal(err)
					}
				}
				base, paSize := s.NextSeq(), activeSize(t, s, "pa")
				release := HaltWrite(t, s, "pb")
				acts := make([]logs.Action, len(tc.order))
				for i, p := range tc.order {
					acts[i] = logs.SndAct(p, logs.NameT("m"), logs.NameT("w"))
				}
				done := make(chan error, 1)
				go func() { done <- applyBatch(s, path, acts) }()
				// Unblock and wait for the batch, then close s, also when
				// the test fails early: the batch holds pb's stripe.
				finish := sync.OnceValue(func() error { release(); return <-done })
				t.Cleanup(func() { finish(); s.Close() })
				for deadline := time.Now().Add(10 * time.Second); activeSize(t, s, "pa") == paSize; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("pa's segment write never happened")
					}
				}

				r, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := r.ScanGlobal(0, 0, -1)
				next := r.NextSeq()
				truncated := r.Stats().TruncatedBytes
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if err := finish(); err == nil {
					t.Fatal("the halted batch reported success")
				}

				if len(got) != 2+tc.prefix {
					t.Fatalf("reopened store holds %d records, want the 2 before the batch and %d of it: %v", len(got), tc.prefix, got)
				}
				for i, rec := range got[2:] {
					if want := (wire.Record{Seq: base + uint64(i), Act: acts[i]}); rec != want {
						t.Fatalf("record %d of the batch recovered as %+v, want %+v", i, rec, want)
					}
				}
				if want := base + uint64(tc.prefix); next != want {
					t.Fatalf("NextSeq %d after the crash, want %d", next, want)
				}
				if tc.prefix == 0 && truncated == 0 {
					t.Fatal("the torn batch was dropped without counting its bytes as truncated")
				}
			})
		}
	}
}
