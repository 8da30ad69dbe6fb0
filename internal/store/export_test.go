package store

import (
	"os"
	"testing"

	"repro/internal/wire"
)

// globalSnapshot returns a copy of the merged cross-shard view, oldest
// first.
func (s *Store) globalSnapshot() []wire.Record { return s.ScanGlobal(0, 0, -1) }

// refreshGlobal folds new records into the global merge, as every audit
// and global scan does first, and returns the merge's length.
func (s *Store) refreshGlobal() int {
	s.global.mu.Lock()
	defer s.global.mu.Unlock()
	s.refreshGlobalLocked()
	return len(s.global.refs)
}

// BreakSync makes every fsync of principal's active segment fail while
// writes to it keep succeeding: the segment's descriptor is swapped for
// the write end of a pipe, which takes the bytes and refuses Sync. The
// shard must exist. The real descriptor is back when the test ends.
func BreakSync(tb testing.TB, s *Store, principal string) {
	tb.Helper()
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		tb.Fatalf("BreakSync: no shard for %q", principal)
	}
	r, w, err := os.Pipe()
	if err != nil {
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
		seg.f = real
		st.Unlock()
		w.Close()
		r.Close()
	})
}

// BreakWrite makes every write to principal's active segment fail: the
// segment's descriptor is swapped for a read-only one on the same file,
// which refuses Write — and Truncate, so the failed write's rollback
// poisons the segment. The shard must exist. The real descriptor is
// back when the test ends (closed instead, if the store was closed
// first).
func BreakWrite(tb testing.TB, s *Store, principal string) {
	tb.Helper()
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		tb.Fatalf("BreakWrite: no shard for %q", principal)
	}
	st := s.stripeFor(principal)
	st.Lock()
	seg := sh.active
	ro, err := os.Open(seg.path)
	if err != nil {
		st.Unlock()
		tb.Fatal(err)
	}
	real := seg.f
	seg.f = ro
	st.Unlock()
	tb.Cleanup(func() {
		st.Lock()
		defer st.Unlock()
		if s.closed.Load() {
			real.Close()
			return
		}
		seg.f = real
		ro.Close()
	})
}
