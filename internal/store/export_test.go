package store

import (
	"os"
	"testing"
)

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
