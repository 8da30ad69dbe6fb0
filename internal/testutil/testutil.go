// Package testutil is the shared fixture kit for the distributed-path
// suites: loopback cluster fixtures (a store plus its binary ingest
// listener), a frame-aware fault-injection proxy, store comparators,
// and the REPRO_SEED plumbing that lets every randomized suite replay a
// failure from its printed seed.
//
// It is a package (not per-suite _test helpers) because the same
// faults recur across internal/provclient, internal/provd,
// internal/replica and the simulation harness — and because
// internal/harness injects the same faults from non-test code, so the
// proxy and the comparators deliberately avoid *testing.T in their core
// APIs.
package testutil

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// Act returns a small distinct valid action for principal p — the
// standard workload unit of the distributed suites.
func Act(p string, i int) logs.Action {
	return logs.SndAct(p, logs.NameT(fmt.Sprintf("m%d", i)), logs.NameT("v"))
}

// PoisonPools turns on wire-pool poison mode for the duration of one
// test: every pooled buffer (stream frame buffers, recycled acts
// slices) is smeared with a sentinel the moment it returns to its
// pool, so any component still reading a buffer it gave back sees
// garbage instead of stale-but-plausible data. The big end-to-end
// suites (the simulation harness sweeps) run under this as a standing
// pool-corruption detector; the cost is one memset per recycle.
//
// The flag is process-global (the pools are shared), so tests that use
// it must tolerate every other concurrently running test also seeing
// poisoned returns — which is safe by construction: poison only ever
// lands on buffers whose owner has already relinquished them.
func PoisonPools(tb testing.TB) {
	wire.SetPoolPoison(true)
	tb.Cleanup(func() { wire.SetPoolPoison(false) })
}

// OpenStore opens a store in dir and registers its Close with the test.
func OpenStore(tb testing.TB, dir string, opts store.Options) *store.Store {
	tb.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// NewBackend opens a store in a fresh temp dir and serves it over a
// binary ingest listener on loopback, registering both for cleanup.
func NewBackend(tb testing.TB, opts ingest.Options) (*store.Store, *ingest.Server, string) {
	tb.Helper()
	st := OpenStore(tb, tb.TempDir(), store.Options{})
	srv := ingest.NewServer(st, opts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	return st, srv, addr
}

// SeedStore appends n distinct actions (spread over a handful of
// principals) directly to the store, in batches.
func SeedStore(tb testing.TB, st *store.Store, n int) {
	tb.Helper()
	batch := make([]logs.Action, 0, 256)
	for i := 0; i < n; i++ {
		batch = append(batch, Act(fmt.Sprintf("p%d", i%7), i))
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := st.AppendBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// WaitForSeq polls until the store's high-water reaches want, or the
// deadline passes.
func WaitForSeq(st *store.Store, want uint64, within time.Duration) error {
	deadline := time.Now().Add(within)
	for st.NextSeq() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("store stuck at seq %d, want %d", st.NextSeq(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// WaitSeq is WaitForSeq failing the test on timeout.
func WaitSeq(tb testing.TB, st *store.Store, want uint64, within time.Duration) {
	tb.Helper()
	if err := WaitForSeq(st, want, within); err != nil {
		tb.Fatal(err)
	}
}

// DiffStores compares two stores for bit-identical logs — same
// high-water, same record (sequence and action) at every position —
// returning a descriptive error at the first difference. This is the
// exactly-once and replica-convergence acceptance check.
func DiffStores(a, b *store.Store) error {
	if l, r := a.NextSeq(), b.NextSeq(); l != r {
		return fmt.Errorf("high-water differs: %d vs %d", l, r)
	}
	var from uint64
	for {
		arecs := a.ScanGlobal(from, 0, 4096)
		brecs := b.ScanGlobal(from, 0, 4096)
		if len(arecs) != len(brecs) {
			return fmt.Errorf("scan from %d: %d records vs %d", from, len(arecs), len(brecs))
		}
		if len(arecs) == 0 {
			return nil
		}
		for i := range arecs {
			if arecs[i] != brecs[i] {
				return fmt.Errorf("records differ at seq %d: %+v vs %+v", arecs[i].Seq, arecs[i], brecs[i])
			}
		}
		from = arecs[len(arecs)-1].Seq + 1
	}
}

// AssertIdentical fails the test unless both stores hold bit-identical
// logs.
func AssertIdentical(tb testing.TB, a, b *store.Store) {
	tb.Helper()
	if err := DiffStores(a, b); err != nil {
		tb.Fatal(err)
	}
}

// CheckSpine walks the store's whole global log and verifies the
// monotone-spine invariant: strictly ascending sequence numbers,
// contiguous from 0 to NextSeq (no holes, no duplicates). Stores that
// replicate proven leader holes should not use this check.
func CheckSpine(st *store.Store) error {
	want := uint64(0)
	for {
		recs := st.ScanGlobal(want, 0, 4096)
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if r.Seq != want {
				return fmt.Errorf("spine hole: expected seq %d, found %d", want, r.Seq)
			}
			want++
		}
	}
	if next := st.NextSeq(); want != next {
		return fmt.Errorf("spine ends at %d but high-water is %d", want, next)
	}
	return nil
}

// BackedSessionEntries verifies session-dedup soundness on a store:
// every exported session-table entry's claimed global sequence block
// [Base, Base+Count) is fully present in the log — an entry that could
// re-ack data the store does not hold is a durability lie.
func BackedSessionEntries(st *store.Store) error {
	for _, e := range st.Sessions().Entries() {
		if e.Count == 0 {
			continue
		}
		recs := st.ScanGlobal(e.Base, e.Base+e.Count, int(e.Count)+1)
		if uint64(len(recs)) != e.Count {
			return fmt.Errorf("session %q batch %d claims block [%d,%d) but the log holds %d of %d records",
				e.Session, e.BatchSeq, e.Base, e.Base+e.Count, len(recs), e.Count)
		}
	}
	return nil
}
