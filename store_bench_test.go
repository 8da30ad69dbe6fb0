package repro_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/syntax"
)

// --- S1: durable store (internal/store, cmd/provd engine) ---

func benchAction(i int) logs.Action {
	p := fmt.Sprintf("p%d", i%8)
	ch := fmt.Sprintf("ch%d", i%16)
	v := fmt.Sprintf("v%d", i%32)
	if i%2 == 0 {
		return logs.SndAct(p, logs.NameT(ch), logs.NameT(v))
	}
	return logs.RcvAct(p, logs.NameT(ch), logs.NameT(v))
}

// BenchmarkStoreAppend measures the sequential durable append path
// (frame encode + checksum + buffered file write + index update; no
// fsync, as in a mirrored middleware run).
func BenchmarkStoreAppend(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(benchAction(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAppendParallel exercises the lock striping: goroutines
// append as distinct principals, so contention is per-stripe rather
// than global.
func BenchmarkStoreAppendParallel(b *testing.B) {
	s, err := store.Open(b.TempDir(), store.Options{Stripes: 32})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		me := int(id.Add(1))
		p := fmt.Sprintf("worker%d", me)
		i := 0
		for pb.Next() {
			a := logs.SndAct(p, logs.NameT(fmt.Sprintf("ch%d", i%16)), logs.NameT("v"))
			if _, err := s.Append(a); err != nil {
				// b.Fatal is not allowed off the benchmark goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkStoreAuditQuery measures a server-side Definition-3 audit,
// ⟦V:κ⟧ ≼ φ against the store's merged global log, for a genuine
// cross-principal chain buried mid-log (log<N>) and for its tampered
// twin (tampered/log<N>), whose refusal must rule out every candidate
// record.
func BenchmarkStoreAuditQuery(b *testing.B) {
	for _, tampered := range []bool{false, true} {
		for _, size := range []int{100, 1000, 100000} {
			name := fmt.Sprintf("log%d", size)
			if tampered {
				name = "tampered/" + name
			}
			b.Run(name, func(b *testing.B) { benchAuditQuery(b, size, tampered) })
		}
	}
}

func benchAuditQuery(b *testing.B, size int, tampered bool) {
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// A relay chain a -> s -> c buried under unrelated traffic.
	chain := []logs.Action{
		logs.SndAct("a", logs.NameT("m"), logs.NameT("v")),
		logs.RcvAct("s", logs.NameT("m"), logs.NameT("v")),
		logs.SndAct("s", logs.NameT("n"), logs.NameT("v")),
		logs.RcvAct("c", logs.NameT("n"), logs.NameT("v")),
	}
	for i := 0; i < size; i++ {
		if _, err := s.Append(benchAction(i)); err != nil {
			b.Fatal(err)
		}
		if i == size/2 {
			for _, a := range chain {
				if _, err := s.Append(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	relay := "s"
	if tampered {
		relay = "mallory"
	}
	claim := syntax.Seq(
		syntax.InEvent("c", nil), syntax.OutEvent(relay, nil),
		syntax.InEvent("s", nil), syntax.OutEvent("a", nil),
	)
	v := syntax.Annot(syntax.Chan("v"), claim)
	if err := s.Audit(v); (err != nil) != tampered {
		b.Fatalf("tampered=%v: audit returned %v", tampered, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Audit(v); (err != nil) != tampered {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecover measures cold-start recovery (segment scan,
// checksum verification, index rebuild) of a store with many segments.
func BenchmarkStoreRecover(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir, store.Options{SegmentBytes: 4096})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := s.Append(benchAction(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.Open(dir, store.Options{SegmentBytes: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != 5000 {
			b.Fatalf("recovered %d records", r.Len())
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}

// BenchmarkStoreAppendBatch measures the batched durable append path —
// one acquisition of each touched stripe, a contiguous sequence block
// and one write per touched segment per batch — against the same
// actions appended one by one (batch=1 degenerates to the per-action
// cost plus batch overhead). The batchN arms spread over 8 principals
// and count one op per record; batch256x64 is the firehose workload's
// shape, 256 actions over 64 principals, one op per batch, and reports
// the segment writes a batch issues.
func BenchmarkStoreAppendBatch(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			s, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			batch := make([]logs.Action, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range batch {
					batch[j] = benchAction(i + j)
				}
				if _, err := s.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("batch256x64", func(b *testing.B) {
		s, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		batch := make([]logs.Action, 256)
		for j := range batch {
			batch[j] = logs.SndAct(fmt.Sprintf("p%d", j%64), logs.NameT(fmt.Sprintf("ch%d", j%16)), logs.NameT(fmt.Sprintf("v%d", j)))
		}
		if _, err := s.AppendBatch(batch); err != nil { // create the shards
			b.Fatal(err)
		}
		writes := s.Stats().SegmentWrites
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Stats().SegmentWrites-writes)/float64(b.N), "writes/op")
	})
}

// BenchmarkStoreAppendBatchFsync measures the durability barrier: one op
// is one fsynced AppendBatch with one action for each of `touched`
// distinct principals, so it pays exactly `touched` segment syncs. The
// write itself is microseconds; what moves this benchmark is how the
// store issues those syncs.
func BenchmarkStoreAppendBatchFsync(b *testing.B) {
	for _, touched := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("touched=%d", touched), func(b *testing.B) {
			s, err := store.Open(b.TempDir(), store.Options{Fsync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			batch := make([]logs.Action, touched)
			for j := range batch {
				batch[j] = logs.SndAct(fmt.Sprintf("p%d", j), logs.NameT("m"), logs.NameT("v"))
			}
			if _, err := s.AppendBatch(batch); err != nil { // create the shards
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreMixedAppendAudit is the workload the incremental global
// snapshot exists for: every iteration appends one action and then runs
// a Definition-3 audit (which needs the merged global log). The audited
// claim is about the action just appended, so the ≼ decision itself is
// cheap and the snapshot refresh dominates: with the from-scratch merge
// this cost grew with the whole stored history; incrementally it pays
// only for the records appended since the previous audit, so the cost
// stays flat as the base grows.
func BenchmarkStoreMixedAppendAudit(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("base%d", size), func(b *testing.B) {
			s, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < size; i++ {
				if _, err := s.Append(benchAction(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := benchAction(i)
				if _, err := s.Append(a); err != nil {
					b.Fatal(err)
				}
				ev := syntax.OutEvent(a.Principal, nil)
				if a.Kind == logs.Rcv {
					ev = syntax.InEvent(a.Principal, nil)
				}
				if err := s.AuditTerm(a.B, syntax.Seq(ev)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
