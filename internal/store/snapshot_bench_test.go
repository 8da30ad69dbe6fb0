package store

import (
	"fmt"
	"testing"

	"repro/internal/logs"
)

// BenchmarkGlobalSnapshotAfterAppend measures one append followed by a
// global snapshot refresh — the audit-after-traffic pattern: the
// refresh folds just the new record into the cached merge and its value
// index, so the cost stays flat as the base grows.
func BenchmarkGlobalSnapshotAfterAppend(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("incremental/base%d", base), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < base; i++ {
				a := logs.SndAct(fmt.Sprintf("p%d", i%8), logs.NameT("ch"), logs.NameT("v"))
				if _, err := s.Append(a); err != nil {
					b.Fatal(err)
				}
			}
			s.refreshGlobal() // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := logs.SndAct(fmt.Sprintf("p%d", i%8), logs.NameT("ch"), logs.NameT("v"))
				if _, err := s.Append(a); err != nil {
					b.Fatal(err)
				}
				if n := s.refreshGlobal(); n != base+i+1 {
					b.Fatalf("snapshot holds %d records, want %d", n, base+i+1)
				}
			}
		})
	}
}
