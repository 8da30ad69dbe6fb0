package query

// Benchmarks behind the API-redesign claim: a filtered query's cost
// scales with its result size, not with shard or store size (index
// pushdown + bounded copies), and a paginated page costs the page, not
// the walk. CI's benchstat gate watches both.

import (
	"fmt"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// benchStore builds a store of base records across 4 principals where
// channel "rare" matches exactly 256 of them, evenly spread.
func benchStore(b *testing.B, base int) *store.Store {
	b.Helper()
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	rareEvery := base / 256
	if rareEvery == 0 {
		rareEvery = 1
	}
	batch := make([]logs.Action, 0, 1000)
	for i := 0; i < base; i++ {
		p := fmt.Sprintf("p%d", i%4)
		ch := "common"
		if i%rareEvery == 0 {
			ch = "rare"
		}
		batch = append(batch, logs.SndAct(p, logs.NameT(ch), logs.NameT("v")))
		if len(batch) == cap(batch) {
			if _, err := st.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if _, err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// BenchmarkStoreQueryFiltered: a channel-filtered tail query for 64
// records through the engine (index pushdown, bounded copies) against
// the pre-engine shape — copy the merged global view and filter it.
// The engine's ns/op stays flat as the store grows; the full scan grows
// linearly.
func BenchmarkStoreQueryFiltered(b *testing.B) {
	for _, base := range []int{10000, 100000} {
		st := benchStore(b, base)
		e := NewEngine(st, nil)
		q := Query{Channel: "rare", Tail: true, Limit: 64}
		b.Run(fmt.Sprintf("engine/base%d", base), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				page, err := e.Run(q)
				if err != nil || len(page.Records) != 64 {
					b.Fatalf("page %d records, err %v", len(page.Records), err)
				}
			}
		})
		b.Run(fmt.Sprintf("fullscan/base%d", base), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out []wire.Record
				for _, r := range st.ScanGlobalTail(0, -1) {
					if (r.Act.Kind == logs.Snd || r.Act.Kind == logs.Rcv) && r.Act.A.Name == "rare" {
						out = append(out, r)
					}
				}
				if len(out) > 64 {
					out = out[len(out)-64:]
				}
				if len(out) != 64 {
					b.Fatal("full scan lost records")
				}
			}
		})
	}
}

// BenchmarkQueryPaginate: one mid-walk page of 256 records out of a
// large store, resumed by cursor — the steady-state cost of a
// paginated reader.
func BenchmarkQueryPaginate(b *testing.B) {
	st := benchStore(b, 100000)
	e := NewEngine(st, nil)
	first, err := e.Run(Query{Limit: 256})
	if err != nil || first.Cursor == "" {
		b.Fatalf("first page: %v", err)
	}
	q := Query{Limit: 256, Cursor: first.Cursor}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, err := e.Run(q)
		if err != nil || len(page.Records) != 256 || page.Cursor == "" {
			b.Fatalf("page %d records, err %v", len(page.Records), err)
		}
	}
}
