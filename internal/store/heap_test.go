package store

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/logs"
	"repro/internal/syntax"
)

// heapCeiling is the most live heap, in bytes per record, a reopened
// and once-audited store may hold (TestHeapPerRecord). A record is kept
// once, in its shard (an 80-byte wire.Record plus its value name); the
// global merge adds an 8-byte reference and a 4-byte value-index
// position per record, the shard indexes 4 bytes each. A store that
// copies every record into its merge again holds about 290.
const heapCeiling = 150

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestHeapPerRecord pins the store's memory per record: n records over
// 64 principals, written, reopened and audited once, must hold at most
// heapCeiling bytes of live heap each. Values travel in relay chains of
// four actions, as forwarded values do.
func TestHeapPerRecord(t *testing.T) {
	const n, principals = 100_000, 64
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]logs.Term, 16)
	for i := range chans {
		chans[i] = logs.NameT(fmt.Sprintf("m%d", i))
	}
	batch := make([]logs.Action, 0, 256)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("p%02d", (i*7+i/4)%principals)
		v := logs.NameT(fmt.Sprintf("v%d", i/4))
		if i%2 == 0 {
			batch = append(batch, logs.SndAct(p, chans[i%16], v))
		} else {
			batch = append(batch, logs.RcvAct(p, chans[(i-1)%16], v))
		}
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	afterOpen := liveHeap()
	last := (n - 1) / 4 * 4 // the last chain's send
	claim := syntax.Seq(syntax.OutEvent(fmt.Sprintf("p%02d", (last*7+last/4)%principals), nil))
	if err := s.AuditTerm(logs.NameT(fmt.Sprintf("v%d", last/4)), claim); err != nil {
		t.Fatal(err)
	}
	afterAudit := liveHeap()
	runtime.KeepAlive(s)

	open := float64(afterOpen-before) / n
	audit := float64(afterAudit-before) / n
	t.Logf("live heap per record: %.1f B after Open, %.1f B after the first audit (ceiling %d)", open, audit, heapCeiling)
	if audit > heapCeiling {
		t.Errorf("store holds %.1f B/record after Open and one audit, above the ceiling of %d", audit, heapCeiling)
	}
}
