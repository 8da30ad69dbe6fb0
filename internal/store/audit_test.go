package store

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/logs"
	"repro/internal/syntax"
)

// relayChain is a value v relayed src → relay → dst over channels m and
// n, oldest action first.
func relayChain(src, relay, dst, v string) []logs.Action {
	return []logs.Action{
		logs.SndAct(src, logs.NameT("m"), logs.NameT(v)),
		logs.RcvAct(relay, logs.NameT("m"), logs.NameT(v)),
		logs.SndAct(relay, logs.NameT("n"), logs.NameT(v)),
		logs.RcvAct(dst, logs.NameT("n"), logs.NameT(v)),
	}
}

// relayClaim is the provenance relayChain justifies; with forger set,
// the relay's send is attributed to forger instead.
func relayClaim(src, relay, dst, forger string) syntax.Prov {
	sender := relay
	if forger != "" {
		sender = forger
	}
	return syntax.Seq(
		syntax.InEvent(dst, nil), syntax.OutEvent(sender, nil),
		syntax.InEvent(relay, nil), syntax.OutEvent(src, nil),
	)
}

// TestAuditDeepLog audits a justified and a tampered claim whose
// evidence is the oldest record of a 200k-record store, with every
// goroutine's stack capped at 8 MiB. A decision that walks a linked
// spine needs a stack frame per record it skips and overflows the cap
// (a fatal error, not a failed test); LeSpine recurses only as deep as
// the claim.
func TestAuditDeepLog(t *testing.T) {
	const records = 200_000
	s, err := Open(t.TempDir(), Options{SegmentBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendBatch(relayChain("a", "s", "c", "v")); err != nil {
		t.Fatal(err)
	}
	principals := make([]string, 64)
	for i := range principals {
		principals[i] = fmt.Sprintf("p%d", i)
	}
	values := make([]logs.Term, 1024)
	for i := range values {
		values[i] = logs.NameT(fmt.Sprintf("w%d", i))
	}
	batch := make([]logs.Action, 0, 4096)
	for i := 0; i < records; i++ {
		batch = append(batch, logs.SndAct(principals[i%len(principals)], logs.NameT("ch"), values[i%len(values)]))
		if len(batch) == cap(batch) || i == records-1 {
			if _, err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	if err := s.AuditTerm(logs.NameT("v"), relayClaim("a", "s", "c", "")); err != nil {
		t.Fatalf("justified claim refused: %v", err)
	}
	if err := s.AuditTerm(logs.NameT("v"), relayClaim("a", "s", "c", "mallory")); err == nil {
		t.Fatal("tampered claim accepted")
	}
}

// TestAuditConcurrentAppendScan runs AppendBatch, AuditTerm and
// ScanGlobal at once. Each writer's batch carries one relay chain among
// filler; once the batch is acked the chain must audit as justified and
// its mallory twin must be refused, whatever refreshes and pages run
// beside it. Run with -race.
func TestAuditConcurrentAppendScan(t *testing.T) {
	const writers, batches = 3, 40
	s, err := Open(t.TempDir(), Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type chain struct{ src, relay, dst, v string }
	acked := make(chan chain, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				c := chain{fmt.Sprintf("src%d", w), fmt.Sprintf("relay%d", i%5), fmt.Sprintf("dst%d", w), fmt.Sprintf("v%d.%d", w, i)}
				var batch []logs.Action
				for j := 0; j < 6; j++ {
					batch = append(batch, logs.RcvAct(fmt.Sprintf("f%d", j), logs.NameT("m"), logs.NameT(c.v)))
				}
				batch = append(batch, relayChain(c.src, c.relay, c.dst, c.v)...)
				if _, err := s.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
				acked <- c
			}
		}(w)
	}
	var audits sync.WaitGroup
	for a := 0; a < 2; a++ {
		audits.Add(1)
		go func() {
			defer audits.Done()
			for c := range acked {
				if err := s.AuditTerm(logs.NameT(c.v), relayClaim(c.src, c.relay, c.dst, "")); err != nil {
					t.Errorf("acked chain %s refused: %v", c.v, err)
				}
				if err := s.AuditTerm(logs.NameT(c.v), relayClaim(c.src, c.relay, c.dst, "mallory")); err == nil {
					t.Errorf("mallory twin of %s accepted", c.v)
				}
			}
		}()
	}
	stop := make(chan struct{})
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		var from uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			page := s.ScanGlobal(from, 0, 64)
			for i, r := range page {
				if r.Seq < from || (i > 0 && r.Seq <= page[i-1].Seq) {
					t.Errorf("page out of order at seq %d (from %d)", r.Seq, from)
					return
				}
			}
			if len(page) > 0 {
				from = page[len(page)-1].Seq + 1
			}
		}
	}()
	wg.Wait()
	close(acked)
	audits.Wait()
	close(stop)
	<-scanned
}
