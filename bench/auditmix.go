package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logs"
	"repro/internal/provclient"
)

// audit-mix: a store preloaded with 400 000 records (at the 30-second
// reference length) over 2048 principals, closed and re-opened; one
// closed-loop reader cycling the four read kinds — an HTTP shard page
// filtered by channel, the same page over the binary protocol (tail-256),
// a page of a paginated global walk redacted for an observer under a
// -hide policy, and a pair of /audit claims — beside one open-loop
// writer at 5000 records/s in batches of 16.
//
// Why: it exercises internal/query, internal/provd and the store's
// scans — the read use of the very store the other workloads write —
// with writes alongside, so a read gain bought with lock hold or
// snapshot work shows in the writer's append_ack_p50_ms.
type auditMix struct {
	base
	cl  *provclient.Client
	gen *chainGen
}

const (
	auditMixPrincipals = 2048
	auditMixPreload    = 400000
	auditMixBatch      = 16
	auditMixWriteRate  = 5000 // records per second
)

func (w *auditMix) shape() probeShape {
	return probeShape{batch: auditMixBatch, principals: auditMixPrincipals, workers: 1, fsync: true}
}

func (w *auditMix) setup() error {
	if err := w.setupSingle(auditMixPrincipals, w.cfg.scaled(auditMixPreload), true); err != nil {
		return err
	}
	w.gen = newChainGen(w.cfg.seed+1, "a", [][]string{w.principals})
	var err error
	w.cl, err = w.newProducer(w.n.ingest, 1)
	return err
}

func (w *auditMix) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	w.teardownSingle()
}

func (w *auditMix) prologue() *phase {
	return w.newReader().prologue(checkRounds, checkRounds)
}

func (w *auditMix) run(seconds float64, tr *tracer) *phase {
	ph := newPhase()
	d := time.Duration(seconds * float64(time.Second))

	// The writer's batches are generated before the clock starts.
	batches := make([][]logs.Action, int(seconds*auditMixWriteRate/auditMixBatch))
	for i := range batches {
		batches[i] = make([]logs.Action, auditMixBatch)
		w.gen.fill(batches[i])
	}
	var inflight atomic.Int64
	writer := &openLoop{rate: auditMixWriteRate / auditMixBatch, duration: d, inflight: &inflight,
		send: func(i int) bool {
			tr := tr.sampled(i)
			began := time.Now()
			id, end := tr.start("gen", "auditmix.batch", 0, 0)
			_, endCall := tr.start("provclient", "AppendBatch", id, id)
			seq, err := w.cl.AppendBatch(batches[i])
			endCall()
			end()
			ph.tally(tr != nil, time.Since(began), auditMixBatch)
			if err != nil {
				ph.violate("AppendBatch: %v", err)
				return false
			}
			w.acks.add("", seq, batches[i])
			return true
		}}

	rd := w.newReader()
	rd.ph, rd.tr = ph, tr
	cpu0, t0 := cpuSeconds(), time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	var wres *openResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		wres = writer.run()
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rd.shardPage()
			rd.tailPage()
			rd.walkPage()
			rd.auditPair()
		}
		// Pages are served back to back: the reader's busy time is the window.
		ph.readSeconds = time.Since(t0).Seconds()
	}()
	wg.Wait()
	ph.elapsed, ph.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	ph.attempted.Add(wres.issued + wres.shed)
	ph.acked.Add((wres.issued - wres.failed) * auditMixBatch)
	ph.appendAck.v, ph.batchAck.v = wres.ack.v, wres.service.v
	ph.extra.setQ("gen.late_p95_ms", summarise(&wres.late), 0.95)
	ph.extra.set("gen.achieved_rate_ratio", float64(wres.issued-wres.failed)/float64(max(wres.issued+wres.shed, 1)))
	ph.extra.set("gen.shed_records", float64(wres.shed*auditMixBatch))
	return ph
}

func (w *auditMix) verify() []string {
	return w.acks.verifyStore("", w.n.st, w.preN, w.rcl)
}
