package main

import (
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/provclient"
)

// firehose: closed loop, 2 producers, each sending provclient.AppendBatch
// of 256 actions over 64 principals into ingest.Server → store.AppendBatch.
//
// Why: per-record CPU is everything here — wire encode and decode,
// admission, the store append, one commit round per request. It is the
// workload a codec, pool, admission or readLoop change must move, and
// the one a batching or fsync change must not.
//
// Fsync is OFF on this workload's store, the one departure from provd's
// defaults. The store syncs once per touched segment, so a 256-action
// batch over 64 principals pays ~50 fsyncs (≈10 ms on the reference
// box) against ≈1 ms of CPU: with fsync on, firehose would be a second
// fsync benchmark and a codec change could not move it. trickle,
// audit-mix's writer and fleet all run with fsync on; the ladder's
// store.fsync_us_per_commit reports what this workload leaves out.
type firehose struct {
	base
	cl   *provclient.Client
	gens [2]*chainGen
}

const (
	firehoseBatch      = 256
	firehosePrincipals = 64
)

func (w *firehose) shape() probeShape {
	return probeShape{batch: firehoseBatch, principals: firehosePrincipals, workers: 2}
}

func (w *firehose) setup() error {
	if err := w.setupSingle(firehosePrincipals, w.cfg.scaled(300000), false); err != nil {
		return err
	}
	for i := range w.gens {
		w.gens[i] = newChainGen(w.cfg.seed+int64(i)+1, string(rune('a'+i)), [][]string{w.principals})
	}
	var err error
	w.cl, err = w.newProducer(w.n.ingest, 2)
	return err
}

func (w *firehose) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	w.teardownSingle()
}

func (w *firehose) prologue() *phase {
	return w.newReader().prologue(w.cfg.rounds(measuredPageRounds), w.cfg.rounds(measuredAuditRounds))
}

func (w *firehose) run(seconds float64, tr *tracer) *phase {
	ph := newPhase()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	cpu0, t0 := cpuSeconds(), time.Now()
	win := startWindows(&ph.acked)
	var wg sync.WaitGroup
	for p := range w.gens {
		wg.Add(1)
		go func(g *chainGen) {
			defer wg.Done()
			batch := make([]logs.Action, firehoseBatch)
			for i := 0; time.Now().Before(deadline); i++ {
				tr := tr.sampled(i)
				began := time.Now()
				id, end := tr.start("gen", "firehose.batch", 0, 0)
				g.fill(batch)
				_, endCall := tr.start("provclient", "AppendBatch", id, id)
				sent := time.Now()
				seq, err := w.cl.AppendBatch(batch)
				d := time.Since(sent)
				endCall()
				end()
				ph.tally(tr != nil, time.Since(began), len(batch))
				ph.attempted.Add(1)
				if err != nil {
					ph.violate("AppendBatch: %v", err)
					continue
				}
				ph.acked.Add(int64(len(batch)))
				ph.batchAck.add(ms(d))
				w.acks.add("", seq, batch)
			}
		}(w.gens[p])
	}
	wg.Wait()
	win.finish(ph)
	ph.elapsed, ph.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	return ph
}

func (w *firehose) verify() []string {
	return w.acks.verifyStore("", w.n.st, w.preN, w.rcl)
}
