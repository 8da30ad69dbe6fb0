package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logs"
	"repro/internal/provclient"
)

// trickle: open loop, 2 producers issuing single-record provclient.Append
// over 2048 principals at four fixed rate steps, each latency timed from
// the record's due time.
//
// Why: per-record CPU is negligible here; latency is the provclient
// flush deadline, the wait for a commit round, one fsync per touched
// segment and the session checkpoint. It is the workload a change to
// the commit barrier or the batcher must move; firehose is its bypass.
type trickle struct {
	base
	cl   *provclient.Client
	gens [2]*chainGen
}

const tricklePrincipals = 2048

// The SLO of the service under open-loop load.
const (
	sloP95Ms     = 20.0
	sloLateP95Ms = 2.0 // a step whose generator ran later than this is void
)

var trickleRates = []int{1000, 4000, 16000, 64000}

// trickleGateRate is the step whose latency is the end-to-end metric:
// high enough that groups form, far enough below saturation to repeat.
const trickleGateRate = 4000

func (w *trickle) shape() probeShape {
	return probeShape{batch: 1, principals: tricklePrincipals, workers: 2, fsync: true}
}

func (w *trickle) setup() error {
	if err := w.setupSingle(tricklePrincipals, w.cfg.scaled(300000), true); err != nil {
		return err
	}
	for i := range w.gens {
		w.gens[i] = newChainGen(w.cfg.seed+int64(i)+1, string(rune('a'+i)), [][]string{w.principals})
	}
	var err error
	w.cl, err = w.newProducer(w.n.ingest, 2)
	return err
}

func (w *trickle) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	w.teardownSingle()
}

func (w *trickle) prologue() *phase {
	return w.newReader().prologue(w.cfg.rounds(measuredPageRounds), w.cfg.rounds(measuredAuditRounds))
}

// step runs one rate step: both workers on their schedules, then the
// drain. The step's actions are generated before its clock starts.
func (w *trickle) step(rate int, d time.Duration, ph *phase, tr *tracer) (merged *openResult, cpu float64) {
	var inflight atomic.Int64
	results := make([]*openResult, len(w.gens))
	loops := make([]*openLoop, len(w.gens))
	for p, g := range w.gens {
		acts := make([]logs.Action, int(float64(rate)/2*d.Seconds()))
		g.fill(acts)
		loops[p] = &openLoop{rate: float64(rate) / 2, duration: d, inflight: &inflight,
			send: func(i int) bool {
				tr := tr.sampled(i)
				began := time.Now()
				id, end := tr.start("gen", "trickle.append", 0, 0)
				_, endCall := tr.start("provclient", "Append", id, id)
				seq, err := w.cl.Append(acts[i])
				endCall()
				end()
				ph.tally(tr != nil, time.Since(began), 1)
				if err != nil {
					ph.violate("Append: %v", err)
					return false
				}
				w.acks.add("", seq, acts[i:i+1])
				return true
			}}
	}
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for p, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p] = loop.run()
		}()
	}
	wg.Wait()
	cpu = cpuSeconds() - cpu0
	merged = results[0]
	o := results[1]
	merged.ack.v = append(merged.ack.v, o.ack.v...)
	merged.service.v = append(merged.service.v, o.service.v...)
	merged.late.v = append(merged.late.v, o.late.v...)
	merged.issued += o.issued
	merged.failed += o.failed
	merged.shed += o.shed
	merged.backlog = max(merged.backlog, o.backlog) // both read the shared counter
	merged.elapsed = max(merged.elapsed, o.elapsed)
	merged.drained = max(merged.drained, o.drained)
	return merged, cpu
}

func (w *trickle) run(seconds float64, tr *tracer) *phase {
	ph := newPhase()
	stepDur := time.Duration(seconds / float64(len(trickleRates)) * float64(time.Second))
	var sloRate, offered, shed float64
	var late series
	for _, rate := range trickleRates {
		res, cpu := w.step(rate, stepDur, ph, tr)
		ph.cpu += cpu
		ph.elapsed += (res.elapsed + res.drained).Seconds()
		ph.attempted.Add(res.issued + res.shed)
		ph.acked.Add(res.issued - res.failed)
		ack, lateD := summarise(&res.ack), summarise(&res.late)
		late.v = append(late.v, res.late.v...)
		offered += float64(res.issued + res.shed)
		shed += float64(res.shed)
		ph.extra.setQ(fmt.Sprintf("gen.append_ack_p95_ms.r%d", rate), ack, 0.95)
		// A step meets the SLO when its p95 holds, nothing was shed, the
		// generator kept its schedule, and the requests left in flight at
		// the end are no more than the SLO allows to be outstanding — a
		// larger remainder is a backlog that was still growing.
		allowed := int64(float64(rate) * sloP95Ms / 1000)
		if ack.N > 0 && ack.P95 <= sloP95Ms && res.shed == 0 && res.failed == 0 &&
			lateD.P95 <= sloLateP95Ms && res.backlog <= allowed {
			sloRate = float64(rate)
		}
		if rate == trickleGateRate {
			ph.appendAck.v, ph.batchAck.v = res.ack.v, res.service.v
		}
	}
	ph.extra.set("slo_rate_records_per_s", sloRate)
	ph.extra.setQ("gen.late_p95_ms", summarise(&late), 0.95)
	ph.extra.set("gen.achieved_rate_ratio", float64(ph.acked.Load())/offered)
	ph.extra.set("gen.shed_records", shed)
	return ph
}

func (w *trickle) verify() []string {
	return w.acks.verifyStore("", w.n.st, w.preN, w.rcl)
}
