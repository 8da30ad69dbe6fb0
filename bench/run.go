package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/wire"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch root for store directories
	out      string // where results.json and trace-*.json go
	// quick, for the smoke tests, sets up once and keeps the prologue
	// short; measured runs repeat both (see execute and reader.prologue).
	quick bool
	// dropAck, a test seam, makes the load generator lose one ack before
	// the oracle sees it — the oracle must then fail the run.
	dropAck bool
}

// scaled shrinks a count specified for the issue's 30-second reference
// run in step with -seconds, so a shorter run keeps the same shape.
func (c *config) scaled(n int) int {
	return max(int(float64(n)*c.seconds/30), 2048)
}

// phase is what one timed phase measured. Series are in milliseconds.
type phase struct {
	elapsed     float64      // seconds the write load ran (incl. draining an open loop)
	cpu         float64      // process CPU seconds over that window
	acked       atomic.Int64 // records acked durable
	attempted   atomic.Int64 // operations attempted (writes, pages, audits)
	failed      atomic.Int64 // operations that errored, were refused or broke the oracle
	readRecords int64
	readSeconds float64
	batchAck    series // write call → durable ack
	appendAck   series // due time → ack (closed loop: due = call)
	page        series // page request → decoded page, all kinds pooled
	audit       series // /audit claim → verdict, both verdicts pooled
	// kinds holds the same read latencies split by operation kind (each
	// page kind; justified and tampered claims). The kinds differ in
	// cost by design, so the median of their pool sits on the boundary
	// between two populations and wanders; the end-to-end metrics are
	// the mean of the per-kind medians instead.
	kinds map[string]*series
	extra metricSet
	// rateMedian and cpuMedian, when a workload sets them, are medians
	// over the phase's sampling windows (see windows) and replace
	// acked/elapsed and cpu/acked in the end-to-end metrics.
	rateMedian, cpuMedian float64
	// tallies split the write requests into untraced [0] and traced [1]:
	// in a traced run every other request records spans, and the
	// difference in records per busy second is the tracing overhead.
	tallies [2]struct{ busyNs, records atomic.Int64 }
	mu      sync.Mutex
	notes   []string // oracle violations seen during the phase
}

func newPhase() *phase { return &phase{extra: metricSet{}, kinds: map[string]*series{}} }

// kindMedians is the value of metric name: the mean of the medians of
// the series whose kind starts with prefix, with the pooled series'
// sample count and quartiles.
func (p *phase) kindMedians(name, prefix string, pooled *series) value {
	d := summarise(pooled)
	v := value{Unit: unitOf(name), Samples: d.N, P25: d.P25, P75: d.P75, TailQ: d.TailQ, TailV: d.TailV}
	var sum float64
	var n int
	for kind, s := range p.kinds {
		if strings.HasPrefix(kind, prefix) && len(s.v) > 0 {
			sum += summarise(s).P50
			n++
		}
	}
	if n > 0 {
		v.Value = sum / float64(n)
	}
	return v
}

// borrowKinds adopts another phase's per-kind series under prefix.
func (p *phase) borrowKinds(from *phase, prefix string) {
	for kind, s := range from.kinds {
		if strings.HasPrefix(kind, prefix) {
			p.kinds[kind] = s
		}
	}
}

// violate counts one failed operation and keeps its description.
func (p *phase) violate(format string, args ...any) {
	p.failed.Add(1)
	p.mu.Lock()
	if len(p.notes) < 20 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// tally books one write request's duration and records under traced or
// untraced.
func (p *phase) tally(traced bool, d time.Duration, records int) {
	i := 0
	if traced {
		i = 1
	}
	p.tallies[i].busyNs.Add(int64(d))
	p.tallies[i].records.Add(int64(records))
}

// overhead is 1 − (traced records per busy second ÷ untraced).
func (p *phase) overhead() float64 {
	rate := func(i int) float64 {
		return float64(p.tallies[i].records.Load()) / max(float64(p.tallies[i].busyNs.Load()), 1)
	}
	if rate(0) == 0 {
		return 0
	}
	return 1 - rate(1)/rate(0)
}

// windows samples a phase's acked-record count and the process CPU time
// every windowLen, so throughput and CPU per record can be reported as
// medians over windows: a stall of the shared box (a neighbour, a
// write-back burst) then costs one window, not a share of the mean.
type windows struct {
	stop chan struct{}
	done chan struct{}
	rate series // records per second, per window
	cpu  series // CPU microseconds per record, per window
}

const windowLen = 250 * time.Millisecond

func startWindows(acked *atomic.Int64) *windows {
	w := &windows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		lastT, lastN, lastC := time.Now(), acked.Load(), cpuSeconds()
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				n, c := acked.Load(), cpuSeconds()
				if dn := n - lastN; dn > 0 {
					w.rate.add(float64(dn) / now.Sub(lastT).Seconds())
					w.cpu.add((c - lastC) * 1e6 / float64(dn))
				}
				lastT, lastN, lastC = now, n, c
			}
		}
	}()
	return w
}

// finish stops sampling and stores the medians in the phase.
func (w *windows) finish(p *phase) {
	close(w.stop)
	<-w.done
	if r := summarise(&w.rate); r.N > 0 {
		p.rateMedian, p.cpuMedian = r.P50, summarise(&w.cpu).P50
	}
}

// counters is one snapshot of every layer's public Stats, summed over
// the nodes of the workload.
type counters struct {
	store   store.Stats
	ingest  ingest.Stats
	query   query.Stats
	replica replica.Status
	pool    wire.BufPoolStats
	mem     runtime.MemStats
}

// workload is one of the four traffic mixes.
type workload interface {
	// setup builds everything the first timed operation needs: key
	// material, preloaded stores, nodes, client connections.
	setup() error
	teardown()
	// prologue warms the read path and runs the audit/read oracle on the
	// preloaded log; its timings stand in for the read metrics on
	// workloads with no reader of their own.
	prologue() *phase
	// run drives the workload's traffic for the given time.
	run(seconds float64, tr *tracer) *phase
	// verify quiesces and checks the paper's invariants on the final
	// state; each string is one violation.
	verify() []string
	snapshot() counters
	recoverSeconds() float64
	// storeDirs and records feed disk_bytes_per_record.
	storeDirs() []string
	records() int
	// shape parameterises the layer probes like the workload's own
	// write traffic: actions per request, principal population, fsync.
	shape() probeShape
}

func newWorkload(c *config) (workload, error) {
	b := base{cfg: c, dir: filepath.Join(c.dir, c.workload)}
	switch c.workload {
	case "firehose":
		return &firehose{base: b}, nil
	case "trickle":
		return &trickle{base: b}, nil
	case "audit-mix":
		return &auditMix{base: b}, nil
	case "fleet":
		return &fleetLoad{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
}

// outcome is everything one invocation produced.
type outcome struct {
	Workload   string    `json:"workload"`
	Correct    bool      `json:"correct"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Violations []string  `json:"violations,omitempty"`
	EndToEnd   metricSet `json:"end_to_end"`
	PerLayer   metricSet `json:"per_layer"`
	// Ladder is the traced run's share table: the write-path ladder on
	// firehose and fleet, the append latency budget on trickle, the
	// reader's time by call on audit-mix. LadderUnit says which.
	Ladder     []rung `json:"ladder,omitempty"`
	LadderUnit string `json:"ladder_unit,omitempty"`
	// SpanSelfMs is each layer's self time over the traced requests: its
	// spans' duration minus what their child spans cover.
	SpanSelfMs map[string]float64 `json:"span_self_ms,omitempty"`
	Conditions map[string]any     `json:"conditions"`
}

// Set-up runs at least minSetups times, and on while all set-ups so far
// took less than setupBudget, up to maxSetups: a cheap set-up (firehose's
// quarter second) is a short measurement, and short measurements on the
// reference box wobble by a quarter, so it is taken more often.
const (
	minSetups   = 3
	maxSetups   = 8
	setupBudget = 2 * time.Second
)

// execute runs one workload start to finish.
func execute(c *config) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	// Set-up runs several times and reports its median, so one slow
	// directory sync does not decide setup_s; the last instance is used.
	var setups, recovers []float64
	var spent time.Duration
	for {
		// Each set-up starts from a quiet disk — what the previous one (or
		// the previous process) left behind is flushed and done with — and
		// the first from awake cores as well.
		switch {
		case c.quick:
		case len(setups) == 0:
			quiesce()
		default:
			settle()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		recovers = append(recovers, w.recoverSeconds())
		n := len(setups)
		if c.quick || n == maxSetups || (n >= minSetups && spent >= setupBudget) {
			break
		}
		w.teardown()
	}
	defer w.teardown()
	// The measured part starts from the same state, so its fsyncs wait
	// for their own data only.
	if !c.quick {
		quiesce()
	}

	pro := w.prologue()

	// The traced run is the same phase with every other request
	// recording spans (see phase.tallies).
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	before := w.snapshot()
	ph := w.run(c.seconds, tr)
	after := w.snapshot()

	// Every phase's failed operations plus every invariant the final
	// state breaks count against the run.
	out := &outcome{Workload: c.workload, EndToEnd: metricSet{}, PerLayer: metricSet{}, Conditions: conditions(c)}
	final := w.verify()
	out.Attempted, out.Failed = int64(len(final)), int64(len(final))
	for _, p := range []*phase{pro, ph} {
		out.Attempted += p.attempted.Load()
		out.Failed += p.failed.Load()
		out.Violations = append(out.Violations, p.notes...)
	}
	out.Violations = append(out.Violations, final...)
	out.Correct = out.Failed == 0

	// A workload with no reader of its own reports the prologue's reads.
	if len(ph.page.v) == 0 {
		ph.page.v, ph.readRecords, ph.readSeconds = pro.page.v, pro.readRecords, pro.readSeconds
		ph.borrowKinds(pro, "page:")
	}
	if len(ph.audit.v) == 0 {
		ph.audit.v = pro.audit.v
		ph.borrowKinds(pro, "audit:")
	}
	// Set-up time is the median of its repeats; recovery, a fixed amount
	// of reading whose noise only ever adds, is the quickest of them.
	endToEndMetrics(out.EndToEnd, w, ph, median(setups), slices.Min(recovers))
	layerMetrics(out.PerLayer, ph, before, after)
	out.PerLayer.set("failed_ops_ratio", float64(out.Failed)/float64(max(out.Attempted, 1)))
	out.PerLayer.set("peak_rss_mb", peakRSSMB())
	if c.trace {
		out.PerLayer.set("trace.overhead_ratio", ph.overhead())
		out.PerLayer.set("trace.spans", float64(len(tr.spans)))
		out.SpanSelfMs = make(map[string]float64)
		for layer, ns := range tr.selfTimes() {
			out.SpanSelfMs[layer] = float64(ns) / 1e6
		}
		path := filepath.Join(c.out, "trace-"+c.workload+".json")
		if err := tr.write(path, out.Conditions); err != nil {
			return nil, err
		}
		probes, ladder, err := runProbes(c, w.shape(), ph)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range probes {
			out.PerLayer[k] = v
		}
		out.Ladder, out.LadderUnit = ladder, "wall ns per record"
		switch c.workload {
		case "trickle":
			out.Ladder, out.LadderUnit = latencyBudget(out.PerLayer, ph), "ms of the median append at 4000 records/s"
		case "audit-mix":
			out.Ladder, out.LadderUnit = readerBudget(tr), "ms of reader time"
		}
	}
	return out, nil
}

// rate is the phase's acked records per second: the median over the
// sampling windows where the workload took them, else the mean.
func (p *phase) rate() float64 {
	if p.rateMedian > 0 {
		return p.rateMedian
	}
	return float64(p.acked.Load()) / p.elapsed
}

// cpuPerRecord is process CPU microseconds per acked record.
func (p *phase) cpuPerRecord() float64 {
	if p.cpuMedian > 0 {
		return p.cpuMedian
	}
	return p.cpu * 1e6 / float64(max(p.acked.Load(), 1))
}

func endToEndMetrics(m metricSet, w workload, ph *phase, setupS, recoverS float64) {
	batch, app := summarise(&ph.batchAck), summarise(&ph.appendAck)
	if app.N == 0 {
		app = batch // closed loop: a request is due when the previous one returns
	}
	m.set("setup_s", setupS)
	m.set("ingest_records_per_s", ph.rate())
	m.setQ("batch_ack_p50_ms", batch, 0.5)
	m.setQ("append_ack_p50_ms", app, 0.5)
	m["query_page_p50_ms"] = ph.kindMedians("query_page_p50_ms", "page:", &ph.page)
	m.set("read_records_per_s", float64(ph.readRecords)/max(ph.readSeconds, 1e-9))
	m["audit_p50_ms"] = ph.kindMedians("audit_p50_ms", "audit:", &ph.audit)
	m.set("recover_s", recoverS)
	m.set("cpu_us_per_record", ph.cpuPerRecord())
	var bytes int64
	for _, d := range w.storeDirs() {
		bytes += dirBytes(d)
	}
	m.set("disk_bytes_per_record", float64(bytes)/float64(max(w.records(), 1)))
	// What the process still holds once garbage is gone, per record in
	// the stores: the store keeps every record and its indexes in memory,
	// so this is the service's memory cost of a record. (The peak RSS is
	// per-layer detail: it moves with collector timing and, on the closed
	// loops, with how many records the run managed to write.)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("heap_bytes_per_record", float64(mem.HeapAlloc)/float64(max(w.records(), 1)))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns the counter deltas and the phase's own detail into
// per-layer metrics. The ladder and the direct probes are added by
// runProbes.
func layerMetrics(m metricSet, ph *phase, a, b counters) {
	for _, d := range perLayer {
		m.set(d.Name, 0) // every name is reported; a layer that did no work reports 0
	}
	for k, v := range ph.extra {
		m[k] = v
	}
	recs := b.ingest.Records - a.ingest.Records
	commits := b.ingest.Commits - a.ingest.Commits
	reqs := b.ingest.Requests - a.ingest.Requests
	m.set("wire.pool_hit_ratio", ratio(b.pool.Hits-a.pool.Hits, (b.pool.Hits-a.pool.Hits)+(b.pool.Misses-a.pool.Misses)))
	m.set("store.appended_bytes_per_record", ratio(b.store.AppendedBytes-a.store.AppendedBytes, b.store.Appends-a.store.Appends))
	m.set("store.rotations", float64(b.store.Rotations-a.store.Rotations))
	m.set("ingest.records_per_commit", ratio(recs, commits))
	m.set("ingest.requests_per_commit", ratio(reqs, commits))
	m.set("provclient.records_per_request", ratio(recs, reqs))
	m.set("ingest.rejects", float64(b.ingest.Rejects-a.ingest.Rejects))
	m.set("ingest.conn_fails", float64(b.ingest.ConnFails-a.ingest.ConnFails))
	m.set("ingest.dedup_replays", float64(b.ingest.DedupReplays-a.ingest.DedupReplays))
	m.set("ingest.checkpoint_fails", float64(b.ingest.CheckpointFails-a.ingest.CheckpointFails))
	m.set("ingest.parks", float64(b.ingest.Parks-a.ingest.Parks))
	m.set("ingest.wakes", float64(b.ingest.Wakes-a.ingest.Wakes))
	m.set("query.records_per_page", ratio(b.query.Records-a.query.Records, b.query.Queries-a.query.Queries))
	m.set("query.redactions", float64(b.query.Redactions-a.query.Redactions))
	m.set("query.denials", float64(b.query.Denials-a.query.Denials))
	m.set("query.bad_cursors", float64(b.query.BadCursors-a.query.BadCursors))
	m.set("replica.records_per_batch", ratio(b.replica.AppliedRecords-a.replica.AppliedRecords, b.replica.AppliedBatches-a.replica.AppliedBatches))
	m.set("replica.gaps", float64(b.replica.Gaps-a.replica.Gaps))
	m.set("replica.stall_breaks", float64(b.replica.StallBreaks-a.replica.StallBreaks))
	m.set("proc.allocs_per_record", ratio(b.mem.Mallocs-a.mem.Mallocs, uint64(max(ph.acked.Load(), 1))))
	m.set("proc.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	m.set("proc.gc_pause_total_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	m.setQ("gen.batch_ack_p99_ms", summarise(&ph.batchAck), 0.99)
	app := &ph.appendAck
	if len(app.v) == 0 {
		app = &ph.batchAck
	}
	m.setQ("append_ack_p95_ms", summarise(app), 0.95)
	m.setQ("gen.append_ack_p99_ms", summarise(app), 0.99)
	m.setQ("gen.query_page_p99_ms", summarise(&ph.page), 0.99)
	m.setQ("gen.audit_p99_ms", summarise(&ph.audit), 0.99)
}
