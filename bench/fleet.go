package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// fleet: cluster.Client routing batches of 16 over 2048 principals to 2
// in-process partition leaders, a replica.Replicator following leader
// L0, and a provd.Coordinator; one closed-loop routed writer beside one
// closed-loop reader paging the coordinator's merged global log.
//
// Why: the only workload where internal/cluster, query.Merger,
// internal/replica and the coordinator do most of the work. It measures
// what it says — the cost of the whole fleet path on one shared box —
// and is never to be read as a scaling ratio: both leaders, the
// replica, the coordinator and the load generator share two cores.
type fleetLoad struct {
	base
	f       *fleet
	wcl     *cluster.Client // the writer's routing client (producer identity)
	gen     *chainGen
	out     []string // a never-acting principal owned by each leader
	preBy   []int    // records preloaded per leader
	readers []*provclient.Client
}

const (
	fleetPrincipals = 2048
	fleetBatch      = 16
)

func (w *fleetLoad) shape() probeShape {
	return probeShape{batch: fleetBatch, principals: fleetPrincipals, workers: 1, fsync: true, fleet: true}
}

func leaderID(i int) string { return "L" + strconv.Itoa(i) }

func (w *fleetLoad) setup() error {
	if err := freshDir(w.dir); err != nil {
		return err
	}
	var err error
	if w.sec, err = newSecurity(); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.cfg.seed ^ 0x5eed))
	w.acks = &ackLog{dropAck: w.cfg.dropAck}
	w.principals = principalNames(fleetPrincipals)
	w.policy = hidePolicy(w.principals)

	groups, out, err := fleetGroups(w.principals)
	if err != nil {
		return err
	}
	w.out = out
	w.pre = newChainGen(w.cfg.seed, "p", groups)
	w.gen = newChainGen(w.cfg.seed+1, "a", groups)
	if w.preBy, err = preloadFleet(w.dir, groups, w.pre, w.cfg.scaled(100000)); err != nil {
		return err
	}
	if w.f, err = startFleet(w.dir, store.Options{Fsync: true}, w.sec, w.policy); err != nil {
		return err
	}
	if _, err := w.f.startReplica(); err != nil {
		return err
	}
	w.hc = httpClient(w.sec.reader)
	w.wcl = cluster.NewClient(w.f.m, cluster.ClientOptions{Conns: 1, TLS: w.sec.producer})
	for _, l := range w.f.m.Leaders {
		cl, err := w.wcl.Leader(l.ID)
		if err != nil {
			return err
		}
		if _, err := cl.CommittedFloor(); err != nil {
			return fmt.Errorf("producer handshake with %s: %w", l.ID, err)
		}
	}
	for _, n := range w.f.leaders {
		w.readers = append(w.readers, provclient.New(n.ingest, provclient.Options{Conns: 1, TLSConfig: w.sec.reader}))
	}
	return nil
}

// fleetGroups partitions principals by owning leader and finds, for
// each leader, a principal name it would own that never acts (for
// tampered claims that stay inside one partition). Ownership depends on
// leader IDs only, so the placeholder map already says who owns whom.
func fleetGroups(principals []string) (groups [][]string, outsiders []string, err error) {
	boot, err := bootMap()
	if err != nil {
		return nil, nil, err
	}
	groups = make([][]string, fleetLeaders)
	for _, p := range principals {
		o := boot.Owner(p)
		groups[o] = append(groups[o], p)
	}
	outsiders = make([]string, fleetLeaders)
	for i, found := 0, 0; found < fleetLeaders; i++ {
		name := mallory + strconv.Itoa(i)
		if o := boot.Owner(name); outsiders[o] == "" {
			outsiders[o] = name
			found++
		}
	}
	return groups, outsiders, nil
}

// preloadFleet fills each leader's directory under dir with its own
// principals' registration records and its share of count records of
// one generated stream; it returns the records written per leader.
func preloadFleet(dir string, groups [][]string, g *chainGen, count int) ([]int, error) {
	boot, err := bootMap()
	if err != nil {
		return nil, err
	}
	preBy := make([]int, fleetLeaders)
	stores := make([]*store.Store, fleetLeaders)
	for i := range stores {
		if stores[i], err = store.Open(filepath.Join(dir, "leader"+strconv.Itoa(i)), store.Options{}); err != nil {
			return nil, err
		}
		defer stores[i].Close()
		reg := make([]logs.Action, len(groups[i]))
		for j, p := range groups[i] {
			reg[j] = logs.SndAct(p, logs.NameT("boot"), logs.NameT("hello"))
		}
		if _, err := stores[i].AppendBatch(reg); err != nil {
			return nil, err
		}
		preBy[i] = len(reg)
	}
	batch := make([]logs.Action, 1024)
	for left := count; left > 0; left -= len(batch) {
		if left < len(batch) {
			batch = batch[:left]
		}
		g.fill(batch)
		for i, part := range splitByOwner(boot, batch) {
			if _, err := stores[i].AppendBatch(part); err != nil {
				return nil, err
			}
			preBy[i] += len(part)
		}
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return preBy, nil
}

// splitByOwner slices a batch by owning leader, keeping each slice in
// batch order — what cluster.Client.Append does with it.
func splitByOwner(m *cluster.Map, batch []logs.Action) [][]logs.Action {
	parts := make([][]logs.Action, len(m.Leaders))
	for _, a := range batch {
		o := m.Owner(a.Principal)
		parts[o] = append(parts[o], a)
	}
	return parts
}

func (w *fleetLoad) teardown() {
	for _, cl := range w.readers {
		cl.Close()
	}
	w.readers = nil
	if w.wcl != nil {
		w.wcl.Close()
		w.wcl = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
		w.hc = nil
	}
	if w.f != nil {
		w.f.stop()
		w.f = nil
	}
}

func (w *fleetLoad) recoverSeconds() float64 {
	var s float64
	for _, n := range w.f.leaders {
		s += n.recoverS
	}
	return s
}

func (w *fleetLoad) storeDirs() []string {
	var dirs []string
	for _, n := range w.f.leaders {
		dirs = append(dirs, n.dir)
	}
	return dirs
}

func (w *fleetLoad) records() int {
	total := 0
	for _, n := range w.f.leaders {
		total += n.st.Stats().Records
	}
	return total
}

func (w *fleetLoad) snapshot() counters {
	c := counters{pool: wire.PoolStats(), replica: w.f.rep.Status()}
	for _, n := range w.f.leaders {
		s, i, q := n.st.Stats(), n.ing.Stats(), n.app.Engine().Stats()
		c.store.Appends += s.Appends
		c.store.AppendedBytes += s.AppendedBytes
		c.store.Rotations += s.Rotations
		c.ingest.Records += i.Records
		c.ingest.Commits += i.Commits
		c.ingest.Requests += i.Requests
		c.ingest.Rejects += i.Rejects
		c.ingest.ConnFails += i.ConnFails
		c.ingest.DedupReplays += i.DedupReplays
		c.ingest.CheckpointFails += i.CheckpointFails
		c.ingest.Parks += i.Parks
		c.ingest.Wakes += i.Wakes
		c.query.Queries += q.Queries
		c.query.Records += q.Records
		c.query.Redactions += q.Redactions
		c.query.Denials += q.Denials
		c.query.BadCursors += q.BadCursors
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// rejects sums the leaders' error replies.
func (w *fleetLoad) rejects() uint64 {
	var n uint64
	for _, l := range w.f.leaders {
		n += l.ing.Stats().Rejects
	}
	return n
}

// newReader reads through the coordinator: shard pages route to the
// owner, the global walk is the merged log, audits are proxied.
func (w *fleetLoad) newReader() *reader {
	return &reader{hc: w.hc, base: w.f.coordURL, chains: w.pre.done, out: w.out, rng: w.rng,
		owner: w.f.m.Owner}
}

// prologue: the merged pages are timed beside the writer, so only the
// audits are measured here — many of them, because a proxied audit of
// this small log takes under a millisecond.
func (w *fleetLoad) prologue() *phase {
	return w.newReader().prologue(checkRounds, w.cfg.rounds(measuredPageRounds))
}

// visibility measures leader ack → record visible in the replica's
// store: a store.Watcher on the replica logs (time, high-water) at
// every wake-up, and each L0 ack is matched to the first wake-up whose
// high-water passed its last sequence number.
type visibility struct {
	mu    sync.Mutex
	wakes []wake
	acks  []wake // time of ack, last sequence of the acked block
}

type wake struct {
	at   time.Time
	next uint64
}

func (v *visibility) latencies() *series {
	s := &series{}
	v.mu.Lock()
	defer v.mu.Unlock()
	sort.Slice(v.acks, func(i, j int) bool { return v.acks[i].next < v.acks[j].next })
	i := 0
	for _, a := range v.acks {
		for i < len(v.wakes) && v.wakes[i].next <= a.next {
			i++
		}
		if i == len(v.wakes) {
			break // not yet visible when the phase ended
		}
		// Visible before the producer saw its ack counts as zero wait.
		s.add(max(ms(v.wakes[i].at.Sub(a.at)), 0))
	}
	return s
}

func (w *fleetLoad) run(seconds float64, tr *tracer) *phase {
	ph := newPhase()
	d := time.Duration(seconds * float64(time.Second))
	vis := &visibility{}
	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Replica watcher and lag sampler.
	watcher := w.f.replica.NewWatcher()
	var lag series
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-watcher.C():
				now, next := time.Now(), w.f.replica.NextSeq()
				vis.mu.Lock()
				vis.wakes = append(vis.wakes, wake{now, next})
				vis.mu.Unlock()
			}
		}
	}()
	go func() {
		defer bg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				l0, applied := w.f.leaders[0].st.NextSeq(), w.f.replica.NextSeq()
				lag.add(float64(l0 - min(applied, l0)))
			}
		}
	}()

	rd := w.newReader()
	rd.ph, rd.tr = ph, tr
	rejects := w.rejects()
	perLeader := make([]int64, fleetLeaders)
	cpu0, t0 := cpuSeconds(), time.Now()
	deadline := t0.Add(d)
	win := startWindows(&ph.acked)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the routed writer
		defer wg.Done()
		batch := make([]logs.Action, fleetBatch)
		for i := 0; time.Now().Before(deadline); i++ {
			tr := tr.sampled(i)
			began := time.Now()
			id, end := tr.start("gen", "fleet.batch", 0, 0)
			w.gen.fill(batch)
			_, endCall := tr.start("cluster", "Client.Append", id, id)
			sent := time.Now()
			acks, err := w.wcl.Append(batch)
			acked := time.Now()
			endCall()
			end()
			ph.tally(tr != nil, time.Since(began), len(batch))
			ph.attempted.Add(1)
			if err != nil {
				ph.violate("cluster.Client.Append: %v", err)
				continue
			}
			ph.acked.Add(int64(len(batch)))
			ph.batchAck.add(ms(acked.Sub(sent)))
			parts := splitByOwner(w.f.m, batch)
			for _, a := range acks {
				i := w.f.m.Index(a.Leader)
				w.acks.add(a.Leader, a.Base, parts[i])
				perLeader[i] += int64(a.Records)
				if i == 0 {
					vis.mu.Lock()
					vis.acks = append(vis.acks, wake{acked, a.Base + uint64(a.Records) - 1})
					vis.mu.Unlock()
				}
			}
		}
	}()
	go func() { // the merged-log reader
		defer wg.Done()
		for time.Now().Before(deadline) {
			rd.walkPage()
		}
		ph.readSeconds = time.Since(t0).Seconds()
	}()
	wg.Wait()
	win.finish(ph)
	ph.elapsed, ph.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0

	// Let the replica apply what was acked, then stop observing.
	waitFor(5*time.Second, w.f.caughtUp)
	close(stop)
	bg.Wait()
	watcher.Close()

	// The merged pages are this workload's pages.
	ph.extra.setQ("merged_page_p50_ms", summarise(&ph.page), 0.5)
	ph.extra.setQ("replica_visible_p50_ms", summarise(vis.latencies()), 0.5)
	lagD := summarise(&lag)
	ph.extra.setQ("replica.lag_records_p50", lagD, 0.5)
	ph.extra.setQ("replica.lag_records_max", lagD, 1)
	var most, sum int64
	for _, n := range perLeader {
		most, sum = max(most, n), sum+n
	}
	// An ownership refusal is the only reject this traffic can draw, and
	// each one makes the routing client refetch the map and re-route.
	ph.extra.set("cluster.reroutes", float64(w.rejects()-rejects))
	ph.extra.set("cluster.partition_skew", float64(most)*fleetLeaders/float64(max(sum, 1)))
	return ph
}

// verify checks every leader against its acks, then the replica against
// leader L0: once it has applied everything, its spine must render
// exactly as the leader's does.
func (w *fleetLoad) verify() []string {
	var out []string
	for i, n := range w.f.leaders {
		out = append(out, w.acks.verifyStore(leaderID(i), n.st, w.preBy[i], w.readers[i])...)
	}
	l0 := w.f.leaders[0].st
	if err := waitFor(10*time.Second, w.f.caughtUp); err != nil {
		return append(out, fmt.Sprintf("replica stuck at seq %d, leader L0 at %d: %s", w.f.replica.NextSeq(), l0.NextSeq(), w.f.rep.Status().LastError))
	}
	next := l0.NextSeq()
	if query.SpineString(l0.ScanGlobal(0, next, -1)) != query.SpineString(w.f.replica.ScanGlobal(0, next, -1)) {
		out = append(out, "replica spine differs from leader L0's at quiesce")
	}
	return out
}
