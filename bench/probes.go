package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/provd"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// The per-layer measurement of the -trace run. Two instruments, both
// driven from this directory through each layer's public functions:
//
// The ladder pushes the same seeded batches — shaped like the
// workload's own requests — through ever more of the write path: the
// wire codec alone, store.AppendBatch alone, raw frames into an
// ingest.Server, provclient over cleartext, provclient over mutual TLS
// with the auth map enforced, cluster.Client over two leaders. Every
// rung is driven closed-loop by as many workers as the workload has
// writers, and reports wall nanoseconds per record; a layer's self time
// is its rung minus the rungs beneath it, and what the untraced
// end-to-end run needed beyond the top rung is "unattributed".
//
// The direct probes time one layer's read-side or background function
// against the same call one layer down (HTTP page − Engine.Run,
// Engine.Run hidden − full, …).

type probeShape struct {
	batch      int // actions per request
	principals int
	workers    int // closed-loop writers of the workload
	fsync      bool
	fleet      bool // the workload's path ends at cluster.Client, replica and reader included
}

// rung is one line of the ladder.
type rung struct {
	Layer      string  `json:"layer"`
	What       string  `json:"what"`
	Cumulative float64 `json:"cumulative,omitempty"`
	Self       float64 `json:"self"`
	Share      float64 `json:"share_of_end_to_end"`
}

// rungTime is how long each rung and timed probe loop runs (the smoke
// tests shorten it).
var rungTime = 400 * time.Millisecond

const (
	probeRecords = 50000 // size of the read probes' store
	probePool    = 64    // distinct batches cycled through a rung
	// probePrincipals caps the probes' principal population: registering
	// a shard costs a directory and several fsyncs, and past a few
	// hundred principals a batch touches no more segments than before.
	probePrincipals = 256
)

type prober struct {
	c          *config
	sh         probeShape
	dir        string
	sec        *security
	principals []string
	pool       [][]logs.Action
	m          metricSet
}

// rungResult is what one closed-loop rung measured.
type rungResult struct {
	nsPerRecord float64 // wall time × 1 / records, all workers together
	usPerCall   float64 // mean duration of one call
}

// drive runs call closed-loop on sh.workers goroutines for rungTime.
// call gets the worker index and the iteration count and handles one
// batch of the pool.
func (p *prober) drive(call func(worker, i int, batch []logs.Action) error) (rungResult, error) {
	var wg sync.WaitGroup
	errs := make([]error, p.sh.workers)
	calls := make([]int, p.sh.workers)
	busy := make([]time.Duration, p.sh.workers)
	t0 := time.Now()
	deadline := t0.Add(rungTime)
	for w := 0; w < p.sh.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				s := time.Now()
				if err := call(w, i, p.pool[(i*p.sh.workers+w)%len(p.pool)]); err != nil {
					errs[w] = err
					return
				}
				busy[w] += time.Since(s)
				calls[w]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var n int
	var b time.Duration
	for w := range calls {
		if errs[w] != nil {
			return rungResult{}, errs[w]
		}
		n, b = n+calls[w], b+busy[w]
	}
	if n == 0 {
		return rungResult{}, fmt.Errorf("rung completed no call in %v", rungTime)
	}
	return rungResult{
		nsPerRecord: float64(elapsed.Nanoseconds()) / float64(n*p.sh.batch),
		usPerCall:   float64(b.Microseconds()) / float64(n),
	}, nil
}

// registered opens a fresh store under the probe directory with every
// principal's shard already created.
func (p *prober) registered(name string) (string, error) {
	dir := filepath.Join(p.dir, name)
	if _, err := preloadStore(dir, p.principals, nil, 0); err != nil {
		return "", err
	}
	return dir, nil
}

func runProbes(c *config, sh probeShape, ph *phase) (metricSet, []rung, error) {
	p := &prober{c: c, sh: sh, dir: filepath.Join(c.dir, "probes"), m: metricSet{}}
	if err := freshDir(p.dir); err != nil {
		return nil, nil, err
	}
	var err error
	if p.sec, err = newSecurity(); err != nil {
		return nil, nil, err
	}
	p.principals = principalNames(min(sh.principals, probePrincipals))
	g := newChainGen(c.seed+100, "l", [][]string{p.principals})
	for i := 0; i < probePool; i++ {
		b := make([]logs.Action, sh.batch)
		g.fill(b)
		p.pool = append(p.pool, b)
	}
	var r ladderRungs
	for _, step := range []func(*ladderRungs) error{p.wire, p.store, p.ingest, p.fleet, p.reads, p.replicaApply} {
		if err := step(&r); err != nil {
			return nil, nil, err
		}
	}
	return p.m, p.ladder(&r, ph), nil
}

// ladderRungs are the cumulative rungs, wall ns per record.
type ladderRungs struct {
	wire, storeOff, storeOn     float64
	raw, clear, secured         float64
	routed, replicated, withRdr float64
}

// wire: the codec alone — encode a batch request, decode it as the
// server would (with an interner, into a reused message).
func (p *prober) wire(r *ladderRungs) error {
	encs := make([]*wire.Encoder, p.sh.workers)
	its := make([]*wire.Interner, p.sh.workers)
	msgs := make([]wire.IngestMsg, p.sh.workers)
	for i := range encs {
		encs[i], its[i] = wire.NewEncoder(), wire.NewInterner()
	}
	both, err := p.drive(func(w, i int, batch []logs.Action) error {
		encs[w].Reset()
		encs[w].IngestBatch2(uint64(i+1), uint64(i+1), batch)
		return wire.DecodeIngestInto(encs[w].Bytes(), &msgs[w], its[w])
	})
	if err != nil {
		return err
	}
	r.wire = both.nsPerRecord
	// Encode and decode apart, one worker each, for the per-layer split.
	one := *p
	one.sh.workers = 1
	enc, err := one.drive(func(_, i int, batch []logs.Action) error {
		encs[0].Reset()
		encs[0].IngestBatch2(uint64(i+1), uint64(i+1), batch)
		return nil
	})
	if err != nil {
		return err
	}
	frames := make([][]byte, len(p.pool))
	bytesOut := 0
	for i, b := range p.pool {
		e := wire.NewEncoder()
		e.IngestBatch2(1, 1, b)
		frames[i] = e.Bytes()
		bytesOut += len(frames[i])
	}
	dec, err := one.drive(func(_, i int, _ []logs.Action) error {
		return wire.DecodeIngestInto(frames[i%len(frames)], &msgs[0], its[0])
	})
	if err != nil {
		return err
	}
	p.m.set("wire.encode_ns_per_record", enc.nsPerRecord)
	p.m.set("wire.decode_ns_per_record", dec.nsPerRecord)
	p.m.set("wire.bytes_per_record", float64(bytesOut)/float64(len(p.pool)*p.sh.batch))
	return nil
}

// store: AppendBatch alone, fsync off and on, and the session
// checkpoint the ingest listener writes after each commit round.
func (p *prober) store(r *ladderRungs) error {
	var off, on rungResult
	for _, fsync := range []bool{false, true} {
		dir, err := p.registered("store-" + strconv.FormatBool(fsync))
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{Fsync: fsync})
		if err != nil {
			return err
		}
		res, err := p.drive(func(_, _ int, batch []logs.Action) error {
			_, err := st.AppendBatch(batch)
			return err
		})
		if err == nil && fsync {
			// The checkpoint as the listener does it: under the table lock,
			// after the append, one entry per committed request.
			var spent time.Duration
			n := 0
			for deadline := time.Now().Add(rungTime / 2); time.Now().Before(deadline); n++ {
				base, aerr := st.AppendBatch(p.pool[n%len(p.pool)])
				if aerr != nil {
					err = aerr
					break
				}
				t0 := time.Now()
				st.Sessions().Lock()
				err = st.Sessions().AppendLocked([]wire.SessionEntry{{Session: "probe", BatchSeq: uint64(n + 1), Base: base, Count: uint64(p.sh.batch)}})
				st.Sessions().Unlock()
				spent += time.Since(t0)
				if err != nil {
					break
				}
			}
			p.m.set("store.session_checkpoint_us_per_batch", float64(spent.Microseconds())/float64(max(n, 1)))
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if fsync {
			on = res
		} else {
			off = res
		}
	}
	r.storeOff, r.storeOn = off.nsPerRecord, on.nsPerRecord
	p.m.set("store.append_ns_per_record", off.nsPerRecord)
	p.m.set("store.fsync_us_per_commit", on.usPerCall-off.usPerCall)
	return nil
}

// rawConn is a hand-rolled ingest client: the v2 handshake, then one
// batch frame out and one ack back per call — the wire protocol with
// no provclient around it.
type rawConn struct {
	nc  net.Conn
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder
	e   *wire.Encoder
	msg wire.IngestMsg
	seq uint64
}

func dialRaw(addr, session string) (*rawConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &rawConn{nc: nc, enc: wire.NewStreamEncoder(nc), dec: wire.NewStreamDecoder(nc), e: wire.NewEncoder()}
	c.e.IngestHello(wire.IngestV2, session)
	if err := c.exchange(wire.OpIngestHelloAck); err != nil {
		nc.Close()
		return nil, fmt.Errorf("raw handshake: %w", err)
	}
	return c, nil
}

// exchange sends the encoded envelope and reads one reply of kind want.
func (c *rawConn) exchange(want byte) error {
	if err := c.enc.Envelope(c.e.Bytes()); err != nil {
		return err
	}
	if err := c.enc.Flush(); err != nil {
		return err
	}
	env, err := c.dec.Envelope()
	if err != nil {
		return err
	}
	if err := wire.DecodeIngestInto(env, &c.msg, nil); err != nil {
		return err
	}
	if c.msg.Op != want {
		return fmt.Errorf("reply opcode %#x (%s), want %#x", c.msg.Op, c.msg.Msg, want)
	}
	return nil
}

func (c *rawConn) appendBatch(batch []logs.Action) error {
	c.seq++
	c.e.Reset()
	c.e.IngestBatch2(c.seq, c.seq, batch)
	return c.exchange(wire.OpIngestAck)
}

// ingest: raw frames and provclient against a cleartext, auth-less
// node, then provclient against the mutual-TLS node with the auth map
// enforced — and, there, the two single-record append latencies that
// explain trickle.
func (p *prober) ingest(r *ladderRungs) error {
	sopts := store.Options{Fsync: p.sh.fsync}
	dir, err := p.registered("ingest")
	if err != nil {
		return err
	}
	plain, err := startNode(dir, sopts, nil, nil, nil)
	if err != nil {
		return err
	}
	conns := make([]*rawConn, p.sh.workers)
	for i := range conns {
		if conns[i], err = dialRaw(plain.ingest, "raw"+strconv.Itoa(i)); err != nil {
			plain.stop()
			return err
		}
		defer conns[i].nc.Close()
	}
	raw, err := p.drive(func(w, _ int, batch []logs.Action) error { return conns[w].appendBatch(batch) })
	if err != nil {
		plain.stop()
		return fmt.Errorf("raw ingest rung: %w", err)
	}
	cl := provclient.New(plain.ingest, provclient.Options{Conns: p.sh.workers})
	clear, err := p.drive(func(_, _ int, batch []logs.Action) error {
		_, err := cl.AppendBatch(batch)
		return err
	})
	cl.Close()
	if cerr := plain.stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cleartext provclient rung: %w", err)
	}

	// The same directory, now served as provd serves it.
	secured, err := startNode(dir, sopts, p.sec, nil, nil)
	if err != nil {
		return err
	}
	defer secured.stop()
	scl := provclient.New(secured.ingest, provclient.Options{Conns: p.sh.workers, TLSConfig: p.sec.producer})
	defer scl.Close()
	sec, err := p.drive(func(_, _ int, batch []logs.Action) error {
		_, err := scl.AppendBatch(batch)
		return err
	})
	if err != nil {
		return fmt.Errorf("mTLS provclient rung: %w", err)
	}
	r.raw, r.clear, r.secured = raw.nsPerRecord, clear.nsPerRecord, sec.nsPerRecord

	// One record at a time with nothing else going on: through the
	// group-commit batcher (pays the flush deadline) and as a one-action
	// batch (does not). Both need fsync on to mean anything, so they get
	// their own node when the shape has it off.
	lat := secured
	if !p.sh.fsync {
		ldir, err := p.registered("latency")
		if err != nil {
			return err
		}
		if lat, err = startNode(ldir, store.Options{Fsync: true}, p.sec, nil, nil); err != nil {
			return err
		}
		defer lat.stop()
	}
	lcl := provclient.New(lat.ingest, provclient.Options{Conns: 1, TLSConfig: p.sec.producer})
	defer lcl.Close()
	var idle, direct series
	for i := 0; i < 60; i++ {
		a := p.pool[i%len(p.pool)][0]
		t0 := time.Now()
		if _, err := lcl.Append(a); err != nil {
			return err
		}
		idle.add(ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := lcl.AppendBatch([]logs.Action{a}); err != nil {
			return err
		}
		direct.add(ms(time.Since(t0)))
	}
	p.m.setQ("provclient.idle_append_ack_p50_ms", summarise(&idle), 0.5)
	p.m.setQ("provclient.direct_append_ack_p50_ms", summarise(&direct), 0.5)
	return nil
}

// fleet: cluster.Client over two leaders; for the fleet workload also
// with the replica following and the merged reader running, so the top
// rung is the workload's own configuration. Also the replica bootstrap
// rate, the owner lookup and the merge.
func (p *prober) fleet(r *ladderRungs) error {
	dir := filepath.Join(p.dir, "fleet")
	groups, _, err := fleetGroups(p.principals)
	if err != nil {
		return err
	}
	g := newChainGen(p.c.seed+200, "f", groups)
	if _, err := preloadFleet(dir, groups, g, 20000); err != nil {
		return err
	}
	f, err := startFleet(dir, store.Options{Fsync: p.sh.fsync}, p.sec, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	rc := cluster.NewClient(f.m, cluster.ClientOptions{Conns: 1, TLS: p.sec.producer})
	defer rc.Close()
	routed := func(_, _ int, batch []logs.Action) error { return rc.AppendBatch(batch) }
	if err := rc.AppendBatch(p.pool[0]); err != nil { // dial both leaders
		return err
	}
	res, err := p.drive(routed)
	if err != nil {
		return fmt.Errorf("routed rung: %w", err)
	}
	r.routed = res.nsPerRecord

	l0Records := f.leaders[0].st.Stats().Records
	took, err := f.startReplica()
	if err != nil {
		return err
	}
	p.m.set("replica.bootstrap_records_per_s", float64(l0Records)/took.Seconds())
	if p.sh.fleet {
		if res, err = p.drive(routed); err != nil {
			return fmt.Errorf("routed+replica rung: %w", err)
		}
		r.replicated = res.nsPerRecord
		rd := &reader{hc: httpClient(p.sec.reader), base: f.coordURL, owner: f.m.Owner, ph: newPhase()}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rd.walkPage()
				}
			}
		}()
		res, err = p.drive(routed)
		close(stop)
		wg.Wait()
		rd.hc.CloseIdleConnections()
		if err != nil {
			return fmt.Errorf("routed+replica+reader rung: %w", err)
		}
		if len(rd.ph.notes) > 0 {
			return fmt.Errorf("probe reader: %s", rd.ph.notes[0])
		}
		r.withRdr = res.nsPerRecord
	}

	// Owner lookups and the k-way merge over the two leaders' stores
	// read in process (no network: the merge itself).
	t0 := time.Now()
	lookups := 0
	for ; lookups < 200000; lookups++ {
		f.m.Owner(p.principals[lookups%len(p.principals)])
	}
	p.m.set("cluster.owner_ns_per_lookup", float64(time.Since(t0).Nanoseconds())/float64(lookups))
	mg := &query.Merger{Epoch: 1, Sources: []query.Source{storeSource{f.leaders[0].st}, storeSource{f.leaders[1].st}}}
	var merged int
	var cursor string
	t0 = time.Now()
	for deadline := t0.Add(rungTime / 2); time.Now().Before(deadline); {
		recs, next, err := mg.Page(cursor, pageLimit)
		if err != nil {
			return err
		}
		merged, cursor = merged+len(recs), next
	}
	p.m.set("query.merge_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(max(merged, 1)))
	return nil
}

// storeSource serves a merge source straight from a store.
type storeSource struct{ st *store.Store }

func (s storeSource) Fetch(min uint64, limit int) ([]wire.Record, error) {
	return s.st.ScanGlobal(min, s.st.NextSeq(), limit), nil
}

// meanUS times n calls of fn and returns the mean in microseconds.
func meanUS(n int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(n), nil
}

// reads: the read side, each surface timed against the call beneath it
// on one preloaded, secured node.
func (p *prober) reads(_ *ladderRungs) error {
	dir := filepath.Join(p.dir, "reads")
	g := newChainGen(p.c.seed+300, "r", [][]string{p.principals})
	n, err := preloadStore(dir, p.principals, g, probeRecords)
	if err != nil {
		return err
	}
	node, err := startNode(dir, store.Options{Fsync: true}, p.sec, hidePolicy(p.principals), nil)
	if err != nil {
		return err
	}
	defer node.stop()
	p.m.set("store.open_ns_per_record", node.recoverS*1e9/float64(n))
	st, eng := node.st, node.app.Engine()
	hc := httpClient(p.sec.reader)
	defer hc.CloseIdleConnections()
	chains := g.done
	rng := rand.New(rand.NewSource(p.c.seed))
	const rounds = 40

	// Shard pages: store scan, Engine.Run over it, HTTP over that.
	var scanned, ran int
	scanUS, err := meanUS(rounds, func(i int) error {
		a := chains[i%len(chains)].acts[0]
		scanned += len(st.ScanShardTail(a.Principal, store.Filter{Channel: a.A.Name}, 0, pageLimit))
		return nil
	})
	if err != nil {
		return err
	}
	runUS, err := meanUS(rounds, func(i int) error {
		a := chains[i%len(chains)].acts[0]
		pg, err := eng.Run(query.Query{Principal: a.Principal, Channel: a.A.Name, Tail: true, Limit: pageLimit})
		ran += len(pg.Records)
		return err
	})
	if err != nil {
		return err
	}
	httpUS, err := meanUS(rounds, func(i int) error {
		a := chains[i%len(chains)].acts[0]
		_, err := getLog(hc, node.httpURL, a.Principal, url.Values{"chan": {a.A.Name}, "limit": {strconv.Itoa(pageLimit)}})
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("store.scan_shard_ns_per_record", scanUS*1e3*rounds/float64(max(scanned, 1)))
	p.m.set("query.run_ns_per_record", runUS*1e3*rounds/float64(max(ran, 1)))
	p.m.set("provd.http_log_self_us_per_page", httpUS-runUS)

	// Global pages: the store's merged scan, and Engine.Run for an
	// observer the policy hides principals from against the full view.
	var globals int
	globalUS, err := meanUS(rounds, func(i int) error {
		globals += len(st.ScanGlobal(uint64(i*pageLimit), st.NextSeq(), pageLimit))
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("store.scan_global_ns_per_record", globalUS*1e3*rounds/float64(max(globals, 1)))
	var viewed int
	walk := func(obs string) (float64, error) {
		return meanUS(rounds, func(i int) error {
			pg, err := eng.Run(query.Query{MinSeq: uint64(i * pageLimit), Limit: pageLimit, Observer: obs})
			viewed += len(pg.Records)
			return err
		})
	}
	fullUS, err := walk("")
	if err != nil {
		return err
	}
	hiddenUS, err := walk(observer)
	if err != nil {
		return err
	}
	p.m.set("query.redact_ns_per_record", (hiddenUS-fullUS)*1e3*rounds*2/float64(max(viewed, 1)))

	// Audits: the store's check, and /audit over it. The first audit
	// builds the merged view and is not timed.
	claims := make([]claim, 0, rounds)
	for i := 0; len(claims) < rounds; i++ {
		good, bad := chains[i%len(chains)].claims(rng, mallory)
		claims = append(claims, good, bad)
	}
	st.AuditTerm(logs.NameT(claims[0].value), claims[0].prov)
	auditUS, err := meanUS(len(claims), func(i int) error {
		c := claims[i]
		if ok := st.AuditTerm(logs.NameT(c.value), c.prov) == nil; ok != c.justified {
			return fmt.Errorf("probe audit of %s:%s returned %v, want %v", c.value, c.prov, ok, c.justified)
		}
		return nil
	})
	if err != nil {
		return err
	}
	httpAuditUS, err := meanUS(len(claims), func(i int) error {
		_, err := postAudit(hc, node.httpURL, claims[i])
		return err
	})
	if err != nil {
		return err
	}
	p.m.set("store.audit_us", auditUS)
	p.m.set("provd.http_audit_self_us", httpAuditUS-auditUS)

	// Single appends: store.Append, and POST /append over it.
	phc := httpClient(p.sec.producer)
	defer phc.CloseIdleConnections()
	appendUS, err := meanUS(rounds, func(i int) error {
		_, err := st.Append(p.pool[i%len(p.pool)][0])
		return err
	})
	if err != nil {
		return err
	}
	postUS, err := meanUS(rounds, func(i int) error {
		a := p.pool[i%len(p.pool)][0]
		body, err := json.Marshal(provd.ActionDTO{Principal: a.Principal, Kind: a.Kind.String(),
			A: provd.TermDTO{Name: a.A.Name}, B: provd.TermDTO{Name: a.B.Name}})
		if err != nil {
			return err
		}
		resp, err := phc.Post(node.httpURL+"/append", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /append: %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m.set("provd.http_append_us", postUS-appendUS)
	return nil
}

// replicaApply: store.ApplyReplicated alone, fed batches that already
// carry sequence numbers, as the Replicator feeds it.
func (p *prober) replicaApply(_ *ladderRungs) error {
	dir, err := p.registered("apply")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{Fsync: p.sh.fsync})
	if err != nil {
		return err
	}
	defer st.Close()
	one := *p
	one.sh.workers = 1 // a replica store has exactly one writer
	res, err := one.drive(func(_, _ int, batch []logs.Action) error {
		recs := make([]wire.Record, len(batch))
		next := st.NextSeq()
		for i, a := range batch {
			recs[i] = wire.Record{Seq: next + uint64(i), Act: a}
		}
		return st.ApplyReplicated(recs)
	})
	if err != nil {
		return err
	}
	p.m.set("replica.apply_ns_per_record", res.nsPerRecord)
	return nil
}

// ladder turns the cumulative rungs into self times and shares of the
// untraced end-to-end cost per record.
func (p *prober) ladder(r *ladderRungs, ph *phase) []rung {
	e2e := 1e9 / ph.rate()
	storeRung, fsyncSelf := r.storeOff, 0.0
	if p.sh.fsync {
		storeRung, fsyncSelf = r.storeOn, r.storeOn-r.storeOff
	}
	rungs := []rung{
		{Layer: "wire", What: "encode + decode of the request frame", Self: r.wire},
		{Layer: "store.append", What: "store.AppendBatch, fsync off", Self: r.storeOff},
		{Layer: "store.fsync", What: "AppendBatch fsync on − off", Self: fsyncSelf},
		{Layer: "ingest", What: "raw frames → ingest.Server, cleartext, no auth map", Cumulative: r.raw, Self: r.raw - r.wire - storeRung},
		{Layer: "provclient", What: "provclient.AppendBatch, cleartext", Cumulative: r.clear, Self: r.clear - r.raw},
		{Layer: "auth", What: "mutual TLS + auth map enforced", Cumulative: r.secured, Self: r.secured - r.clear},
	}
	top := r.secured
	p.m.set("ingest.self_ns_per_record", r.raw-r.wire-storeRung)
	p.m.set("provclient.self_ns_per_record", r.clear-r.raw)
	p.m.set("auth.tls_admission_ns_per_record", r.secured-r.clear)
	p.m.set("cluster.route_self_ns_per_record", r.routed-r.secured)
	if p.sh.fleet {
		rungs = append(rungs,
			rung{Layer: "cluster", What: "cluster.Client over 2 leaders", Cumulative: r.routed, Self: r.routed - r.secured},
			rung{Layer: "replica", What: "replica following leader L0", Cumulative: r.replicated, Self: r.replicated - r.routed},
			rung{Layer: "query+provd", What: "merged-log reader running beside the writer", Cumulative: r.withRdr, Self: r.withRdr - r.replicated})
		top = r.withRdr
	}
	rungs = append(rungs,
		rung{Layer: "unattributed", What: "end-to-end − top rung", Self: e2e - top},
		rung{Layer: "end-to-end", What: "untraced run: 1e9 / ingest_records_per_s", Cumulative: e2e, Self: e2e})
	for i := range rungs {
		rungs[i].Share = rungs[i].Self / e2e
	}
	p.m.set("ladder.top_rung_ns_per_record", top)
	p.m.set("ladder.end_to_end_ns_per_record", e2e)
	p.m.set("ladder.unattributed_ns_per_record", e2e-top)
	return rungs
}

// latencyBudget is trickle's share table: where the median append's
// time goes at the gate step, in milliseconds. The flush wait is an idle
// Append (which waits out the group-commit deadline) minus the same
// record sent as a one-action batch (which does not); the fsync and the
// checkpoint are the store probes; what the loaded step adds over an
// idle Append is queueing for a commit round.
func latencyBudget(m metricSet, ph *phase) []rung {
	e2e := summarise(&ph.appendAck).P50
	idle, direct := m["provclient.idle_append_ack_p50_ms"].Value, m["provclient.direct_append_ack_p50_ms"].Value
	fsync, ckpt := m["store.fsync_us_per_commit"].Value/1000, m["store.session_checkpoint_us_per_batch"].Value/1000
	rungs := []rung{
		{Layer: "provclient", What: "flush deadline: idle Append − one-action AppendBatch", Self: idle - direct},
		{Layer: "store.fsync", What: "a one-record commit's fsync (on − off)", Self: fsync},
		{Layer: "store.session", What: "session checkpoint of the round", Self: ckpt},
		{Layer: "wire+ingest+auth", What: "rest of a one-action request", Self: direct - fsync - ckpt},
		{Layer: "unattributed", What: "waiting for a commit round under load: p50 at the step − idle Append", Self: e2e - idle},
		{Layer: "end-to-end", What: "append_ack_p50_ms at 4000 records/s", Cumulative: e2e, Self: e2e},
	}
	for i := range rungs {
		rungs[i].Share = rungs[i].Self / e2e
	}
	return rungs
}

// readerBudget is audit-mix's share table: the reader's time by the call
// it was inside, from the spans (reads are all traced).
func readerBudget(tr *tracer) []rung {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	reads := make(map[uint64]bool) // root spans of read requests
	for _, sp := range spans {
		if sp.Parent == 0 && strings.HasPrefix(sp.Name, "read.") {
			reads[sp.ID] = true
		}
	}
	type key struct{ layer, name string }
	spent := make(map[key]float64)
	var total float64
	for _, sp := range spans {
		if reads[sp.Parent] {
			d := float64(sp.End-sp.Start) / 1e6
			spent[key{sp.Layer, sp.Name}] += d
			total += d
		}
	}
	var rungs []rung
	for k, d := range spent {
		rungs = append(rungs, rung{Layer: k.layer, What: k.name, Self: d, Share: d / total})
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].Self > rungs[j].Self })
	return append(rungs, rung{Layer: "end-to-end", What: "reader time inside calls, whole phase", Cumulative: total, Self: total, Share: 1})
}

// printLadder prints a share table — the ladder, or a workload's own
// budget — and names the largest share.
func printLadder(w io.Writer, unit string, rungs []rung) {
	fmt.Fprintf(w, "  share table (%s)\n    %-16s %12s %12s %7s  %s\n", unit, "layer", "cumulative", "self", "share", "what")
	var largest rung
	for _, r := range rungs {
		cum := ""
		if r.Cumulative != 0 {
			cum = strconv.FormatFloat(r.Cumulative, 'f', 1, 64)
		}
		fmt.Fprintf(w, "    %-16s %12s %12.1f %6.1f%%  %s\n", r.Layer, cum, r.Self, r.Share*100, r.What)
		if r.Layer != "end-to-end" && r.Self > largest.Self {
			largest = r
		}
	}
	fmt.Fprintf(w, "    largest self-time share: %s (%.1f%%)\n", largest.Layer, largest.Share*100)
}
