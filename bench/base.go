package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/store"
	"repro/internal/trust"
	"repro/internal/wire"
)

const pageLimit = 256

// base is what the workloads share: the run's key material, the
// principal population, the preloaded log and the claims it justifies,
// the reader's clients, and the record of every ack for the oracle.
type base struct {
	cfg        *config
	dir        string
	sec        *security
	principals []string
	policy     *trust.DisclosurePolicy
	pre        *chainGen // produced the preload; its finished chains are the audit claims
	preN       int       // records preloaded (per store id in the fleet, see acks)
	n          *node     // the single node (nil in the fleet workload)
	hc         *http.Client
	rcl        *provclient.Client // reader identity, binary queries
	acks       *ackLog
	rng        *rand.Rand
}

// setupSingle builds the one-node deployment every workload but fleet
// runs against: a store preloaded with every principal registered and
// preloadN chain records, closed and re-opened by the node (timed as
// the node's recovery), and the reader's clients.
func (b *base) setupSingle(nPrincipals, preloadN int, fsync bool) error {
	if err := freshDir(b.dir); err != nil {
		return err
	}
	var err error
	if b.sec, err = newSecurity(); err != nil {
		return err
	}
	b.rng = rand.New(rand.NewSource(b.cfg.seed ^ 0x5eed))
	b.principals = principalNames(nPrincipals)
	b.policy = hidePolicy(b.principals)
	b.pre = newChainGen(b.cfg.seed, "p", [][]string{b.principals})
	b.acks = &ackLog{dropAck: b.cfg.dropAck}
	storeDir := filepath.Join(b.dir, "store")
	if b.preN, err = preloadStore(storeDir, b.principals, b.pre, preloadN); err != nil {
		return err
	}
	if b.n, err = startNode(storeDir, store.Options{Fsync: fsync}, b.sec, b.policy, nil); err != nil {
		return err
	}
	b.hc = httpClient(b.sec.reader)
	b.rcl = provclient.New(b.n.ingest, provclient.Options{Conns: 1, TLSConfig: b.sec.reader})
	return nil
}

func (b *base) teardownSingle() {
	if b.rcl != nil {
		b.rcl.Close()
	}
	if b.hc != nil {
		b.hc.CloseIdleConnections()
	}
	if b.n != nil {
		b.n.stop()
	}
	b.n, b.rcl, b.hc = nil, nil, nil
}

func (b *base) recoverSeconds() float64 { return b.n.recoverS }
func (b *base) storeDirs() []string     { return []string{b.n.dir} }
func (b *base) records() int            { return b.n.st.Stats().Records }

func (b *base) snapshot() counters {
	c := counters{store: b.n.st.Stats(), ingest: b.n.ing.Stats(), query: b.n.app.Engine().Stats(), pool: wire.PoolStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// newProducer dials a producer-identity client with the given pool size
// and completes its first handshake, so connection set-up is part of
// setup_s rather than of the first timed request.
func (b *base) newProducer(addr string, conns int) (*provclient.Client, error) {
	cl := provclient.New(addr, provclient.Options{Conns: conns, TLSConfig: b.sec.producer})
	if _, err := cl.CommittedFloor(); err != nil {
		cl.Close()
		return nil, fmt.Errorf("producer handshake: %w", err)
	}
	return cl, nil
}

// preloadStore fills a fresh store at dir: one registration record per
// principal (so no timed append ever pays shard creation), then count
// chain records. It returns the number of records written.
func preloadStore(dir string, principals []string, g *chainGen, count int) (int, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	reg := make([]logs.Action, len(principals))
	for i, p := range principals {
		reg[i] = logs.SndAct(p, logs.NameT("boot"), logs.NameT("hello"))
	}
	if _, err := st.AppendBatch(reg); err != nil {
		st.Close()
		return 0, fmt.Errorf("preload: %w", err)
	}
	batch := make([]logs.Action, 1024)
	for left := count; left > 0; left -= len(batch) {
		if left < len(batch) {
			batch = batch[:left]
		}
		g.fill(batch)
		if _, err := st.AppendBatch(batch); err != nil {
			st.Close()
			return 0, fmt.Errorf("preload: %w", err)
		}
	}
	return len(principals) + count, st.Close()
}

// ackLog is the oracle's record of what the service acknowledged: one
// block of sequence numbers per acked request, per store.
type ackLog struct {
	mu      sync.Mutex
	blocks  map[string][]block
	dropAck bool
	seen    int
	kept    []sentBlock // a sample of acked requests, for read-back
}

type block struct {
	base uint64
	n    int
}

// sentBlock is an acked request kept whole so the oracle can read its
// sequence block back and compare.
type sentBlock struct {
	store string
	base  uint64
	acts  []logs.Action
}

const keptBlocks = 32

func (a *ackLog) add(storeID string, base uint64, acts []logs.Action) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	if a.dropAck && a.seen == 3 {
		return // the injected fault: an ack the generator loses
	}
	if a.blocks == nil {
		a.blocks = make(map[string][]block)
	}
	a.blocks[storeID] = append(a.blocks[storeID], block{base, len(acts)})
	// Keep a spread of requests: every one early on, then ever sparser.
	if a.seen&(a.seen-1) == 0 || a.seen%1024 == 0 {
		sb := sentBlock{store: storeID, base: base, acts: append([]logs.Action(nil), acts...)}
		if len(a.kept) < keptBlocks {
			a.kept = append(a.kept, sb)
		} else {
			a.kept[a.seen%keptBlocks] = sb
		}
	}
}

func (a *ackLog) acked(storeID string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, b := range a.blocks[storeID] {
		total += b.n
	}
	return total
}

// tiles checks the paper's spine invariant on the acks: the blocks
// acked for a store are disjoint and together cover [first, next)
// exactly — no sequence number acked twice, none skipped.
func (a *ackLog) tiles(storeID string, first, next uint64) []string {
	a.mu.Lock()
	blocks := append([]block(nil), a.blocks[storeID]...)
	a.mu.Unlock()
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].base < blocks[j].base })
	at := first
	for _, b := range blocks {
		switch {
		case b.base < at:
			return []string{fmt.Sprintf("store %q: acked block [%d,+%d) overlaps the block before it (ends %d)", storeID, b.base, b.n, at)}
		case b.base > at:
			return []string{fmt.Sprintf("store %q: sequence numbers [%d,%d) were never acked", storeID, at, b.base)}
		}
		at += uint64(b.n)
	}
	if at != next {
		return []string{fmt.Sprintf("store %q: acks cover up to %d but the store's next sequence is %d", storeID, at, next)}
	}
	return nil
}

// verifyStore checks one store's final state against the acks: the
// blocks tile the spine, the record count is preload + acked, and the
// kept requests read back record for record through the binary read path.
func (a *ackLog) verifyStore(storeID string, st *store.Store, preN int, rcl *provclient.Client) []string {
	out := a.tiles(storeID, uint64(preN), st.NextSeq())
	if got, want := st.Stats().Records, preN+a.acked(storeID); got != want {
		out = append(out, fmt.Sprintf("store %q holds %d records, want %d (preloaded %d + acked %d)", storeID, got, want, preN, want-preN))
	}
	a.mu.Lock()
	kept := append([]sentBlock(nil), a.kept...)
	a.mu.Unlock()
	for _, sb := range kept {
		if sb.store != storeID {
			continue
		}
		// One shard query per kept request: the records its first
		// principal contributed must sit in that principal's shard at
		// exactly the acked sequence numbers. (A shard query costs a
		// binary search; an unfiltered one would make the store merge
		// every shard first — millions of records after firehose.)
		p := sb.acts[0].Principal
		recs, _, err := rcl.QueryAll(wire.QuerySpec{Principal: p, MinSeq: sb.base, CeilSeq: sb.base + uint64(len(sb.acts)), Limit: uint64(len(sb.acts))})
		if err != nil {
			out = append(out, fmt.Sprintf("store %q: reading back block at %d: %v", storeID, sb.base, err))
			continue
		}
		for i, act := range sb.acts {
			if act.Principal != p {
				continue
			}
			if len(recs) == 0 || recs[0].Seq != sb.base+uint64(i) || recs[0].Act != act {
				out = append(out, fmt.Sprintf("store %q: record %d of %s does not read back as sent (%v)", storeID, sb.base+uint64(i), p, act))
				break
			}
			recs = recs[1:]
		}
		if len(recs) != 0 {
			out = append(out, fmt.Sprintf("store %q: shard %s holds %d records in [%d,+%d) that were never sent", storeID, p, len(recs), sb.base, len(sb.acts)))
		}
	}
	return out
}

// reader performs the read operations of a workload and checks every
// answer: the prologue of every workload and the timed readers of
// audit-mix and fleet are built from it.
type reader struct {
	hc       *http.Client
	base     string             // HTTP base URL: a node, or the fleet's coordinator
	rcl      *provclient.Client // binary read path (nil: not used)
	observer string             // observer of the global walk ("" = full view)
	// owner maps a principal to its partition (nil: one spine).
	owner  func(principal string) int
	chains []*chain
	out    []string // a never-acting principal per chain group, for tampered claims
	rng    *rand.Rand
	ph     *phase
	tr     *tracer

	at     int      // next chain to draw on
	next   []uint64 // the walk: expected next sequence per partition
	from   uint64
	cursor string
}

func (r *reader) chain() *chain {
	c := r.chains[r.at%len(r.chains)]
	r.at++
	return c
}

// timed runs one read operation of the given kind ("page:…" or
// "audit:…") under a span, adds its latency to its kind's series and to
// the pooled one, and counts it.
func (r *reader) timed(kind, layer, name string, op func() (records int, err error)) {
	id, end := r.tr.start("gen", "read."+name, 0, 0)
	_, endCall := r.tr.start(layer, name, id, id)
	t0 := time.Now()
	n, err := op()
	d := time.Since(t0)
	endCall()
	end()
	r.ph.attempted.Add(1)
	if err != nil {
		r.ph.violate("%s: %v", name, err)
		return
	}
	ks := r.ph.kinds[kind]
	if ks == nil {
		ks = &series{}
		r.ph.kinds[kind] = ks
	}
	ks.add(ms(d))
	if strings.HasPrefix(kind, "audit:") {
		r.ph.audit.add(ms(d))
		return
	}
	r.ph.page.add(ms(d))
	r.ph.readRecords += int64(n)
	r.ph.readSeconds += d.Seconds()
}

// shardPage reads one channel-filtered shard page over HTTP and checks
// the filter held.
func (r *reader) shardPage() {
	a := r.chain().acts[0]
	r.timed("page:shard", "provd", "GET /log/{p}?chan=", func() (int, error) {
		lr, err := getLog(r.hc, r.base, a.Principal, url.Values{"chan": {a.A.Name}, "limit": {strconv.Itoa(pageLimit)}})
		if err != nil {
			return 0, err
		}
		return len(lr.Records), checkShardPage(len(lr.Records), a, func(i int) (uint64, string, string) {
			rec := lr.Records[i]
			return rec.Seq, rec.Action.Principal, rec.Action.A.Name
		})
	})
}

// tailPage reads the same kind of page over the binary protocol.
func (r *reader) tailPage() {
	a := r.chain().acts[0]
	r.timed("page:tail", "provclient", "QueryAll tail-256", func() (int, error) {
		recs, _, err := r.rcl.QueryAll(wire.QuerySpec{Principal: a.Principal, Channel: a.A.Name, Tail: true, Limit: pageLimit})
		if err != nil {
			return 0, err
		}
		return len(recs), checkShardPage(len(recs), a, func(i int) (uint64, string, string) {
			return recs[i].Seq, recs[i].Act.Principal, recs[i].Act.A.Name
		})
	})
}

// checkShardPage: a filtered shard page is non-empty (the chain's own
// record matches), ascending, and holds only matching records.
func checkShardPage(n int, a logs.Action, at func(i int) (seq uint64, principal, channel string)) error {
	if n == 0 {
		return fmt.Errorf("page for %s chan %s is empty, but %v was appended", a.Principal, a.A.Name, a)
	}
	var prev uint64
	for i := 0; i < n; i++ {
		seq, p, ch := at(i)
		if p != a.Principal || ch != a.A.Name {
			return fmt.Errorf("page for %s chan %s holds a record of %s chan %s", a.Principal, a.A.Name, p, ch)
		}
		if i > 0 && seq <= prev {
			return fmt.Errorf("page for %s not ascending: seq %d after %d", a.Principal, seq, prev)
		}
		prev = seq
	}
	return nil
}

// walkPage reads the next page of the paginated global walk and checks
// that the walk stays gap-free and duplicate-free (per partition in the
// fleet, whose leaders each mint their own sequence numbers).
func (r *reader) walkPage() {
	r.timed("page:walk", "provd", "GET /log walk", func() (int, error) {
		q := url.Values{"from": {strconv.FormatUint(r.from, 10)}, "limit": {strconv.Itoa(pageLimit)}}
		if r.observer != "" {
			q.Set("observer", r.observer)
		}
		if r.cursor != "" {
			q.Set("cursor", r.cursor)
		}
		lr, err := getLog(r.hc, r.base, "", q)
		if err != nil {
			return 0, err
		}
		if r.next == nil {
			r.next = make([]uint64, max(fleetLeaders, 1))
			for i := range r.next {
				r.next[i] = r.from
			}
		}
		var last uint64
		for _, rec := range lr.Records {
			part := 0
			if r.owner != nil {
				part = r.owner(rec.Action.Principal)
			}
			if rec.Seq != r.next[part] {
				return 0, fmt.Errorf("global walk: partition %d delivered seq %d, expected %d (gap or duplicate)", part, rec.Seq, r.next[part])
			}
			r.next[part]++
			last = rec.Seq
		}
		switch {
		case lr.Cursor != "":
			r.cursor = lr.Cursor
		case r.owner == nil && len(lr.Records) > 0:
			// This snapshot is exhausted; a fresh walk picks up the records
			// appended since, from the next sequence number.
			r.cursor, r.from = "", last+1
		default:
			r.cursor, r.from, r.next = "", 0, nil // caught up: start over
		}
		return len(lr.Records), nil
	})
}

// auditPair audits one justified and one tampered claim drawn from the
// next chain and checks both verdicts.
func (r *reader) auditPair() {
	c := r.chain()
	good, bad := c.claims(r.rng, r.out[c.group])
	for _, cl := range []claim{good, bad} {
		kind := "audit:tampered"
		if cl.justified {
			kind = "audit:justified"
		}
		r.timed(kind, "provd", "POST /audit", func() (int, error) {
			ok, err := postAudit(r.hc, r.base, cl)
			if err != nil {
				return 0, err
			}
			if ok != cl.justified {
				return 0, fmt.Errorf("audit of %s:%s returned %v, the oracle knows %v", cl.value, cl.prov, ok, cl.justified)
			}
			return 0, nil
		})
	}
}

// prologue warms the read path (the first audit builds the store's
// merged global view) and then runs every read kind a fixed number of
// times against the preloaded log, checking every answer: pageRounds
// rounds of one page of each kind, auditRounds rounds of a justified and
// a tampered claim. Where the rounds are a workload's read metrics they
// are many — a page takes a millisecond and its cost varies with the
// principal drawn, so its median needs hundreds of samples to sit still.
func (r *reader) prologue(pageRounds, auditRounds int) *phase {
	warm := newPhase()
	r.ph = warm
	r.auditPair()
	r.shardPage()
	r.ph = newPhase()
	r.ph.notes = warm.notes
	r.ph.failed.Store(warm.failed.Load())
	for i := 0; i < max(pageRounds, auditRounds); i++ {
		if i < pageRounds {
			r.shardPage()
			if r.rcl != nil {
				r.tailPage()
			}
			r.walkPage()
		}
		if i < auditRounds {
			r.auditPair()
		}
	}
	return r.ph
}

// Prologue rounds: many where the prologue's timings are the workload's
// read metrics, few where it only warms up and checks.
const (
	measuredPageRounds  = 160
	measuredAuditRounds = 40
	checkRounds         = 8
)

// rounds picks the prologue's size: the smoke tests always check only.
func (c *config) rounds(measured int) int {
	if c.quick {
		return checkRounds
	}
	return measured
}

// newReader builds the single node's reader over the preloaded chains.
func (b *base) newReader() *reader {
	return &reader{hc: b.hc, base: b.n.httpURL, rcl: b.rcl, observer: observer,
		chains: b.pre.done, out: []string{mallory}, rng: b.rng}
}
