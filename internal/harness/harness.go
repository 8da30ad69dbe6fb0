// Package harness executes compiled scenarios (internal/scenario)
// against a real in-process cluster: max(1, Spec.Leaders) partition
// leader provds under one cluster map — store, binary ingest listener,
// HTTP app — each behind its own fault proxy, N replica provds
// following leader L0 through per-replica fault proxies, and producers
// that are internal/cluster routing clients, so each leader sees
// ordinary exactly-once provclient sessions. A one-leader map is the
// single-leader cluster. Faults come from the scenario's seeded
// schedule, so an entire run — workload, fault points, everything —
// reproduces from one printed seed.
//
// After the schedule drains, the harness checks the invariants the
// rest of the repo promises:
//
//   - per-partition spine: each leader's global sequence is
//     contiguous, no holes or duplicates;
//   - exactly-once per principal: each principal's actions,
//     concatenated across its owner history (a StaleMap epoch moves a
//     principal at most once), equal the no-fault control's, and no
//     other leader holds any of them; on one leader the store is also
//     bit-identical to the control, and each acked base matched the
//     control's as it was sent;
//   - merged read plane: a paginated cluster.Fleet walk returns exactly
//     the control's records, in per-principal order for every principal
//     that never moved;
//   - replica convergence: every replica store is bit-identical to L0;
//   - claim truth and audit parity: every Definition-3 claim gets the
//     verdict its label gives on the control, the same verdict on the
//     leader owning its principal (claims naming a moved principal are
//     skipped: that log is split across two leaders), and on every
//     replica the verdict L0 gives;
//   - session-dedup soundness: every exported session entry's sequence
//     block is backed by its leader's log, and on one leader each
//     producer's committed batch floor equals the batches it sent.
//
// The go test property suite in harness_test.go wraps it.
package harness

import (
	"crypto/tls"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provd"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testutil"
)

// Options tunes a harness run.
type Options struct {
	// Dir is the working directory for the cluster's stores; empty
	// means a fresh temp dir removed after a clean run (kept on failure
	// for inspection).
	Dir string
	// ConvergeTimeout bounds the post-schedule wait for every replica
	// to reach the leader's high-water (default 30s).
	ConvergeTimeout time.Duration
	// Logf, when set, receives progress lines (t.Logf in tests).
	Logf func(format string, args ...any)
	// Fsync opens the stores with fsync-per-batch durability.
	Fsync bool
}

// Result summarizes a completed run.
type Result struct {
	Seed          int64
	Records       uint64
	Batches       int
	Faults        map[string]int // injected, by kind
	AcksDropped   int
	ChunksDropped int
	Replays       uint64 // server-side dedup replays (acks re-served)
	Gaps          uint64 // follow-stream gaps detected by replicators
	StallBreaks   uint64 // wedged follow streams broken by the stall watchdog
	Bootstraps    uint64
	LeaderKills   int
	ReplicaKills  int
	ClaimsChecked int
	// ClaimsSkipped counts claims whose owner parity could not be
	// judged: their provenance names a principal a StaleMap epoch moved,
	// so its log is split across two leaders until shards migrate.
	ClaimsSkipped int
	// Epochs counts partition-map rollouts injected (multi-leader runs).
	Epochs  int
	Elapsed time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("seed=%d records=%d batches=%d faults=%v replays=%d gaps=%d bootstraps=%d epochs=%d claims=%d skipped=%d elapsed=%s",
		r.Seed, r.Records, r.Batches, r.Faults, r.Replays, r.Gaps, r.Bootstraps, r.Epochs,
		r.ClaimsChecked, r.ClaimsSkipped, r.Elapsed.Round(time.Millisecond))
}

// leaderNode is one partition leader provd: store + binary listener +
// HTTP app, restartable in place behind a stable proxy address. The
// binary listener runs the full mutual-TLS + identity-enforcement stack
// (clusterAuth) and serves the partition map, refusing appends for
// principals it does not own; all of it survives restarts — a
// recovered leader demands the same certificates and keeps the epoch
// the killed one held.
type leaderNode struct {
	dir     string
	sopts   store.Options
	tlsConf *tls.Config
	guard   *auth.Guard
	cnode   *cluster.Node
	st      *store.Store
	app     *provd.Server
	ing     *ingest.Server
	http    *httptest.Server
	addr    string
	// replays accumulates DedupReplays across restarts (Stats reset
	// with the listener).
	replays uint64
}

// serveHTTP serves app on a loopback test server with its connection
// counter wired, as cmd/provd wires it.
func serveHTTP(app *provd.Server) *httptest.Server {
	ts := httptest.NewUnstartedServer(app)
	ts.Config.ConnState = app.ConnState
	ts.Start()
	return ts
}

func (n *leaderNode) start() error {
	st, err := store.Open(n.dir, n.sopts)
	if err != nil {
		return fmt.Errorf("leader store: %w", err)
	}
	app := provd.NewServer(st, nil)
	app.SetAuth(n.guard)
	app.SetCluster(n.cnode)
	ing := ingest.NewServer(st, ingest.Options{Engine: app.Engine(), TLS: n.tlsConf, Auth: n.guard, Cluster: n.cnode})
	addr, err := ing.Listen("127.0.0.1:0")
	if err != nil {
		st.Close()
		return fmt.Errorf("leader listen: %w", err)
	}
	app.AttachIngest(ing)
	n.st, n.app, n.ing, n.addr = st, app, ing, addr
	n.http = serveHTTP(app)
	return nil
}

// restart is the KillLeader fault: drain the listener, close the
// store, recover both — session table included — from disk on a fresh
// port.
func (n *leaderNode) restart() error {
	n.replays += n.ing.Stats().DedupReplays
	n.http.Close()
	n.ing.Close()
	if err := n.st.Close(); err != nil {
		return fmt.Errorf("leader close: %w", err)
	}
	return n.start()
}

func (n *leaderNode) stop() {
	n.replays += n.ing.Stats().DedupReplays
	n.http.Close()
	n.ing.Close()
	n.st.Close()
}

// replicaNode is one replica provd: store + replicator (following the
// leader through its own fault proxy) + HTTP app.
type replicaNode struct {
	dir     string
	sopts   store.Options
	proxy   *testutil.Proxy
	tlsConf *tls.Config // replica client identity toward its proxy
	logf    func(string, ...any)

	st   *store.Store
	rep  *replica.Replicator
	app  *provd.Server
	http *httptest.Server
	// counters survive restarts.
	gaps        uint64
	bootstraps  uint64
	stallBreaks uint64
}

func (n *replicaNode) start() error {
	st, err := store.Open(n.dir, n.sopts)
	if err != nil {
		return fmt.Errorf("replica store: %w", err)
	}
	rep := replica.New(st, n.proxy.Addr(), replica.Options{
		PollInterval:  25 * time.Millisecond,
		ResyncBackoff: 20 * time.Millisecond,
		Logf:          n.logf,
		TLS:           n.tlsConf,
	})
	app := provd.NewServer(st, nil)
	app.SetReplica(rep, "")
	n.st, n.rep, n.app = st, rep, app
	n.http = serveHTTP(app)
	rep.Start()
	return nil
}

func (n *replicaNode) harvest() {
	s := n.rep.Status()
	n.gaps += s.Gaps
	n.bootstraps += s.Bootstraps
	n.stallBreaks += s.StallBreaks
}

// restart is the KillReplica fault: stop the replicator, close the
// store, reopen, resume from the durable high-water.
func (n *replicaNode) restart() error {
	n.harvest()
	n.http.Close()
	n.rep.Stop()
	if err := n.st.Close(); err != nil {
		return fmt.Errorf("replica close: %w", err)
	}
	return n.start()
}

func (n *replicaNode) stop() {
	n.harvest()
	n.http.Close()
	n.rep.Stop()
	n.st.Close()
}

// clusterAuth is the security material one harness run shares: a fresh
// CA, the leaders' mutual-TLS server config, client identities for the
// producers and replicas, and the identity map both surfaces enforce.
type clusterAuth struct {
	server   *tls.Config // leader listeners + proxy client-facing side
	producer *tls.Config // append-only client identity
	replica  *tls.Config // read+replica client identity
	guard    *auth.Guard
}

func newClusterAuth() (*clusterAuth, error) {
	ca, err := testutil.NewTestCA()
	if err != nil {
		return nil, err
	}
	server, err := ca.ServerConfig("leader")
	if err != nil {
		return nil, err
	}
	producer, err := ca.ClientConfig("producer")
	if err != nil {
		return nil, err
	}
	replicaConf, err := ca.ClientConfig("replica")
	if err != nil {
		return nil, err
	}
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "producer", Principals: []string{"*"}, Roles: auth.RoleAppend}, ""); err != nil {
		return nil, err
	}
	if err := m.Add(auth.Grant{Name: "replica", Roles: auth.RoleRead | auth.RoleReplica}, ""); err != nil {
		return nil, err
	}
	return &clusterAuth{server: server, producer: producer, replica: replicaConf, guard: auth.NewGuard(m)}, nil
}

// Run executes one compiled scenario and checks every invariant. A
// non-nil error always embeds the scenario seed.
func Run(sc *scenario.Scenario, opts Options) (*Result, error) {
	res, err := run(sc, opts)
	if err != nil {
		return res, fmt.Errorf("seed %d: %w", sc.Seed, err)
	}
	return res, nil
}

func run(sc *scenario.Scenario, opts Options) (*Result, error) {
	start := time.Now()
	if opts.ConvergeTimeout <= 0 {
		opts.ConvergeTimeout = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "harness-")
		if err != nil {
			return nil, err
		}
		dir = d
	}
	res := &Result{Seed: sc.Seed, Batches: len(sc.Batches), Faults: make(map[string]int)}
	sopts := store.Options{Fsync: opts.Fsync}

	// The whole binary surface runs the production security stack: a
	// fresh per-run CA, mutual TLS on every listener, and identity
	// enforcement — producers hold an append-only grant, replicas a
	// read+replica grant. Every invariant below is therefore also a
	// claim about the secured cluster: exactly-once through TLS
	// reconnects, convergence through replica-role snapshot and follow.
	sec, err := newClusterAuth()
	if err != nil {
		return nil, err
	}

	// The no-fault control: the same batches applied directly, in the
	// same order. Exactly-once means the faulted fleet ends up holding
	// exactly this.
	control, err := store.Open(filepath.Join(dir, "control"), sopts)
	if err != nil {
		return nil, err
	}
	defer control.Close()

	// Leaders first. Ownership is a pure function of (epoch, leader IDs,
	// overrides) — addresses don't enter the hash — so the nodes boot on
	// a placeholder map and learn the real proxy addresses right after.
	// Each leader sits behind its own proxy, which terminates TLS
	// (serving the leader's identity, re-dialing with the producer's) so
	// the fault relay sees plaintext frames and the map address stays
	// stable across restarts.
	L := max(1, sc.Spec.Leaders)
	mkMap := func(epoch uint64, addrs []string, overrides map[string]int) (*cluster.Map, error) {
		ls := make([]cluster.Leader, L)
		for i := range ls {
			ls[i] = cluster.Leader{ID: fmt.Sprintf("L%d", i), Ingest: addrs[i], TLSName: "leader"}
		}
		ov := make(map[string]int, len(overrides))
		for p, idx := range overrides {
			ov[p] = idx
		}
		m := &cluster.Map{Epoch: epoch, Leaders: ls, Overrides: ov}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	}
	addrs := make([]string, L)
	for i := range addrs {
		addrs[i] = "boot.invalid:0"
	}
	m, err := mkMap(1, addrs, nil)
	if err != nil {
		return nil, err
	}
	leaders := make([]*leaderNode, L)
	proxies := make([]*testutil.Proxy, L)
	for i := range leaders {
		id := m.Leaders[i].ID
		cnode, err := cluster.NewNode(m, id)
		if err != nil {
			return nil, err
		}
		n := &leaderNode{
			dir: filepath.Join(dir, "leader"+id), sopts: sopts,
			tlsConf: sec.server, guard: sec.guard, cnode: cnode,
		}
		if err := n.start(); err != nil {
			return nil, err
		}
		defer n.stop()
		leaders[i] = n
		if proxies[i], err = testutil.NewProxyTLS(n.addr, sec.server, sec.producer); err != nil {
			return nil, err
		}
		defer proxies[i].Close()
		addrs[i] = proxies[i].Addr()
	}
	epoch := uint64(1)
	overrides := make(map[string]int)
	if m, err = mkMap(epoch, addrs, overrides); err != nil {
		return nil, err
	}
	setMap := func(nm *cluster.Map) error {
		for _, n := range leaders {
			if err := n.cnode.SetMap(nm); err != nil {
				return err
			}
		}
		m = nm
		return nil
	}
	if err := setMap(m); err != nil {
		return nil, err
	}

	// Replicas follow L0, each through its own proxy, so partitions and
	// gaps target one replica without disturbing the rest of the fleet.
	replicas := make([]*replicaNode, sc.Spec.Replicas)
	for i := range replicas {
		proxy, err := testutil.NewProxyTLS(leaders[0].addr, sec.server, sec.replica)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		r := &replicaNode{dir: filepath.Join(dir, fmt.Sprintf("replica%d", i)), sopts: sopts, proxy: proxy, tlsConf: sec.replica, logf: logf}
		if err := r.start(); err != nil {
			return nil, err
		}
		defer r.stop()
		replicas[i] = r
	}

	// Producers: routing clients whose per-leader sessions
	// ("<session>@L<i>") are exactly-once provclient sessions. The driver
	// never retries a batch itself — a second Append would mint a fresh
	// session batch sequence and double-append; all retrying happens
	// inside the client, where the replay keeps its original sequence.
	// They hold the epoch-1 map: StaleMap rollouts update only the
	// leaders, so producers must recover in-band.
	producers := make([]*cluster.Client, sc.Spec.Producers)
	sent := make([]uint64, sc.Spec.Producers)
	for p := range producers {
		producers[p] = cluster.NewClient(m, cluster.ClientOptions{
			Conns:          1,
			Retries:        8,
			RequestTimeout: 10 * time.Second,
			Session:        fmt.Sprintf("sim-%d-p%d", sc.Seed, p),
			TLS:            sec.producer,
		})
		defer producers[p].Close()
	}

	// movedFrom/movedTo track each re-homed principal's owner history
	// (the compiler moves a principal at most once).
	movedFrom := make(map[string]int)
	movedTo := make(map[string]int)
	inject := func(f scenario.Fault) error {
		res.Faults[f.Kind.String()]++
		logf("batch %d: inject %s target=%d", f.Batch, f.Kind, f.Target)
		switch f.Kind {
		case scenario.DropAck:
			// On the proxy of the leader owning the batch's first action,
			// so the drop fires on this batch's ack.
			proxies[m.Owner(sc.Batches[f.Batch].Acts[0].Principal)].ArmAckDrop()
		case scenario.DropConn:
			for _, p := range proxies {
				p.CutConns()
			}
		case scenario.KillLeader:
			res.LeaderKills++
			t := f.Target
			if t < 0 || t >= L {
				t = 0
			}
			if err := leaders[t].restart(); err != nil {
				return err
			}
			proxies[t].SetBackend(leaders[t].addr)
			proxies[t].CutConns()
			if t == 0 {
				for _, r := range replicas {
					r.proxy.SetBackend(leaders[0].addr)
					r.proxy.CutConns()
				}
			}
		case scenario.KillReplica:
			res.ReplicaKills++
			return replicas[f.Target].restart()
		case scenario.Partition:
			replicas[f.Target].proxy.Partition()
		case scenario.Heal:
			replicas[f.Target].proxy.Heal()
		case scenario.Gap:
			replicas[f.Target].proxy.ArmChunkDrop()
		case scenario.StaleMap:
			p := scenario.PrincipalName(f.Target)
			old := m.Owner(p)
			overrides[p] = (old + 1) % L
			movedFrom[p], movedTo[p] = old, overrides[p]
			epoch++
			nm, err := mkMap(epoch, addrs, overrides)
			if err != nil {
				return err
			}
			if err := setMap(nm); err != nil {
				return err
			}
			res.Epochs++
			logf("batch %d: epoch %d moves %s L%d→L%d", f.Batch, epoch, p, old, overrides[p])
		}
		return nil
	}

	// Drive the schedule: faults due before batch b, then batch b on
	// its producer, with the control store appended in lockstep. On one
	// leader the acked base must match the control's — a divergence is
	// an exactly-once violation caught at its first symptom. Partitions
	// mint independent spines, so there exactly-once is proven per
	// principal after the drain.
	next := 0
	for b, batch := range sc.Batches {
		for next < len(sc.Faults) && sc.Faults[next].Batch <= b {
			if err := inject(sc.Faults[next]); err != nil {
				return res, err
			}
			next++
		}
		wantBase, err := control.AppendBatch(batch.Acts)
		if err != nil {
			return res, fmt.Errorf("control append %d: %w", b, err)
		}
		acks, err := producers[batch.Producer].Append(batch.Acts)
		if err != nil {
			return res, fmt.Errorf("batch %d (producer %d): %w", b, batch.Producer, err)
		}
		sent[batch.Producer]++
		if L == 1 && (len(acks) != 1 || acks[0].Base != wantBase) {
			return res, fmt.Errorf("batch %d: acked %+v, control base %d — duplicate or lost batch", b, acks, wantBase)
		}
	}
	// Trailing faults (final heals; anything scheduled past the last
	// batch).
	for ; next < len(sc.Faults); next++ {
		if err := inject(sc.Faults[next]); err != nil {
			return res, err
		}
	}
	for _, p := range producers {
		if err := p.Close(); err != nil {
			return res, fmt.Errorf("producer close: %w", err)
		}
	}

	// Invariant gauntlet. Totals first: the fleet as a whole holds
	// exactly the workload.
	for _, n := range leaders {
		res.Records += n.st.NextSeq()
	}
	if want := control.NextSeq(); res.Records != want {
		return res, fmt.Errorf("fleet holds %d records, control %d — lost or duplicated batch", res.Records, want)
	}
	// Per-partition spine and session soundness.
	for i, n := range leaders {
		if err := testutil.CheckSpine(n.st); err != nil {
			return res, fmt.Errorf("leader %d spine: %w", i, err)
		}
		if err := testutil.BackedSessionEntries(n.st); err != nil {
			return res, fmt.Errorf("leader %d session table: %w", i, err)
		}
	}
	if L == 1 {
		// One spine: bit-identical to the control, and each producer's
		// durable floor is exactly the batches it sent (nothing lost,
		// nothing double-counted).
		if err := testutil.DiffStores(control, leaders[0].st); err != nil {
			return res, fmt.Errorf("exactly-once violated (leader vs control): %w", err)
		}
		for p, pc := range producers {
			if got := leaders[0].st.Sessions().Max(pc.Session() + "@" + m.Leaders[0].ID); got != sent[p] {
				return res, fmt.Errorf("producer %d: committed floor %d, sent %d batches", p, got, sent[p])
			}
		}
	}
	// Exactly-once per principal, across the owner history.
	perLeader := make([]map[string][]logs.Action, L)
	for i, n := range leaders {
		perLeader[i] = actionsByPrincipal(n.st)
	}
	want := actionsByPrincipal(control)
	for pi := 0; pi < sc.Spec.Principals; pi++ {
		p := scenario.PrincipalName(pi)
		holders := []int{m.Owner(p)}
		if from, ok := movedFrom[p]; ok {
			holders = []int{from, movedTo[p]}
		}
		var got []logs.Action
		for _, h := range holders {
			got = append(got, perLeader[h][p]...)
		}
		if err := sameActions(got, want[p]); err != nil {
			return res, fmt.Errorf("principal %s (leaders %v): %w", p, holders, err)
		}
		for i := range leaders {
			if i != holders[0] && i != holders[len(holders)-1] && len(perLeader[i][p]) > 0 {
				return res, fmt.Errorf("principal %s: %d stray records on non-owner leader %d", p, len(perLeader[i][p]), i)
			}
		}
	}
	// Merged read plane: a paginated Fleet walk (read identity, direct
	// leader addresses — the proxies re-dial with the producer's
	// append-only cert) returns the control's exact records.
	readAddrs := make([]string, L)
	for i, n := range leaders {
		readAddrs[i] = n.addr
	}
	readMap, err := mkMap(epoch, readAddrs, overrides)
	if err != nil {
		return res, err
	}
	rc := cluster.NewClient(readMap, cluster.ClientOptions{
		Conns: 1, RequestTimeout: 10 * time.Second, TLS: sec.replica,
	})
	defer rc.Close()
	merged, err := walkMerged(cluster.NewFleet(rc))
	if err != nil {
		return res, fmt.Errorf("merged walk: %w", err)
	}
	if err := checkMerged(merged, want, sc.Spec.Principals, movedFrom); err != nil {
		return res, err
	}
	// Replica convergence: records bit-identical to L0.
	for i, r := range replicas {
		if err := testutil.WaitForSeq(r.st, leaders[0].st.NextSeq(), opts.ConvergeTimeout); err != nil {
			return res, fmt.Errorf("replica %d did not converge: %w (status %+v)", i, err, r.rep.Status())
		}
		if err := testutil.DiffStores(leaders[0].st, r.st); err != nil {
			return res, fmt.Errorf("replica %d diverged: %w", i, err)
		}
	}
	// Claim truth, then Definition-3 audit parity: the control gives
	// each claim the verdict its label names, the leader owning the
	// claim's principal gives the same one, and every replica gives
	// L0's.
	for ci, claim := range sc.Claims {
		verdict := func(st *store.Store) bool { return st.AuditTerm(claim.Term, claim.Prov) == nil }
		if got := verdict(control); got != claim.Genuine {
			return res, fmt.Errorf("claim %d (%s:%s): control verdict %v, labelled genuine=%v", ci, claim.Term, claim.Prov, got, claim.Genuine)
		}
		l0 := verdict(leaders[0].st)
		for i, r := range replicas {
			if got := verdict(r.st); got != l0 {
				return res, fmt.Errorf("claim %d (%s:%s): replica %d verdict %v, L0 %v", ci, claim.Term, claim.Prov, i, got, l0)
			}
		}
		p := claim.Prov[0].Principal
		if _, moved := movedFrom[p]; moved {
			res.ClaimsSkipped++
			continue
		}
		if got := verdict(leaders[m.Owner(p)].st); got != claim.Genuine {
			return res, fmt.Errorf("claim %d (%s:%s): owner L%d verdict %v, control %v", ci, claim.Term, claim.Prov, m.Owner(p), got, claim.Genuine)
		}
		res.ClaimsChecked++
	}
	// The provd app layer really serves on every node.
	for i, n := range leaders {
		if err := healthy(n.http.URL); err != nil {
			return res, fmt.Errorf("leader %d: %w", i, err)
		}
		res.AcksDropped += proxies[i].AcksDropped()
		res.Replays += n.replays + n.ing.Stats().DedupReplays
	}
	for i, r := range replicas {
		if err := healthy(r.http.URL); err != nil {
			return res, fmt.Errorf("replica %d: %w", i, err)
		}
		res.ChunksDropped += r.proxy.ChunksDropped()
		s := r.rep.Status()
		res.Gaps += r.gaps + s.Gaps
		res.Bootstraps += r.bootstraps + s.Bootstraps
		res.StallBreaks += r.stallBreaks + s.StallBreaks
	}
	res.Elapsed = time.Since(start)
	if opts.Dir == "" {
		// Only a clean run discards its state; failures return above and
		// leave the stores for inspection.
		defer os.RemoveAll(dir)
	}
	return res, nil
}

func healthy(url string) error {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// actionsByPrincipal walks a store's global log and buckets actions by
// principal, preserving the store's append order. Sequence numbers are
// deliberately dropped: partition spines are independent, so only the
// action sequences are comparable across stores.
func actionsByPrincipal(st *store.Store) map[string][]logs.Action {
	out := make(map[string][]logs.Action)
	var from uint64
	for {
		recs := st.ScanGlobal(from, 0, 4096)
		if len(recs) == 0 {
			return out
		}
		for _, r := range recs {
			out[r.Act.Principal] = append(out[r.Act.Principal], r.Act)
		}
		from = recs[len(recs)-1].Seq + 1
	}
}

func sameActions(got, want []logs.Action) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, control has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d differs: %+v vs control %+v", i, got[i], want[i])
		}
	}
	return nil
}

// walkMerged pages the fleet's merged global feed to exhaustion using
// the vector cursor, exactly as an external reader would.
func walkMerged(fleet *cluster.Fleet) ([]logs.Action, error) {
	var out []logs.Action
	q := query.Query{Limit: 512}
	for {
		pg, err := fleet.Run(q)
		if err != nil {
			return nil, err
		}
		for _, r := range pg.Records {
			out = append(out, r.Act)
		}
		if len(pg.Records) == 0 || pg.Cursor == "" {
			return out, nil
		}
		q.Cursor = pg.Cursor
	}
}

// checkMerged proves the merged read plane returned exactly the
// control's actions (want, by principal) — nothing lost, nothing
// duplicated — and preserved per-principal order for every principal
// that never changed owner (a moved principal's two segments interleave
// by per-leader sequence, which has no cross-partition meaning).
func checkMerged(merged []logs.Action, want map[string][]logs.Action, principals int, movedFrom map[string]int) error {
	got := make(map[string][]logs.Action)
	for _, a := range merged {
		got[a.Principal] = append(got[a.Principal], a)
	}
	total := 0
	for pi := 0; pi < principals; pi++ {
		p := scenario.PrincipalName(pi)
		total += len(want[p])
		check := sameActions
		if _, moved := movedFrom[p]; moved {
			check = sameMultiset
		}
		if err := check(got[p], want[p]); err != nil {
			return fmt.Errorf("merged feed, principal %s: %w", p, err)
		}
	}
	if len(merged) != total {
		return fmt.Errorf("merged feed returned %d records, control holds %d", len(merged), total)
	}
	return nil
}

func sameMultiset(got, want []logs.Action) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, control has %d", len(got), len(want))
	}
	counts := make(map[logs.Action]int, len(want))
	for _, a := range want {
		counts[a]++
	}
	for _, a := range got {
		counts[a]--
		if counts[a] < 0 {
			return fmt.Errorf("record %+v appears more often than in control", a)
		}
	}
	return nil
}
