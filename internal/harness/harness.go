// Package harness executes compiled scenarios (internal/scenario)
// against a real in-process cluster: a leader provd — store, binary
// ingest listener, HTTP app — plus N replica provds following through
// per-replica fault proxies, driven by exactly-once provclient
// sessions. Faults come from the scenario's seeded schedule, so an
// entire run — workload, fault points, everything — reproduces from
// one printed seed.
//
// After the schedule drains, the harness checks the invariants the
// rest of the repo promises:
//
//   - exactly-once: the leader store is bit-identical to a no-fault
//     control run of the same workload;
//   - monotone spine: the global sequence is contiguous, no holes or
//     duplicates;
//   - replica convergence: every replica store is bit-identical to
//     the leader;
//   - audit parity: every Definition-3 claim gets the same verdict on
//     the control store, the leader, and every replica;
//   - session-dedup soundness: each producer's committed batch floor
//     equals the batches it sent, and every exported session entry's
//     sequence block is backed by the log.
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
	"repro/internal/provclient"
	"repro/internal/provd"
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
	// ClaimsSkipped counts claims a partitioned run could not judge for
	// parity: their provenance names a principal a StaleMap epoch moved,
	// so its log is split across two leaders until shards migrate.
	ClaimsSkipped int
	// Epochs counts partition-map rollouts injected (multi-leader runs).
	Epochs  int
	Elapsed time.Duration
}

func (r *Result) String() string {
	return fmt.Sprintf("seed=%d records=%d batches=%d faults=%v replays=%d gaps=%d bootstraps=%d elapsed=%s",
		r.Seed, r.Records, r.Batches, r.Faults, r.Replays, r.Gaps, r.Bootstraps, r.Elapsed.Round(time.Millisecond))
}

// leaderNode is the leader provd: store + binary listener + HTTP app,
// restartable in place behind stable proxy addresses. The binary
// listener runs the full mutual-TLS + identity-enforcement stack
// (clusterAuth), surviving restarts — a recovered leader demands the
// same certificates the killed one did.
type leaderNode struct {
	dir     string
	sopts   store.Options
	tlsConf *tls.Config
	guard   *auth.Guard
	// cnode, when set, makes this leader one partition of a multi-leader
	// fleet: the listener serves the partition map and refuses appends
	// for principals it does not own. The node survives restarts — a
	// recovered leader keeps the epoch it held when killed.
	cnode *cluster.Node
	st    *store.Store
	app   *provd.Server
	ing   *ingest.Server
	http  *httptest.Server
	addr  string
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

func startLeader(dir string, sopts store.Options, tlsConf *tls.Config, guard *auth.Guard) (*leaderNode, error) {
	n := &leaderNode{dir: dir, sopts: sopts, tlsConf: tlsConf, guard: guard}
	if err := n.start(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *leaderNode) start() error {
	st, err := store.Open(n.dir, n.sopts)
	if err != nil {
		return fmt.Errorf("leader store: %w", err)
	}
	app := provd.NewServer(st, nil)
	app.SetAuth(n.guard)
	iopts := ingest.Options{Engine: app.Engine(), TLS: n.tlsConf, Auth: n.guard}
	if n.cnode != nil {
		iopts.Cluster = n.cnode
		app.SetCluster(n.cnode)
	}
	ing := ingest.NewServer(st, iopts)
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

func startReplica(dir string, sopts store.Options, proxy *testutil.Proxy, tlsConf *tls.Config, logf func(string, ...any)) (*replicaNode, error) {
	n := &replicaNode{dir: dir, sopts: sopts, proxy: proxy, tlsConf: tlsConf, logf: logf}
	if err := n.start(); err != nil {
		return nil, err
	}
	return n, nil
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
// CA, the leader's mutual-TLS server config, client identities for the
// producers and replicas, and the identity map both surfaces enforce.
type clusterAuth struct {
	server   *tls.Config // leader listener + proxy client-facing side
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

// Run executes one compiled scenario and checks every invariant.
// Specs with Leaders > 1 run the partitioned multi-leader path
// (partitioned.go); everything else runs the single-leader cluster.
// A non-nil error always embeds the scenario seed.
func Run(sc *scenario.Scenario, opts Options) (*Result, error) {
	exec := run
	if sc.Spec.Leaders > 1 {
		exec = runPartitioned
	}
	res, err := exec(sc, opts)
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
	// fresh per-run CA, mutual TLS on the listener, and identity
	// enforcement — producers hold an append-only grant, replicas a
	// read+replica grant. Every invariant below is therefore also a
	// claim about the secured cluster: exactly-once through TLS
	// reconnects, convergence through replica-role snapshot and follow.
	sec, err := newClusterAuth()
	if err != nil {
		return nil, err
	}

	// The no-fault control: the same batches applied directly, in the
	// same order. Exactly-once means the faulted cluster ends up
	// bit-identical to this.
	control, err := store.Open(filepath.Join(dir, "control"), sopts)
	if err != nil {
		return nil, err
	}
	defer control.Close()

	leader, err := startLeader(filepath.Join(dir, "leader"), sopts, sec.server, sec.guard)
	if err != nil {
		return nil, err
	}
	defer func() { leader.stop() }()

	// Producers dial the leader through one shared proxy; each replica
	// follows through its own, so partitions and gaps target one
	// replica without disturbing the rest of the cluster. The proxies
	// terminate TLS (serving the leader's identity, re-dialing with the
	// client's) so the fault relay still sees plaintext frames.
	leaderProxy, err := testutil.NewProxyTLS(leader.addr, sec.server, sec.producer)
	if err != nil {
		return nil, err
	}
	defer leaderProxy.Close()

	replicas := make([]*replicaNode, sc.Spec.Replicas)
	for i := range replicas {
		proxy, err := testutil.NewProxyTLS(leader.addr, sec.server, sec.replica)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		r, err := startReplica(filepath.Join(dir, fmt.Sprintf("replica%d", i)), sopts, proxy, sec.replica, logf)
		if err != nil {
			return nil, err
		}
		defer func() { r.stop() }()
		replicas[i] = r
	}

	// Exactly-once producer sessions. The driver never retries a batch
	// itself — a second AppendBatch call would mint a fresh session
	// batch sequence and double-append; all retrying happens inside the
	// client, where the replay keeps its original batch sequence.
	producers := make([]*provclient.Client, sc.Spec.Producers)
	sent := make([]uint64, sc.Spec.Producers)
	for p := range producers {
		producers[p] = provclient.New(leaderProxy.Addr(), provclient.Options{
			Conns:          1,
			Retries:        8,
			RequestTimeout: 10 * time.Second,
			Session:        fmt.Sprintf("sim-%d-p%d", sc.Seed, p),
			TLSConfig:      sec.producer,
		})
		defer producers[p].Close()
	}

	inject := func(f scenario.Fault) error {
		res.Faults[f.Kind.String()]++
		logf("batch %d: inject %s target=%d", f.Batch, f.Kind, f.Target)
		switch f.Kind {
		case scenario.DropAck:
			leaderProxy.ArmAckDrop()
		case scenario.DropConn:
			leaderProxy.CutConns()
		case scenario.KillLeader:
			res.LeaderKills++
			if err := leader.restart(); err != nil {
				return err
			}
			leaderProxy.SetBackend(leader.addr)
			leaderProxy.CutConns()
			for _, r := range replicas {
				r.proxy.SetBackend(leader.addr)
				r.proxy.CutConns()
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
		}
		return nil
	}

	// Drive the schedule: faults due before batch b, then batch b on
	// its producer, with the control store appended in lockstep. The
	// acked base must match the control's — a divergence here is an
	// exactly-once violation caught at its first symptom.
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
		base, err := producers[batch.Producer].AppendBatch(batch.Acts)
		if err != nil {
			return res, fmt.Errorf("batch %d (producer %d): %w", b, batch.Producer, err)
		}
		sent[batch.Producer]++
		if base != wantBase {
			return res, fmt.Errorf("batch %d: acked base %d, control %d — duplicate or lost batch", b, base, wantBase)
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

	// Convergence, then the invariant gauntlet.
	high := leader.st.NextSeq()
	res.Records = high
	for i, r := range replicas {
		if err := testutil.WaitForSeq(r.st, high, opts.ConvergeTimeout); err != nil {
			return res, fmt.Errorf("replica %d did not converge: %w (status %+v)", i, err, r.rep.Status())
		}
	}

	// Exactly-once: bit-identical to the no-fault control.
	if err := testutil.DiffStores(control, leader.st); err != nil {
		return res, fmt.Errorf("exactly-once violated (leader vs control): %w", err)
	}
	// Monotone global-seq spine.
	if err := testutil.CheckSpine(leader.st); err != nil {
		return res, fmt.Errorf("leader spine: %w", err)
	}
	// Replica convergence: records bit-identical to the leader.
	for i, r := range replicas {
		if err := testutil.DiffStores(leader.st, r.st); err != nil {
			return res, fmt.Errorf("replica %d diverged: %w", i, err)
		}
	}
	// Definition-3 audit parity: every claim gets one verdict,
	// everywhere.
	for ci, claim := range sc.Claims {
		want := control.AuditTerm(claim.Term, claim.Prov) == nil
		if got := leader.st.AuditTerm(claim.Term, claim.Prov) == nil; got != want {
			return res, fmt.Errorf("claim %d (%s): leader verdict %v, control %v", ci, claim.Term, got, want)
		}
		for i, r := range replicas {
			if got := r.st.AuditTerm(claim.Term, claim.Prov) == nil; got != want {
				return res, fmt.Errorf("claim %d (%s): replica %d verdict %v, control %v", ci, claim.Term, i, got, want)
			}
		}
		res.ClaimsChecked++
	}
	// Session-dedup soundness: each producer's durable floor is exactly
	// the batches it sent (nothing lost, nothing double-counted), and
	// every exported session block is backed by the log.
	for p := range producers {
		session := producers[p].Session()
		if got := leader.st.Sessions().Max(session); got != sent[p] {
			return res, fmt.Errorf("producer %d: committed floor %d, sent %d batches", p, got, sent[p])
		}
	}
	if err := testutil.BackedSessionEntries(leader.st); err != nil {
		return res, fmt.Errorf("leader session table: %w", err)
	}
	// The provd app layer really serves on every node.
	for i, url := range append([]string{leader.http.URL}, replicaURLs(replicas)...) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			return res, fmt.Errorf("node %d healthz: %w", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("node %d healthz: status %d", i, resp.StatusCode)
		}
	}

	res.AcksDropped = leaderProxy.AcksDropped()
	res.Replays = leader.replays + leader.ing.Stats().DedupReplays
	for _, r := range replicas {
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

func replicaURLs(rs []*replicaNode) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.http.URL
	}
	return out
}
