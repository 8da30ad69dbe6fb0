package main

import (
	"bytes"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/provd"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/testutil"
	"repro/internal/trust"
)

// In-process nodes wired the way cmd/provd wires them: one store, the
// HTTP app and the binary listener sharing one query engine, mutual TLS
// on both surfaces and one auth.Guard enforcing the identity map.

// observer is the name reads are redacted for under the -hide policy.
const observer = "auditor"

// security is the key material and identity map one run shares. The
// identities mirror a production auth map: producers may only append,
// readers only read (choosing their observer), replicas pull snapshots
// and unredacted follows, and the coordinator routes both ways.
type security struct {
	server      *tls.Config
	producer    *tls.Config
	reader      *tls.Config
	replica     *tls.Config
	coordinator *tls.Config
	guard       *auth.Guard
}

func newSecurity() (*security, error) {
	ca, err := testutil.NewTestCA()
	if err != nil {
		return nil, err
	}
	s := &security{}
	if s.server, err = ca.ServerConfig("leader"); err != nil {
		return nil, err
	}
	if s.producer, err = ca.ClientConfig("producer"); err != nil {
		return nil, err
	}
	if s.reader, err = ca.ClientConfig("reader"); err != nil {
		return nil, err
	}
	if s.replica, err = ca.ClientConfig("replica"); err != nil {
		return nil, err
	}
	if s.coordinator, err = ca.ClientConfig("coordinator"); err != nil {
		return nil, err
	}
	m := auth.NewMap()
	for _, g := range []auth.Grant{
		{Name: "producer", Principals: []string{"*"}, Roles: auth.RoleAppend},
		{Name: "reader", Observer: "*", Roles: auth.RoleRead},
		{Name: "replica", Roles: auth.RoleRead | auth.RoleReplica},
		{Name: "coordinator", Principals: []string{"*"}, Observer: "*", Roles: auth.RoleAppend | auth.RoleRead},
	} {
		if err := m.Add(g, ""); err != nil {
			return nil, err
		}
	}
	s.guard = auth.NewGuard(m)
	return s, nil
}

// hidePolicy hides every 16th principal's actions from the observer, so
// redacted reads have something to redact.
func hidePolicy(principals []string) *trust.DisclosurePolicy {
	p := trust.NewDisclosurePolicy()
	for i := 0; i < len(principals); i += 16 {
		p.HideFrom(principals[i], observer)
	}
	return p
}

// node is one provd: store + HTTP app + binary listener.
type node struct {
	dir      string
	st       *store.Store
	app      *provd.Server
	ing      *ingest.Server
	http     *http.Server
	httpURL  string
	ingest   string
	recoverS float64 // how long store.Open took on the directory
}

// startNode opens dir and serves it. sec nil serves cleartext without
// an auth map (the ladder's lower rungs); cnode makes it a partition
// leader.
func startNode(dir string, sopts store.Options, sec *security, policy *trust.DisclosurePolicy, cnode *cluster.Node) (*node, error) {
	runtime.GC() // so that no collection of earlier garbage lands inside the timed Open
	t0 := time.Now()
	st, err := store.Open(dir, sopts)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	n := &node{dir: dir, st: st, recoverS: time.Since(t0).Seconds()}
	n.app = provd.NewServer(st, policy)
	iopts := ingest.Options{Engine: n.app.Engine()}
	var serverTLS *tls.Config
	if sec != nil {
		serverTLS = sec.server
		n.app.SetAuth(sec.guard)
		iopts.TLS, iopts.Auth = sec.server, sec.guard
	}
	if cnode != nil {
		n.app.SetCluster(cnode)
		iopts.Cluster = cnode
	}
	n.ing = ingest.NewServer(st, iopts)
	if n.ingest, err = n.ing.Listen("127.0.0.1:0"); err != nil {
		st.Close()
		return nil, fmt.Errorf("binary listener: %w", err)
	}
	n.app.AttachIngest(n.ing)
	if n.http, n.httpURL, err = serveHTTP(n.app, serverTLS); err != nil {
		n.ing.Close()
		st.Close()
		return nil, err
	}
	return n, nil
}

// serveHTTP serves h on a loopback port, over TLS when conf is set.
func serveHTTP(h http.Handler, conf *tls.Config) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("http listener: %w", err)
	}
	srv := &http.Server{Handler: h}
	scheme := "http"
	if conf != nil {
		// net/http edits the config it is given (HTTP/2's NextProtos), and
		// the nodes of a fleet share one: each server gets its own copy.
		srv.TLSConfig = conf.Clone()
		scheme = "https"
		go srv.ServeTLS(l, "", "")
	} else {
		go srv.Serve(l)
	}
	return srv, scheme + "://" + l.Addr().String(), nil
}

// stop shuts the node down in provd's order: HTTP, binary drain, store.
func (n *node) stop() error {
	n.http.Close()
	n.ing.Close()
	return n.st.Close()
}

// httpClient is a keep-alive HTTPS client presenting one identity: one
// connection, reused.
func httpClient(conf *tls.Config) *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if conf != nil {
		tr.TLSClientConfig = conf.Clone()
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// getLog fetches one /log or /log/{principal} page and decodes it.
func getLog(hc *http.Client, base, principal string, params url.Values) (provd.LogResponse, error) {
	u := base + "/log"
	if principal != "" {
		u += "/" + url.PathEscape(principal)
	}
	resp, err := hc.Get(u + "?" + params.Encode())
	if err != nil {
		return provd.LogResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return provd.LogResponse{}, fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	var lr provd.LogResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return provd.LogResponse{}, err
	}
	return lr, nil
}

func eventDTOs(k syntax.Prov) []provd.EventDTO {
	out := make([]provd.EventDTO, len(k))
	for i, e := range k {
		dir := "!"
		if e.Dir == syntax.Recv {
			dir = "?"
		}
		out[i] = provd.EventDTO{Principal: e.Principal, Dir: dir}
	}
	return out
}

// postAudit submits one claim to /audit and returns the verdict.
func postAudit(hc *http.Client, base string, c claim) (bool, error) {
	body, err := json.Marshal(provd.AuditRequest{Value: c.value, Prov: eventDTOs(c.prov)})
	if err != nil {
		return false, err
	}
	resp, err := hc.Post(base+"/audit", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("POST /audit: %s: %s", resp.Status, msg)
	}
	var ar provd.AuditResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return false, err
	}
	return ar.Correct, nil
}

// fleet is the partitioned deployment: two leaders under one map, a
// replica following leader L0, and a coordinator serving the merged
// read plane and the routed write plane over HTTP.
type fleet struct {
	dir      string
	sopts    store.Options
	sec      *security
	m        *cluster.Map
	leaders  []*node
	replica  *store.Store
	rep      *replica.Replicator
	rc       *cluster.Client // the coordinator's routing client
	coord    *http.Server
	coordURL string
}

const fleetLeaders = 2

// fleetMap builds the validated map for the given ingest/http
// addresses (placeholders while the listeners do not exist yet:
// ownership hashes leader IDs only).
func fleetMap(ingestAddrs, httpAddrs []string) (*cluster.Map, error) {
	ls := make([]cluster.Leader, fleetLeaders)
	for i := range ls {
		ls[i] = cluster.Leader{ID: leaderID(i), Ingest: ingestAddrs[i], HTTP: httpAddrs[i]}
	}
	m := &cluster.Map{Epoch: 1, Leaders: ls}
	return m, m.Validate()
}

func bootMap() (*cluster.Map, error) {
	return fleetMap([]string{"boot.invalid:1", "boot.invalid:2"}, []string{"", ""})
}

// startFleet serves the leader directories under dir (leader0,
// leader1, already preloaded) and starts the coordinator over them.
func startFleet(dir string, sopts store.Options, sec *security, policy *trust.DisclosurePolicy) (*fleet, error) {
	boot, err := bootMap()
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, sopts: sopts, sec: sec}
	nodes := make([]*cluster.Node, fleetLeaders)
	var ingestAddrs, httpAddrs []string
	for i := 0; i < fleetLeaders; i++ {
		if nodes[i], err = cluster.NewNode(boot, boot.Leaders[i].ID); err != nil {
			f.stop()
			return nil, err
		}
		n, err := startNode(filepath.Join(dir, "leader"+strconv.Itoa(i)), sopts, sec, policy, nodes[i])
		if err != nil {
			f.stop()
			return nil, err
		}
		f.leaders = append(f.leaders, n)
		ingestAddrs, httpAddrs = append(ingestAddrs, n.ingest), append(httpAddrs, n.httpURL)
	}
	if f.m, err = fleetMap(ingestAddrs, httpAddrs); err != nil {
		f.stop()
		return nil, err
	}
	for _, nd := range nodes {
		if err := nd.SetMap(f.m); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.rc = cluster.NewClient(f.m, cluster.ClientOptions{Conns: 1, TLS: sec.coordinator})
	app := provd.NewCoordinator(cluster.NewFleet(f.rc), provd.CoordinatorOptions{Client: httpClient(sec.coordinator)})
	app.SetAuth(sec.guard)
	if f.coord, f.coordURL, err = serveHTTP(app, sec.server); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// startReplica bootstraps an empty replica store from leader L0 and
// returns once it has caught up, with the time that took.
func (f *fleet) startReplica() (time.Duration, error) {
	var err error
	if f.replica, err = store.Open(filepath.Join(f.dir, "replica"), f.sopts); err != nil {
		return 0, err
	}
	t0 := time.Now()
	f.rep = replica.New(f.replica, f.leaders[0].ingest, replica.Options{TLS: f.sec.replica})
	f.rep.Start()
	if err := waitFor(30*time.Second, f.caughtUp); err != nil {
		return 0, fmt.Errorf("replica bootstrap: %w (%s)", err, f.rep.Status().LastError)
	}
	return time.Since(t0), nil
}

// caughtUp reports whether the replica has applied all of leader L0.
func (f *fleet) caughtUp() bool { return f.replica.NextSeq() >= f.leaders[0].st.NextSeq() }

func (f *fleet) stop() error {
	var first error
	if f.coord != nil {
		f.coord.Close()
	}
	if f.rc != nil {
		f.rc.Close()
	}
	if f.rep != nil {
		f.rep.Stop()
	}
	if f.replica != nil {
		first = f.replica.Close()
	}
	for _, n := range f.leaders {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
