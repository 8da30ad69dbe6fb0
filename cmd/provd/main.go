// Command provd is the provenance log daemon: a durable, sharded store
// for the global monitor log (internal/store) fronted by an HTTP/JSON
// audit and query service.
//
//	provd -addr :7709 -dir ./provd-data \
//	  -tls-cert server.pem -tls-key server-key.pem -tls-ca ca.pem \
//	  -auth-map auth.map
//
// Endpoints:
//
//	POST /append            durably append one action      {"principal":"a","kind":"snd","a":{"name":"m"},"b":{"name":"v"}}
//	                        or a batch (JSON array of actions; one lock round, contiguous seqs in body order)
//	GET  /log               recovered global log           ?observer= redacts; ?limit= pages; ?cursor= resumes;
//	                                                       ?chan= / ?kind= filter; ?from=seq walks forward
//	GET  /log/{principal}   one shard                      same parameters, served from the shard indexes
//	POST /audit             Definition-3 correctness check {"value":"v","prov":[{"principal":"a","dir":"!"}]}
//	POST /compact           merge sealed segments          ?principal= for one shard
//	GET  /principals        known shards                   ?observer= omits principals hiding from it;
//	                                                       ?limit=/?cursor= pages with per-shard record counts
//	GET  /healthz           liveness + next sequence number
//	GET  /metrics           store/engine/server counters (text)
//
// Every read endpoint is an adapter over the typed query engine
// (internal/query): one filter/pagination/redaction semantics for the
// whole read surface, with opaque cursors that stay valid while
// appends continue (a page walk never sees records past its first
// page's snapshot).
//
// Alongside the HTTP surface, provd serves the binary pipelined ingest
// protocol (-ingest-addr, default :7710; see docs/protocol.md): framed
// binary batches with per-connection group commit into the store, the
// path a fleet of monitored runtimes should feed the log through
// (internal/provclient is the matching client). Every connection opens
// a session, so delivery is exactly-once: replayed batches are
// recognised by the durable session table and re-acked instead of
// re-appended, with the dedup window per session set by -dedup-window
// and the session population capped by -max-sessions. The same
// listener serves the
// binary read path — typed queries with cursor pagination and a Follow
// mode streaming new records as they commit (remote replication and
// off-box audit; provclient.Query is the client side), redacted under
// the same -hide policy as HTTP. Shutdown drains the listener — every
// request read before the signal is committed and acked, and every
// live follow ends with a resume cursor.
//
// Disclosure policies (-hide) are applied at query time per requesting
// observer, so the stored log remains complete while each observer sees
// only what the policy allows.
//
// Authentication (docs/security.md) is built in and on by default: provd
// refuses to serve cleartext unless -insecure is passed explicitly. With
// -tls-cert/-tls-key both surfaces serve TLS; adding -tls-ca demands a
// verified client certificate on every connection (mutual TLS), and
// -auth-map binds each authenticated identity — certificate CN/SAN, or
// a bearer/wire token in the dev shape — to an enforced grant: the
// principals it may append as, the observer its reads are redacted for
// (?observer= is coerced to it), and whether it may pull snapshot
// transfers (the replica role). With enforcement on, disclosure
// policies become a real access-control boundary instead of an
// honest-observer convention.
//
// Replica mode (-replica-of leader:7710) turns the daemon into a read
// replica: the store is bootstrapped from the leader's snapshot, kept
// current over the binary follow stream (internal/replica), and the
// whole read surface — log, audit, principals, binary queries and
// follows — serves locally. Appends are refused: HTTP writes redirect
// to -leader-http when set (503 naming the leader otherwise), and the
// binary listener refuses hellos and batches with the leader's address.
// /healthz
// reports the role and applied sequence; /metrics gains
// provd_replica_lag_records, provd_replica_lag_seconds and the other
// replication gauges. See docs/operations.md, "Running a read replica".
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/provd"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trust"
)

// serve runs the HTTP surface until a signal or a listener failure —
// the one lifecycle every mode shares. On the way out it stops the HTTP
// server (bounded by grace) and then runs cleanup, last started first:
// the binary listener drains before anything it commits into closes
// (every batch a client got onto the wire is committed and acked), and
// replication stops before the store does (the store must not close
// under a mid-flight apply, and the durable high-water is the restart's
// resume point).
func serve(addr string, app *provd.Server, serverTLS *tls.Config, grace time.Duration, cleanup func()) {
	srv := &http.Server{Addr: addr, Handler: app, TLSConfig: serverTLS, ConnState: app.ConnState}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		var err error
		if serverTLS != nil {
			log.Printf("provd: serving TLS on %s", addr)
			err = srv.ListenAndServeTLS("", "")
		} else {
			log.Printf("provd: serving on %s", addr)
			err = srv.ListenAndServe()
		}
		if !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		cleanup()
		log.Fatalf("provd: %v", err)
	case <-ctx.Done():
	}
	log.Print("provd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("provd: shutdown: %v", err)
	}
	cleanup()
	fmt.Println("provd: bye")
}

func main() {
	var (
		addr         = flag.String("addr", ":7709", "listen address (HTTP/JSON)")
		ingestAddr   = flag.String("ingest-addr", ":7710", "binary pipelined ingest listen address (empty disables)")
		dir          = flag.String("dir", "provd-data", "store root directory")
		stripes      = flag.Int("stripes", 16, "append lock stripes (1-64)")
		segBytes     = flag.Int64("segment-bytes", 1<<20, "segment rotation threshold")
		fsync        = flag.Bool("fsync", true, "fsync every append")
		maxShards    = flag.Int("max-shards", 4096, "principal cap (one open segment fd per shard)")
		dedupWindow  = flag.Int("dedup-window", 1024, "per-session ingest dedup window (batch sequences remembered for replay re-acks)")
		maxSessions  = flag.Int("max-sessions", 1024, "live ingest session cap (least-recently-used session evicted beyond it)")
		grace        = flag.Duration("grace", 5*time.Second, "graceful shutdown timeout")
		idlePark     = flag.Duration("idle-park", 2*time.Second, "park idle binary-ingest connections (release their buffers until the next byte) after this much read silence; must be positive")
		replicaOf    = flag.String("replica-of", "", "run as a read replica of this leader binary ingest address (e.g. leader:7710)")
		leaderHTTP   = flag.String("leader-http", "", "leader's HTTP base URL for write redirects in replica mode (e.g. http://leader:7709)")
		tlsCert      = flag.String("tls-cert", "", "PEM server certificate; both surfaces serve TLS when set")
		tlsKey       = flag.String("tls-key", "", "PEM private key for -tls-cert")
		tlsCA        = flag.String("tls-ca", "", "PEM CA pool; when set, every connection must present a client certificate it verifies (mutual TLS), and replica mode dials the leader with the server keypair as its client identity")
		authMap      = flag.String("auth-map", "", "identity map file (docs/operations.md): binds certificate names and tokens to principal/observer/role grants, enforced on both surfaces")
		insecure     = flag.Bool("insecure", false, "serve cleartext without TLS (dev/harness only; refused otherwise)")
		replicaToken = flag.String("replica-token", "", "auth token presented to the leader in replica mode (cleartext dev shape; with -tls-ca the client certificate is the identity)")
		clusterMap   = flag.String("cluster-map", "", "partition map file for a multi-leader fleet (docs/operations.md, \"Running a partitioned fleet\")")
		clusterSelf  = flag.String("cluster-self", "", "this node's leader ID in -cluster-map; empty with -cluster-map runs a storeless coordinator")
		clusterToken = flag.String("cluster-token", "", "auth token a coordinator presents to the partition leaders (cleartext dev shape)")
	)
	policy := trust.NewDisclosurePolicy()
	flag.Func("hide", "hide a principal's actions: subject or subject=obs1,obs2 (repeatable)", func(v string) error {
		subject, obs, found := strings.Cut(v, "=")
		if subject == "" {
			return errors.New("empty subject")
		}
		if !found || obs == "" {
			policy.HideFrom(subject)
			return nil
		}
		policy.HideFrom(subject, strings.Split(obs, ",")...)
		return nil
	})
	flag.Parse()
	if *idlePark <= 0 {
		log.Fatal("provd: -idle-park must be positive")
	}

	// Secure by default: cleartext is a decision the operator must make
	// explicitly, never a silent fallback.
	if *tlsCert == "" && !*insecure {
		log.Fatal("provd: refusing to serve cleartext: set -tls-cert/-tls-key (and -tls-ca for mutual TLS), or pass -insecure explicitly")
	}
	var serverTLS, clientTLS *tls.Config
	if *tlsCert != "" {
		if *tlsKey == "" {
			log.Fatal("provd: -tls-cert needs -tls-key")
		}
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			log.Fatalf("provd: loading -tls-cert/-tls-key: %v", err)
		}
		serverTLS = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS13}
		if *tlsCA != "" {
			pem, err := os.ReadFile(*tlsCA)
			if err != nil {
				log.Fatalf("provd: reading -tls-ca: %v", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				log.Fatalf("provd: -tls-ca %s holds no PEM certificates", *tlsCA)
			}
			serverTLS.ClientCAs = pool
			serverTLS.ClientAuth = tls.RequireAndVerifyClientCert
			// Replica mode re-uses the server keypair as its client
			// identity toward the leader, verified against the same CA —
			// one keypair per node, whichever way the connection points.
			clientTLS = &tls.Config{Certificates: []tls.Certificate{cert}, RootCAs: pool, MinVersion: tls.VersionTLS13}
		}
	}
	var guard *auth.Guard
	if *authMap != "" {
		m, err := auth.LoadMap(*authMap)
		if err != nil {
			log.Fatalf("provd: loading -auth-map: %v", err)
		}
		guard = auth.NewGuard(m)
	}

	// Partition-fleet modes (docs/operations.md, "Running a partitioned
	// fleet"): with -cluster-map and -cluster-self this node is one
	// partition leader — an ordinary provd that additionally refuses
	// batches for principals it does not own and serves the map over the
	// wire. With -cluster-map alone it is a storeless coordinator: the
	// merged read plane and routed write plane over the whole fleet.
	var (
		m    *cluster.Map
		node *cluster.Node
	)
	if *clusterSelf != "" && *clusterMap == "" {
		log.Fatal("provd: -cluster-self needs -cluster-map")
	}
	if *clusterMap != "" {
		var err error
		if m, err = cluster.LoadFile(*clusterMap); err != nil {
			log.Fatalf("provd: loading -cluster-map: %v", err)
		}
		if *clusterSelf != "" && *replicaOf != "" {
			log.Fatal("provd: a partition leader cannot also be a replica; run replicas per partition without -cluster-self")
		}
		// A coordinator's own view (self "": owns nothing) lets its binary
		// listener answer map requests, so producers can bootstrap from a
		// coordinator address alone.
		if node, err = cluster.NewNode(m, *clusterSelf); err != nil {
			log.Fatalf("provd: %v", err)
		}
	}

	// Whatever a mode starts registers its stop here; unwind runs them
	// last started first, on a failed start and on shutdown alike.
	var cleanup []func()
	unwind := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	var (
		app *provd.Server
		st  *store.Store // stays nil on a coordinator
	)
	iopts := ingest.Options{TLS: serverTLS, Auth: guard, IdlePark: *idlePark}
	if node != nil {
		iopts.Cluster = node
	}
	if node != nil && *clusterSelf == "" {
		// Coordinator: no store, a routing client + fleet read plane over
		// the partition leaders behind the same HTTP surface, and a binary
		// listener serving merged queries, follows and the cluster map
		// (appends and snapshots are refused toward the leaders).
		rc := cluster.NewClient(m, cluster.ClientOptions{TLS: clientTLS, Token: *clusterToken})
		cleanup = append(cleanup, func() { rc.Close() })
		fleet := cluster.NewFleet(rc)
		httpc := &http.Client{Timeout: 30 * time.Second}
		if clientTLS != nil {
			httpc.Transport = &http.Transport{TLSClientConfig: clientTLS}
		}
		app = provd.NewCoordinator(fleet, provd.CoordinatorOptions{Client: httpc, Token: *clusterToken})
		iopts.Engine = fleet
		log.Printf("provd: coordinator over %d leaders at epoch %d", len(m.Leaders), m.Epoch)
	} else {
		var err error
		st, err = store.Open(*dir, store.Options{
			Stripes: *stripes, SegmentBytes: *segBytes, Fsync: *fsync, MaxShards: *maxShards,
			SessionWindow: *dedupWindow, MaxSessions: *maxSessions,
		})
		if err != nil {
			log.Fatalf("provd: opening store: %v", err)
		}
		cleanup = append(cleanup, func() {
			if err := st.Close(); err != nil {
				log.Printf("provd: closing store: %v", err)
			}
		})
		stats := st.Stats()
		log.Printf("provd: store %s recovered: %d records, %d shards, next seq %d",
			*dir, stats.Records, stats.Principals, stats.NextSeq)
		app = provd.NewServer(st, policy)
		// Share the HTTP app's query engine: both read surfaces apply
		// one policy and accumulate one set of counters.
		iopts.Engine = app.Engine()
		if node != nil {
			app.SetCluster(node)
			log.Printf("provd: partition leader %q at epoch %d (%d leaders)", *clusterSelf, m.Epoch, len(m.Leaders))
		}
		if *replicaOf != "" {
			// In replica mode the listener still serves queries, follows
			// and snapshots — a replica can seed further replicas — but
			// refuses appends, naming the leader.
			rep := replica.New(st, *replicaOf, replica.Options{Logf: log.Printf, TLS: clientTLS, Token: *replicaToken})
			rep.Start()
			cleanup = append(cleanup, rep.Stop)
			app.SetReplica(rep, *leaderHTTP)
			iopts.LeaderAddr = *replicaOf
			log.Printf("provd: replica of %s (applied seq %d)", *replicaOf, st.NextSeq())
		}
	}
	if guard != nil {
		app.SetAuth(guard)
		log.Printf("provd: enforcing %d identities from %s", guard.Map.Len(), *authMap)
	}
	if *ingestAddr != "" {
		ing := ingest.NewServer(st, iopts)
		bound, err := ing.Listen(*ingestAddr)
		if err != nil {
			unwind()
			log.Fatalf("provd: binary listener: %v", err)
		}
		cleanup = append(cleanup, ing.Close)
		app.AttachIngest(ing)
		log.Printf("provd: binary listener on %s", bound)
	}
	serve(*addr, app, serverTLS, *grace, unwind)
}
