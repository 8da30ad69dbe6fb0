package provd

// The two-backend suite: the HTTP adapter tests — JSON shapes, cursor
// round-trips through URLs, filter validation, identity enforcement,
// observer coercion — run as one table over both backends behind the
// shared handler set: a single node, and an in-process two-leader fleet
// behind NewCoordinator. Expectations are stated against the store that
// owns each principal, so the same assertions hold where sequence
// numbers are global (a node) and where they are per leader (a fleet).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/trust"
)

// coordinatorToken is the identity a fleet surface's coordinator
// presents to its leaders on both wire surfaces.
const coordinatorToken = "ctok"

// identity is one auth-map line of a surface under test.
type identity struct {
	grant auth.Grant
	token string
}

// surfaceOpts configures the surfaces a table test runs over.
type surfaceOpts struct {
	policy *trust.DisclosurePolicy
	// ids, when nonempty, turns enforcement on with these identities
	// (a fleet adds its coordinator's).
	ids []identity
	// pin overrides ownership on a fleet: principal → leader index.
	pin map[string]int
}

// member is one store-holding provd: the node itself, or one partition
// leader of a fleet.
type member struct {
	st     *store.Store
	app    *Server
	http   *httptest.Server
	ingest string // binary listener address
	guard  *auth.Guard
	node   *cluster.Node // nil unless a partition leader
}

// surface is one backend behind the shared handler set.
type surface struct {
	ts      *httptest.Server // the surface under test: the node, or the coordinator
	app     *Server          // ts's handler set
	guard   *auth.Guard      // ts's guard (nil when enforcement is off)
	members []*member
	m       *cluster.Map // nil on a node
}

// owner returns the store holding principal p's shard.
func (sf *surface) owner(p string) *store.Store {
	if sf.m == nil {
		return sf.members[0].st
	}
	return sf.members[sf.m.Owner(p)].st
}

func (sf *surface) total() int {
	n := 0
	for _, mb := range sf.members {
		n += mb.st.Len()
	}
	return n
}

// preload appends n actions over principals p0..p2 and channels c0, c1
// straight into the owning stores.
func (sf *surface) preload(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("p%d", i%3)
		a := logs.SndAct(p, logs.NameT(fmt.Sprintf("c%d", i%2)), logs.NameT(fmt.Sprintf("v%d", i)))
		if _, err := sf.owner(p).Append(a); err != nil {
			t.Fatal(err)
		}
	}
}

func newGuard(t *testing.T, ids []identity) *auth.Guard {
	t.Helper()
	if len(ids) == 0 {
		return nil
	}
	m := auth.NewMap()
	for _, id := range ids {
		if err := m.Add(id.grant, id.token); err != nil {
			t.Fatal(err)
		}
	}
	return auth.NewGuard(m)
}

// newMember opens a store and serves it on both surfaces, as cmd/provd
// wires a node: one engine, one guard.
func newMember(t *testing.T, o surfaceOpts, ids []identity, node *cluster.Node) *member {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mb := &member{st: st, guard: newGuard(t, ids), node: node}
	app := NewServer(st, o.policy)
	iopts := ingest.Options{Engine: app.Engine(), Auth: mb.guard}
	if mb.guard != nil {
		app.SetAuth(mb.guard)
	}
	if node != nil {
		app.SetCluster(node)
		iopts.Cluster = node
	}
	ing := ingest.NewServer(st, iopts)
	if mb.ingest, err = ing.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	app.AttachIngest(ing)
	mb.app, mb.http = app, serveHTTP(t, app)
	return mb
}

// serveHTTP serves app on a test server with its connection counter
// wired, as cmd/provd wires it.
func serveHTTP(t *testing.T, app *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(app)
	ts.Config.ConnState = app.ConnState
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func newNodeSurface(t *testing.T, o surfaceOpts) *surface {
	mb := newMember(t, o, o.ids, nil)
	return &surface{ts: mb.http, app: mb.app, guard: mb.guard, members: []*member{mb}}
}

// newFleetSurface starts two partition leaders and a coordinator over
// them, every hop authenticated when o.ids is set.
func newFleetSurface(t *testing.T, o surfaceOpts) *surface {
	t.Helper()
	ids, token := o.ids, ""
	if len(ids) > 0 {
		token = coordinatorToken
		ids = append(ids[:len(ids):len(ids)], identity{auth.Grant{Name: "coordinator", Principals: []string{"*"}, Observer: "*", Roles: auth.RoleAppend | auth.RoleRead}, token})
	}
	// Ownership hashes leader IDs only, so the leaders can start under a
	// map with placeholder addresses and adopt the real one once bound.
	m := &cluster.Map{Epoch: 1, Leaders: []cluster.Leader{{ID: "l0", Ingest: "boot.invalid:1"}, {ID: "l1", Ingest: "boot.invalid:2"}}, Overrides: o.pin}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sf := &surface{}
	var nodes []*cluster.Node
	for _, l := range m.Leaders {
		node, err := cluster.NewNode(m, l.ID)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		sf.members = append(sf.members, newMember(t, o, ids, node))
	}
	sf.m = &cluster.Map{Epoch: 1, Overrides: o.pin}
	for i, mb := range sf.members {
		sf.m.Leaders = append(sf.m.Leaders, cluster.Leader{ID: m.Leaders[i].ID, Ingest: mb.ingest, HTTP: mb.http.URL})
	}
	if err := sf.m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		if err := node.SetMap(sf.m); err != nil {
			t.Fatal(err)
		}
	}
	rc := cluster.NewClient(sf.m, cluster.ClientOptions{Conns: 1, Token: token})
	t.Cleanup(func() { rc.Close() })
	app := NewCoordinator(cluster.NewFleet(rc), CoordinatorOptions{Token: token})
	if sf.guard = newGuard(t, ids); sf.guard != nil {
		app.SetAuth(sf.guard)
	}
	sf.app, sf.ts = app, serveHTTP(t, app)
	return sf
}

// onBothBackends runs fn once over a node and once over a fleet.
func onBothBackends(t *testing.T, o surfaceOpts, fn func(t *testing.T, sf *surface)) {
	t.Run("node", func(t *testing.T) { fn(t, newNodeSurface(t, o)) })
	t.Run("fleet", func(t *testing.T) { fn(t, newFleetSurface(t, o)) })
}

// status issues a GET and returns only the status code.
func status(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	return do(t, ts, "GET", path, "", nil, nil)
}

// walkLog follows cursors from path until the walk ends, returning the
// pages in arrival order.
func walkLog(t *testing.T, ts *httptest.Server, path string) [][]RecordDTO {
	t.Helper()
	var pages [][]RecordDTO
	for next := path; ; {
		var lr LogResponse
		if code := getJSON(t, ts, next, &lr); code != http.StatusOK {
			t.Fatalf("%s status %d", next, code)
		}
		pages = append(pages, lr.Records)
		if lr.Cursor == "" {
			return pages
		}
		next = path + "&cursor=" + url.QueryEscape(lr.Cursor)
	}
}

// shardDTOs is what the owning store holds for p, in the JSON shape.
func (sf *surface) shardDTOs(p string, f store.Filter) []RecordDTO {
	return recordDTOs(sf.owner(p).ScanShardTail(p, f, 0, -1))
}

// TestShardLogCursorPagination: /log/{p} pages backwards through
// history via the cursor; the pages reassemble exactly the owning
// store's shard; the last page carries no cursor.
func TestShardLogCursorPagination(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		sf.preload(t, 95)
		pages := walkLog(t, sf.ts, "/log/p1?limit=7")
		var got []RecordDTO
		for i := len(pages) - 1; i >= 0; i-- { // tail pages arrive newest-first
			got = append(got, pages[i]...)
		}
		want := sf.shardDTOs("p1", store.Filter{})
		if len(pages) != 5 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d pages reassembled %d records, shard holds %d", len(pages), len(got), len(want))
		}
	})
}

// TestGlobalLogTail: /log without ?from= is the newest records. A node
// pages backwards from there; a fleet's merged tail is a single page
// (docs/operations.md: backward pagination across independent sequence
// counters has no stable meaning).
func TestGlobalLogTail(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		sf.preload(t, 95)
		pages := walkLog(t, sf.ts, "/log?limit=20")
		if len(pages[0]) != 20 {
			t.Fatalf("tail page holds %d records", len(pages[0]))
		}
		if sf.m != nil {
			if len(pages) != 1 {
				t.Fatalf("merged tail paginated into %d pages", len(pages))
			}
			return
		}
		var seqs []uint64
		for i := len(pages) - 1; i >= 0; i-- {
			for _, r := range pages[i] {
				seqs = append(seqs, r.Seq)
			}
		}
		if len(pages) != 5 || len(seqs) != 95 {
			t.Fatalf("95 records in pages of 20: %d pages, %d records", len(pages), len(seqs))
		}
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("position %d holds seq %d", i, s)
			}
		}
	})
}

// TestLogForwardWalk: ?from= walks ascending with forward cursors, every
// record at or past the floor served exactly once and each principal's
// records in its shard's order.
func TestLogForwardWalk(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		sf.preload(t, 50)
		pages := walkLog(t, sf.ts, "/log?from=10&limit=15")
		if len(pages) < 2 || len(pages[0]) != 15 {
			t.Fatalf("forward walk: %d pages, first of %d records", len(pages), len(pages[0]))
		}
		got := make(map[string][]RecordDTO)
		for _, page := range pages {
			for _, r := range page {
				got[r.Action.Principal] = append(got[r.Action.Principal], r)
			}
		}
		for _, p := range []string{"p0", "p1", "p2"} {
			var want []RecordDTO
			for _, r := range sf.shardDTOs(p, store.Filter{}) {
				if r.Seq >= 10 {
					want = append(want, r)
				}
			}
			if !reflect.DeepEqual(got[p], want) {
				t.Fatalf("%s: walk served %d records, shard holds %d from seq 10", p, len(got[p]), len(want))
			}
		}
		// A malformed ?from= is a 400, not a silent walk from the wrong seq.
		for _, bad := range []string{"5xyz", "-1", "0x10", " 5"} {
			if code := status(t, sf.ts, "/log?from="+url.QueryEscape(bad)); code != http.StatusBadRequest {
				t.Fatalf("from=%q status %d", bad, code)
			}
		}
	})
}

// TestLogFiltersAndCursor: shard pagination composes with the chan/kind
// filters, a cursor presented with different filters is a 400 (not a
// silent frankenwalk), and /log filters across all shards.
func TestLogFiltersAndCursor(t *testing.T) {
	onBothBackends(t, surfaceOpts{}, func(t *testing.T, sf *surface) {
		sf.preload(t, 120)
		var lr LogResponse
		if code := getJSON(t, sf.ts, "/log/p0?chan=c0&limit=10", &lr); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		want := sf.shardDTOs("p0", store.Filter{Channel: "c0"})
		if lr.Cursor == "" || !reflect.DeepEqual(lr.Records, want[len(want)-10:]) {
			t.Fatalf("filtered page: %d records, cursor %q", len(lr.Records), lr.Cursor)
		}
		if code := status(t, sf.ts, "/log/p0?chan=c1&limit=10&cursor="+url.QueryEscape(lr.Cursor)); code != http.StatusBadRequest {
			t.Fatalf("filter-mismatched cursor status %d", code)
		}
		if code := status(t, sf.ts, "/log?cursor=garbage"); code != http.StatusBadRequest {
			t.Fatalf("garbage cursor status %d", code)
		}
		if code := status(t, sf.ts, "/log?kind=bogus"); code != http.StatusBadRequest {
			t.Fatalf("bogus kind status %d", code)
		}
		if code := getJSON(t, sf.ts, "/log?chan=c1&limit=1000", &lr); code != http.StatusOK {
			t.Fatalf("global filter status %d", code)
		}
		if len(lr.Records) != 60 {
			t.Fatalf("global chan filter returned %d of 60 matches", len(lr.Records))
		}
		for _, r := range lr.Records {
			if r.Action.A.Name != "c1" {
				t.Fatalf("filter leaked %+v", r)
			}
		}
	})
}

// TestPrincipalsPagination: the bare-array shape survives unpaginated;
// ?limit= switches to the object shape with counts and a cursor that
// walks the full name-sorted list.
func TestPrincipalsPagination(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("p1", "eve")
	onBothBackends(t, surfaceOpts{policy: policy}, func(t *testing.T, sf *surface) {
		sf.preload(t, 30)
		var bare []string
		if code := getJSON(t, sf.ts, "/principals", &bare); code != http.StatusOK {
			t.Fatalf("bare status %d", code)
		}
		if !reflect.DeepEqual(bare, []string{"p0", "p1", "p2"}) {
			t.Fatalf("bare principals %v", bare)
		}
		var pr PrincipalsResponse
		if code := getJSON(t, sf.ts, "/principals?limit=2", &pr); code != http.StatusOK {
			t.Fatalf("paged status %d", code)
		}
		if want := []PrincipalDTO{{"p0", 10}, {"p1", 10}}; !reflect.DeepEqual(pr.Principals, want) || pr.Cursor == "" {
			t.Fatalf("page 1: %+v", pr)
		}
		var pr2 PrincipalsResponse
		if code := getJSON(t, sf.ts, "/principals?limit=2&cursor="+url.QueryEscape(pr.Cursor), &pr2); code != http.StatusOK {
			t.Fatalf("page 2 status %d", code)
		}
		if want := []PrincipalDTO{{"p2", 10}}; !reflect.DeepEqual(pr2.Principals, want) || pr2.Cursor != "" {
			t.Fatalf("page 2: %+v", pr2)
		}
		for _, bad := range []string{"/principals?limit=0", "/principals?cursor=zz"} {
			if code := status(t, sf.ts, bad); code != http.StatusBadRequest {
				t.Fatalf("%s status %d", bad, code)
			}
		}
		// Hidden principals stay hidden.
		if code := getJSON(t, sf.ts, "/principals?observer=eve", &bare); code != http.StatusOK {
			t.Fatalf("observer status %d", code)
		}
		if !reflect.DeepEqual(bare, []string{"p0", "p2"}) {
			t.Fatalf("principals for eve: %v", bare)
		}
	})
}

// TestLimitZeroProbe: ?limit=0 keeps its historical empty-response
// behaviour, and a hidden shard still 403s on it.
func TestLimitZeroProbe(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("p1", "eve")
	onBothBackends(t, surfaceOpts{policy: policy}, func(t *testing.T, sf *surface) {
		sf.preload(t, 10)
		var lr LogResponse
		if code := getJSON(t, sf.ts, "/log?limit=0", &lr); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(lr.Records) != 0 || lr.Log != "0" || lr.Cursor != "" {
			t.Fatalf("probe response %+v", lr)
		}
		if code := status(t, sf.ts, "/log/p1?limit=0&observer=eve"); code != http.StatusForbidden {
			t.Fatalf("hidden shard probe status %d", code)
		}
	})
}

// authIDs is a writer bound to principal alice and a reader bound to
// observer c.
var authIDs = []identity{
	{auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, "wtok"},
	{auth.Grant{Name: "reader", Observer: "c", Roles: auth.RoleRead}, "rtok"},
}

func sndDTO(principal string) ActionDTO {
	return ActionDTO{Principal: principal, Kind: "snd", A: TermDTO{Name: "m"}, B: TermDTO{Name: "v"}}
}

// TestHTTPAuthTokens: bearer-token identities get exactly their
// granted authority — 401 without an identity, 403 outside the grant,
// observer coercion on reads — while health and metrics stay open.
func TestHTTPAuthTokens(t *testing.T) {
	o := surfaceOpts{policy: trust.NewDisclosurePolicy().HideFrom("s", "c"), ids: authIDs}
	onBothBackends(t, o, func(t *testing.T, sf *surface) {
		for _, p := range []string{"s", "p"} {
			if _, err := sf.owner(p).Append(logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))); err != nil {
				t.Fatal(err)
			}
		}
		ts := sf.ts
		// No identity: reads and writes refused, probes and scrapes open.
		if code := do(t, ts, "GET", "/log", "", nil, nil); code != http.StatusUnauthorized {
			t.Fatalf("unauthenticated /log: %d", code)
		}
		if code := do(t, ts, "GET", "/healthz", "", nil, nil); code != http.StatusOK {
			t.Fatalf("/healthz should stay open: %d", code)
		}
		if metrics := scrape(t, ts); !strings.Contains(metrics, "provd_auth_conn_rejects_total 1\n") {
			t.Fatalf("metrics missing the rejection:\n%s", metrics)
		}

		// The writer appends within its grant…
		if code := do(t, ts, "POST", "/append", "wtok", sndDTO("alice"), nil); code != http.StatusOK {
			t.Fatalf("granted append: %d", code)
		}
		// …not as anyone else…
		if code := do(t, ts, "POST", "/append", "wtok", sndDTO("bob"), nil); code != http.StatusForbidden {
			t.Fatalf("impersonating append: %d", code)
		}
		// …not smuggled in a batch (refused whole — none appended)…
		if code := do(t, ts, "POST", "/append", "wtok", []ActionDTO{sndDTO("alice"), sndDTO("bob")}, nil); code != http.StatusForbidden {
			t.Fatalf("mixed batch: %d", code)
		}
		if a, b := sf.owner("alice").ScanShardTail("alice", store.Filter{}, 0, -1), sf.owner("bob").ScanShardTail("bob", store.Filter{}, 0, -1); len(a) != 1 || len(b) != 0 {
			t.Fatalf("alice holds %d records (want 1), bob %d (want 0)", len(a), len(b))
		}
		// …and cannot read at all.
		if code := do(t, ts, "GET", "/log", "wtok", nil, nil); code != http.StatusForbidden {
			t.Fatalf("writer /log: %d", code)
		}

		// The reader asks for the full view and receives observer c's:
		// "s" is hidden from c, so its record comes back masked.
		var lr LogResponse
		if code := do(t, ts, "GET", "/log?from=0", "rtok", nil, &lr); code != http.StatusOK {
			t.Fatalf("reader /log: %d", code)
		}
		if lr.Observer != "c" {
			t.Fatalf("observer not coerced: %q", lr.Observer)
		}
		masked := false
		for _, r := range lr.Records {
			if r.Action.Principal == "s" {
				t.Fatalf("hidden principal leaked: %+v", r)
			}
			if r.Action.Principal == trust.RedactedPrincipal {
				masked = true
			}
		}
		if !masked {
			t.Fatal("no record was masked; coercion did not reach redaction")
		}
		// The reader cannot write.
		if code := do(t, ts, "POST", "/append", "rtok", sndDTO("alice"), nil); code != http.StatusForbidden {
			t.Fatalf("reader append: %d", code)
		}
		if a, q := sf.guard.AppendRejects.Load(), sf.guard.QueryRejects.Load(); a != 3 || q != 1 {
			t.Fatalf("rejection counters: append %d (want 3), query %d (want 1)", a, q)
		}
	})
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// relayChain is a genuine chain — a sends v on m, s receives and
// re-sends on n, c receives — and the claim it justifies. s hides from
// everyone.
var (
	relayChain = []logs.Action{
		logs.SndAct("a", logs.NameT("m"), logs.NameT("v")),
		logs.RcvAct("s", logs.NameT("m"), logs.NameT("v")),
		logs.SndAct("s", logs.NameT("n"), logs.NameT("v")),
		logs.RcvAct("c", logs.NameT("n"), logs.NameT("v")),
	}
	relayClaim = AuditRequest{Value: "v", Prov: []EventDTO{
		{Principal: "c", Dir: "?"}, {Principal: "s", Dir: "!"}, {Principal: "s", Dir: "?"}, {Principal: "a", Dir: "!"},
	}}
	// A fleet audits a claim on the one leader owning every principal it
	// names: co-locate the chain.
	relayPin = map[string]int{"a": 0, "s": 0, "c": 0}
)

// redactedAt reports which events of a provenance view are masked.
func redactedAt(view []EventDTO) []bool {
	out := make([]bool, len(view))
	for i, e := range view {
		out[i] = e.Principal == trust.RedactedPrincipal
	}
	return out
}

// TestAuditObserverView: the audit response echoes the observer's
// redacted view of the claimed provenance, and a forged claim is
// rejected.
func TestAuditObserverView(t *testing.T) {
	o := surfaceOpts{policy: trust.NewDisclosurePolicy().HideFrom("s"), pin: relayPin}
	onBothBackends(t, o, func(t *testing.T, sf *surface) {
		if _, err := sf.owner("a").AppendBatch(relayChain); err != nil {
			t.Fatal(err)
		}
		req := relayClaim
		req.Observer = "c"
		var ar AuditResponse
		if code := postJSON(t, sf.ts, "/audit", req, &ar); code != http.StatusOK || !ar.Correct {
			t.Fatalf("genuine chain: status %d, %+v", code, ar)
		}
		// Redaction masks s's two events and must not shorten history.
		if got := redactedAt(ar.ProvView); !reflect.DeepEqual(got, []bool{false, true, true, false}) {
			t.Fatalf("prov view redaction for observer c: %v", got)
		}
		forged := AuditRequest{Value: "v", Prov: []EventDTO{{Principal: "c", Dir: "!"}}}
		if code := postJSON(t, sf.ts, "/audit", forged, &ar); code != http.StatusOK || ar.Correct {
			t.Fatalf("forged claim: status %d, %+v", code, ar)
		}
		var e map[string]string
		if code := postJSON(t, sf.ts, "/audit", AuditRequest{}, &e); code != http.StatusBadRequest {
			t.Fatalf("empty audit: status %d", code)
		}
	})
}

// TestAuditObserverCoerced: a read grant pinned to observer c that asks
// for another observer's view of a provenance still receives c's. On a
// fleet the audit travels to the owning leader under the coordinator's
// identity, so the coercion has to happen before the proxy — at the
// parent commit the coordinator relayed the caller's "observer":"b"
// verbatim and returned the chain unmasked.
func TestAuditObserverCoerced(t *testing.T) {
	o := surfaceOpts{policy: trust.NewDisclosurePolicy().HideFrom("s", "c"), ids: authIDs, pin: relayPin}
	onBothBackends(t, o, func(t *testing.T, sf *surface) {
		if _, err := sf.owner("a").AppendBatch(relayChain); err != nil {
			t.Fatal(err)
		}
		req := relayClaim
		req.Observer = "b" // s does not hide from b
		var ar AuditResponse
		if code := do(t, sf.ts, "POST", "/audit", "rtok", req, &ar); code != http.StatusOK || !ar.Correct {
			t.Fatalf("status %d, %+v", code, ar)
		}
		if got := redactedAt(ar.ProvView); !reflect.DeepEqual(got, []bool{false, true, true, false}) {
			t.Fatalf("reader pinned to observer c was served another observer's view: redaction %v", got)
		}
		if code := do(t, sf.ts, "POST", "/audit", "wtok", req, nil); code != http.StatusForbidden {
			t.Fatalf("writer audit: %d", code)
		}
	})
}

// TestFleetOnlyRefusals: what a fleet answers differently because it is
// partitioned — a cross-partition audit names the split, an
// empty-provenance claim needs no leader, and there is no store to
// compact.
func TestFleetOnlyRefusals(t *testing.T) {
	sf := newFleetSurface(t, surfaceOpts{pin: map[string]int{"a": 0, "b": 1}})
	var e map[string]string
	split := AuditRequest{Value: "v", Prov: []EventDTO{{Principal: "a", Dir: "!"}, {Principal: "b", Dir: "?"}}}
	if code := postJSON(t, sf.ts, "/audit", split, &e); code != http.StatusUnprocessableEntity || !strings.Contains(e["error"], "spans 2 partitions [l0(a) l1(b)]") {
		t.Fatalf("cross-partition audit: %d %v", code, e)
	}
	var ar AuditResponse
	if code := postJSON(t, sf.ts, "/audit", AuditRequest{Value: "v"}, &ar); code != http.StatusOK || !ar.Correct {
		t.Fatalf("empty-provenance audit: %d %+v", code, ar)
	}
	if code := postJSON(t, sf.ts, "/compact", nil, &e); code != http.StatusMisdirectedRequest {
		t.Fatalf("coordinator compact: %d %v", code, e)
	}
	if m := scrape(t, sf.ts); !strings.Contains(m, "provd_cluster_audit_refusals_total 1\n") || !strings.Contains(m, "provd_cluster_audit_proxies_total 0\n") {
		t.Fatalf("coordinator metrics:\n%s", m)
	}
	var h map[string]any
	if code := getJSON(t, sf.ts, "/healthz", &h); code != http.StatusOK || h["role"] != "coordinator" || h["leaders"] != 2.0 {
		t.Fatalf("coordinator health: %d %v", code, h)
	}
}

// TestClusterGaugesOnEveryNode: docs/operations.md tells operators to
// read provd_cluster_epoch on every node to confirm a map rollout. At
// the parent commit only the coordinator printed it.
func TestClusterGaugesOnEveryNode(t *testing.T) {
	sf := newFleetSurface(t, surfaceOpts{})
	for _, ts := range []*httptest.Server{sf.ts, sf.members[0].http, sf.members[1].http} {
		if m := scrape(t, ts); !strings.Contains(m, "provd_cluster_epoch 1\n") || !strings.Contains(m, "provd_cluster_leaders 2\n") {
			t.Fatalf("%s/metrics lacks the cluster gauges:\n%s", ts.URL, m)
		}
	}
	if m := scrape(t, newNodeSurface(t, surfaceOpts{}).ts); strings.Contains(m, "provd_cluster_") {
		t.Fatalf("an unpartitioned node prints cluster gauges:\n%s", m)
	}
}

// TestAppendErrorMapping: a store's up-front rejection keeps its status
// whether the store is local or behind the coordinator — 400 for an
// action the store cannot represent, 429 at the shard cap. At the
// parent commit the coordinator answered both with 502, which stays the
// answer for a leader it cannot reach.
func TestAppendErrorMapping(t *testing.T) {
	long := sndDTO(strings.Repeat("x", store.MaxPrincipalLen+1))
	// One owner for the whole batch: a fleet refuses a batch whole only
	// per partition.
	o := surfaceOpts{pin: map[string]int{"ok": 0, long.Principal: 0}}
	onBothBackends(t, o, func(t *testing.T, sf *surface) {
		var e map[string]string
		if code := postJSON(t, sf.ts, "/append", long, &e); code != http.StatusBadRequest {
			t.Fatalf("unrepresentable action: %d %v", code, e)
		}
		if code := postJSON(t, sf.ts, "/append", []ActionDTO{sndDTO("ok"), long}, &e); code != http.StatusBadRequest {
			t.Fatalf("unrepresentable action in a batch: %d %v", code, e)
		}
		if code := postJSON(t, sf.ts, "/append", ActionDTO{Principal: "a", Kind: "bogus"}, &e); code != http.StatusBadRequest {
			t.Fatalf("bad kind: %d %v", code, e)
		}
		if n := sf.total(); n != 0 {
			t.Fatalf("%d records appended by refused requests", n)
		}
	})
	t.Run("shard cap", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), store.Options{MaxShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ing := ingest.NewServer(st, ingest.Options{})
		addr, err := ing.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ing.Close()
		m := &cluster.Map{Epoch: 1, Leaders: []cluster.Leader{{ID: "l0", Ingest: addr}}}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		rc := cluster.NewClient(m, cluster.ClientOptions{Conns: 1})
		defer rc.Close()
		ts := httptest.NewServer(NewCoordinator(cluster.NewFleet(rc), CoordinatorOptions{}))
		defer ts.Close()
		var e map[string]string
		if code := postJSON(t, ts, "/append", sndDTO("first"), nil); code != http.StatusOK {
			t.Fatalf("first principal: %d", code)
		}
		if code := postJSON(t, ts, "/append", sndDTO("second"), &e); code != http.StatusTooManyRequests {
			t.Fatalf("past the shard cap: %d %v", code, e)
		}
		ing.Close()
		if code := postJSON(t, ts, "/append", sndDTO("first"), &e); code != http.StatusBadGateway {
			t.Fatalf("unreachable leader: %d %v", code, e)
		}
	})
}
