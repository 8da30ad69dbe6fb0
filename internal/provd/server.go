// Package provd is the application layer of the provenance log daemon:
// one HTTP/JSON handler set — append, log, audit, compact, principals,
// health, metrics — served over one of two backends. The local backend
// (local.go) is a store.Store with its query engine and, in replica
// mode, the replicator feeding it; the fleet backend (coordinator.go) is
// a partitioned fleet's routed write plane and merged read plane.
// Identity resolution, observer coercion, append admission, request
// parsing, pagination and error mapping live once, in Server; a backend
// holds only what is inherent to where the log lives. cmd/provd wires it
// to flags and signals; living here (rather than in the command) lets
// benchmarks and load generators drive the real handlers in process.
package provd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// backend is where the log behind the HTTP surface lives: one node's
// store, or a partitioned fleet.
type backend interface {
	// Run serves one log page.
	Run(q query.Query) (query.Page, error)
	// refuseWrite answers a mutating request the backend cannot take at
	// all (a replica points at its leader) and reports whether it did.
	refuseWrite(w http.ResponseWriter, r *http.Request) bool
	// appendActions appends admitted actions and returns the response
	// body; batch is whether the request was a JSON array.
	appendActions(acts []logs.Action, batch bool) (any, error)
	// audit answers the Definition-3 check of term:k; req.Observer is
	// already coerced to the caller's grant.
	audit(w http.ResponseWriter, req AuditRequest, term logs.Term, k syntax.Prov)
	// compact merges sealed segments of one shard ("" = all).
	compact(principal string) error
	// principals lists the shards observer may know of, name-sorted.
	principals(observer string) ([]PrincipalDTO, error)
	// health adds the backend's role and position to the /healthz body.
	health(h map[string]any)
	// metrics writes the backend's /metrics lines (metrics.go).
	metrics(w io.Writer)
}

// Server is the audit/query front end over a backend. Every read
// endpoint is a thin adapter over the typed query plane (internal/query)
// — the same one the binary read path serves, so HTTP and binary
// observers see byte-identical decisions.
type Server struct {
	backend backend
	mux     *http.ServeMux
	started time.Time
	// ingest, when set, is the binary pipelined listener beside this
	// surface; its counters join /metrics so one scrape covers both.
	ingest *ingest.Server
	// auth, when set, turns on identity enforcement (SetAuth): every
	// endpoint except /healthz and /metrics requires a resolved grant,
	// checked per operation exactly like the binary surface checks it.
	auth *auth.Guard
	// cluster, when set, makes this node one partition leader
	// (SetCluster): HTTP appends for principals it does not own are
	// refused with 421, mirroring the binary surface's per-request
	// "cluster:" reject — a principal's records must live on exactly
	// one leader or audit locality breaks.
	cluster ingest.ClusterView

	requests atomic.Uint64
	badReqs  atomic.Uint64
	conns    atomic.Uint64 // counted by ConnState
}

// newServer wires the routes over a backend.
func newServer(b backend) *Server {
	s := &Server{backend: b, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /append", s.handleAppend)
	s.mux.HandleFunc("GET /log", s.handleLog)
	s.mux.HandleFunc("GET /log/{principal}", s.handleLog)
	s.mux.HandleFunc("POST /audit", s.handleAudit)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /principals", s.handlePrincipals)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// AttachIngest joins a binary listener's counters to /metrics, so one
// scrape covers both surfaces.
func (s *Server) AttachIngest(in *ingest.Server) { s.ingest = in }

// SetAuth turns on identity enforcement. Pass the same Guard as
// ingest.Options.Auth so both surfaces share one identity map and one
// set of provd_auth_* rejection counters.
func (s *Server) SetAuth(g *auth.Guard) { s.auth = g }

// SetCluster marks this node a partition leader. Pass the same view as
// ingest.Options.Cluster so both write surfaces enforce one ownership
// decision.
func (s *Server) SetCluster(cv ingest.ClusterView) { s.cluster = cv }

// ConnState counts the connections the HTTP server accepts
// (provd_http_connections_total); set it as the http.Server's
// ConnState hook.
func (s *Server) ConnState(_ net.Conn, st http.ConnState) {
	if st == http.StateNew {
		s.conns.Add(1)
	}
}

// grantKey stashes the request's resolved grant in its context.
type grantKey struct{}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.auth != nil && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
		// Health and metrics stay open — probes and scrapers carry no
		// identity, and neither endpoint discloses log content.
		grant := s.resolveGrant(r)
		if grant == nil {
			s.auth.ConnRejects.Add(1)
			writeJSON(w, http.StatusUnauthorized, map[string]string{
				"error": "no known identity: present a client certificate or bearer token",
			})
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), grantKey{}, grant))
	}
	s.mux.ServeHTTP(w, r)
}

// resolveGrant maps the request to an identity: the verified client
// certificate first (the mTLS shape), then an Authorization bearer
// token against the auth map's token table (the dev shape). Nil if
// neither names a known identity.
func (s *Server) resolveGrant(r *http.Request) *auth.Grant {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		if gr := s.auth.GrantForCert(r.TLS.PeerCertificates); gr != nil {
			return gr
		}
	}
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return s.auth.Map.ByToken(tok)
	}
	return nil
}

// grantFrom recovers the grant ServeHTTP resolved (nil when
// enforcement is off).
func grantFrom(r *http.Request) *auth.Grant {
	g, _ := r.Context().Value(grantKey{}).(*auth.Grant)
	return g
}

// reply is a response body encoded in full before any byte of it is
// sent.
type reply struct {
	buf bytes.Buffer
	enc *json.Encoder // writes to buf
}

// maxPooledReply caps the buffer a reply returns to the pool: a page can
// be megabytes (?limit= up to 10000 records), and the pool should keep
// what typical pages need, not the largest one ever served.
const maxPooledReply = 256 << 10

var replies = sync.Pool{New: func() any {
	rp := new(reply)
	rp.enc = json.NewEncoder(&rp.buf)
	return rp
}}

func getReply() *reply { return replies.Get().(*reply) }

func (rp *reply) release() {
	if rp.buf.Cap() > maxPooledReply {
		return
	}
	rp.buf.Reset()
	replies.Put(rp)
}

// Shared, never mutated: assigned to the header map directly, it costs
// no allocation per response.
var (
	jsonContentType = []string{"application/json"}
	textContentType = []string{"text/plain; charset=utf-8"}
)

// send writes rp as the whole response, framed by its Content-Length.
// Go's server frames only bodies that fit its 2 KB response buffer on
// its own; a larger one goes out chunked, and a client that decodes one
// value and closes the body never reads the terminating chunk, so its
// transport drops the connection and the next request pays a fresh TCP
// (and TLS) handshake. With the length, the transport's body reader
// reports EOF with the last byte and the connection stays pooled.
func (rp *reply) send(w http.ResponseWriter, code int, contentType []string) {
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = []string{strconv.Itoa(rp.buf.Len())}
	w.WriteHeader(code)
	w.Write(rp.buf.Bytes())
}

// writeJSON answers with v as JSON: exactly json.Encoder's bytes,
// trailing newline included, framed by their length. A value that
// cannot be encoded (a NaN, say) is a 500 carrying the encoder's error,
// never a 200 cut short.
func writeJSON(w http.ResponseWriter, code int, v any) {
	rp := getReply()
	defer rp.release()
	if err := rp.enc.Encode(v); err != nil {
		rp.buf.Reset()
		code = http.StatusInternalServerError
		rp.enc.Encode(map[string]string{"error": fmt.Sprintf("encoding response: %v", err)})
	}
	rp.send(w, code, jsonContentType)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) clientError(w http.ResponseWriter, err error) {
	s.badReqs.Add(1)
	writeError(w, http.StatusBadRequest, err)
}

// coerceRead gates a read on the grant's read role and pins its
// observer to the grant — whatever view the caller asked for (including
// the full, unredacted "" view), it reads as the observer its identity
// maps to; replica-role grants pass through. Reports whether the read
// may proceed.
func (s *Server) coerceRead(w http.ResponseWriter, r *http.Request, observer *string) bool {
	grant := grantFrom(r)
	if grant == nil {
		return true
	}
	if !grant.CanRead() {
		s.auth.QueryRejects.Add(1)
		writeError(w, http.StatusForbidden, fmt.Errorf("identity %q lacks the read role", grant.Name))
		return false
	}
	*observer = grant.CoerceObserver(*observer)
	return true
}

// admit runs the shared append admission (ingest.Admit) for a write
// naming acts and translates a refusal to this surface's reply: 403 for
// a role or grant violation, 421 for a principal another leader owns.
// Reports whether the write may proceed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, acts []logs.Action) bool {
	rej := ingest.Admit(grantFrom(r), s.cluster, acts)
	if rej == nil {
		return true
	}
	code := http.StatusMisdirectedRequest
	if rej.Reason != ingest.RejectNotOwner {
		code = http.StatusForbidden
		s.auth.AppendRejects.Add(1)
	}
	writeError(w, code, rej)
	return false
}

const maxBodyBytes = 1 << 20

// handleAppend durably appends one action — or, when the body is a JSON
// array, a whole batch in one round — and returns what the backend
// assigned. The whole batch must pass admission: rejecting it entire
// keeps the "error means none appended" contract the binary surface
// gives. This is the ingestion path for middlewares that are not
// in-process (an in-process runtime.Net uses the sink hook directly); a
// remote mirror draining its own async pipeline should post batches.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.backend.refuseWrite(w, r) {
		return
	}
	// The role is checked before the body is read: an identity that
	// cannot write is owed no parsing.
	if !s.admit(w, r, nil) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.clientError(w, fmt.Errorf("reading body: %w", err))
		return
	}
	acts, batch, err := parseActions(body)
	if err != nil {
		s.clientError(w, err)
		return
	}
	if !s.admit(w, r, acts) {
		return
	}
	resp, err := s.backend.appendActions(acts, batch)
	if err != nil {
		s.appendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseActions decodes an /append body: one action object, or a
// nonempty JSON array of them (batch).
func parseActions(body []byte) (acts []logs.Action, batch bool, err error) {
	var dtos []ActionDTO
	if t := bytes.TrimLeft(body, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		batch = true
		if err := json.Unmarshal(t, &dtos); err != nil {
			return nil, false, fmt.Errorf("decoding action batch: %w", err)
		}
		if len(dtos) == 0 {
			return nil, false, fmt.Errorf("empty action batch")
		}
	} else {
		dtos = make([]ActionDTO, 1)
		if err := json.Unmarshal(body, &dtos[0]); err != nil {
			return nil, false, fmt.Errorf("decoding action: %w", err)
		}
	}
	acts = make([]logs.Action, len(dtos))
	for i, dto := range dtos {
		if acts[i], err = dto.action(); err != nil {
			if batch {
				err = fmt.Errorf("action %d: %w", i, err)
			}
			return nil, false, err
		}
	}
	return acts, batch, nil
}

// upstreamError marks a failure between this process and a partition
// leader: a bad gateway, not a fault of this node or of the request.
type upstreamError struct{ err error }

func (e upstreamError) Error() string { return e.err.Error() }
func (e upstreamError) Unwrap() error { return e.err }

// appendError maps an append failure to its HTTP status. A store's
// up-front rejections keep their status whether the store is local or a
// partition leader's (internal/cluster recovers the sentinels).
func (s *Server) appendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrInvalidAction):
		s.clientError(w, err)
	case errors.Is(err, store.ErrShardCap):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, new(upstreamError)):
		writeError(w, http.StatusBadGateway, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// recordDTOs converts a page (already redacted for its observer) to the
// JSON shape.
func recordDTOs(recs []wire.Record) []RecordDTO {
	dtos := make([]RecordDTO, len(recs))
	for i, r := range recs {
		dtos[i] = RecordDTO{Seq: r.Seq, Action: actionDTO(r.Act)}
	}
	return dtos
}

// logQuery assembles the query shared by /log and /log/{principal} from
// the URL: ?observer=, ?limit= (page size, default 10000), ?cursor=
// (resume a walk), ?chan= / ?kind= (index filters), ?from= (ascending
// walk from a sequence number; without it the page is the most recent
// records, whose cursor pages backwards through history).
func logQuery(r *http.Request, principal string) (query.Query, error) {
	v := r.URL.Query()
	limit, err := query.ParseLimit(v.Get("limit"))
	if err != nil {
		return query.Query{}, err
	}
	q := query.Query{
		Principal: principal,
		Observer:  v.Get("observer"),
		Channel:   v.Get("chan"),
		Limit:     limit,
		Cursor:    v.Get("cursor"),
		Tail:      true,
	}
	if k := v.Get("kind"); k != "" {
		kind, err := kindOf(k)
		if err != nil {
			return query.Query{}, err
		}
		q.Kind, q.KindSet = kind, true
	}
	if from := v.Get("from"); from != "" {
		q.Tail = false
		seq, err := strconv.ParseUint(from, 10, 64)
		if err != nil {
			return query.Query{}, fmt.Errorf("invalid from %q", from)
		}
		q.MinSeq = seq
	}
	return q, nil
}

// handleLog serves the global log (/log) or one principal's shard
// (/log/{principal}): redacted for ?observer=, filtered by
// ?chan=/?kind=, paginated by ?limit= and ?cursor= (?from= walks forward
// instead). A shard query is keyed by the acting principal, so masking
// its records would still disclose who acted: the whole shard is denied
// to observers the principal hides from.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	q, err := logQuery(r, r.PathValue("principal"))
	if err != nil {
		s.clientError(w, err)
		return
	}
	if !s.coerceRead(w, r, &q.Observer) {
		return
	}
	s.serveLog(w, q)
}

// serveLog runs the query and writes the LogResponse, mapping a denied
// shard to 403 and a bad cursor or query to 400.
func (s *Server) serveLog(w http.ResponseWriter, q query.Query) {
	// An explicit ?limit=0 is a probe: run a minimal query (so denial
	// and cursor validation still apply) but serve no records.
	probe := q.Limit == 0
	if probe {
		q.Limit = 1
	}
	page, err := s.backend.Run(q)
	switch {
	case errors.Is(err, query.ErrDenied):
		writeError(w, http.StatusForbidden, fmt.Errorf("principal %s does not disclose its log to %q", q.Principal, q.Observer))
		return
	case err != nil:
		s.clientError(w, err)
		return
	}
	if probe {
		page.Records, page.Cursor = nil, ""
	}
	writeJSON(w, http.StatusOK, LogResponse{
		Principal: q.Principal,
		Observer:  q.Observer,
		Records:   recordDTOs(page.Records),
		Log:       query.SpineString(page.Records),
		Cursor:    page.Cursor,
	})
}

// handleAudit runs the Definition-3 correctness check: does the log
// justify the claim V:κ? The provenance echoed back is the observer's
// redacted view, and the observer is the caller's grant's — coerced
// here, before any backend sees the request, so a fleet's proxied audit
// cannot be asked for another observer's view.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.clientError(w, fmt.Errorf("decoding audit request: %w", err))
		return
	}
	if req.Value == "" {
		s.clientError(w, fmt.Errorf("audit needs a value"))
		return
	}
	observer := req.Observer
	if !s.coerceRead(w, r, &observer) {
		return
	}
	// An empty observer asks for no provenance echo at all — nothing to
	// coerce; a named one is pinned to the grant's view.
	if req.Observer != "" {
		req.Observer = observer
	}
	k, err := provOf(req.Prov, 0)
	if err != nil {
		s.clientError(w, err)
		return
	}
	term := logs.NameT(req.Value)
	if req.Value == "?" {
		term = logs.UnknownT()
	}
	s.backend.audit(w, req, term, k)
}

// errNoStore is a fleet's answer to /compact.
var errNoStore = errors.New("a coordinator holds no store; POST /compact to each partition leader")

// handleCompact compacts one shard (?principal=name) or all shards.
// Compaction rewrites the log: a write-class operation, admitted like an
// append.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.backend.refuseWrite(w, r) || !s.admit(w, r, nil) {
		return
	}
	switch err := s.backend.compact(r.URL.Query().Get("principal")); {
	case errors.Is(err, errNoStore):
		writeError(w, http.StatusMisdirectedRequest, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// handlePrincipals lists known shards, omitting principals that hide
// from the requesting observer — the same existence fact the shard
// endpoint's 403 protects. Without pagination parameters the response is
// the historical bare JSON array; ?limit= (or ?cursor=) switches to a
// paginated object carrying per-principal record counts and a resume
// cursor.
func (s *Server) handlePrincipals(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	observer := v.Get("observer")
	if !s.coerceRead(w, r, &observer) {
		return
	}
	visible, err := s.backend.principals(observer)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	if v.Get("limit") == "" && v.Get("cursor") == "" {
		ps := make([]string, len(visible))
		for i, pc := range visible {
			ps[i] = pc.Principal
		}
		writeJSON(w, http.StatusOK, ps)
		return
	}
	limit, err := query.ParseLimit(v.Get("limit"))
	if err != nil {
		s.clientError(w, err)
		return
	}
	if limit == 0 {
		// Unlike /log (where limit=0 is a historical probe), principal
		// pagination is new: an empty page with no cursor would be
		// indistinguishable from an exhausted walk, so refuse it.
		s.clientError(w, fmt.Errorf("principals pagination needs a positive limit"))
		return
	}
	if after, ok := decodePrincipalCursor(v.Get("cursor")); ok {
		i := sort.Search(len(visible), func(i int) bool { return visible[i].Principal > after })
		visible = visible[i:]
	} else if v.Get("cursor") != "" {
		s.clientError(w, fmt.Errorf("%w: unrecognised principals cursor", query.ErrBadCursor))
		return
	}
	// Copied so that an empty page encodes as [], never null.
	resp := PrincipalsResponse{Principals: append([]PrincipalDTO{}, visible[:min(limit, len(visible))]...)}
	if len(visible) > limit {
		resp.Cursor = encodePrincipalCursor(visible[limit-1].Principal)
	}
	writeJSON(w, http.StatusOK, resp)
}

// Principal-list cursors: the list is name-sorted, so "after this name"
// is a stable resume point no record walk is needed for.
func encodePrincipalCursor(name string) string {
	return base64.RawURLEncoding.EncodeToString([]byte("p1." + name))
}

func decodePrincipalCursor(s string) (string, bool) {
	if s == "" {
		return "", false
	}
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || !strings.HasPrefix(string(b), "p1.") {
		return "", false
	}
	return string(b[3:]), true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := map[string]any{"status": "ok", "uptime_s": time.Since(s.started).Seconds()}
	s.backend.health(h)
	writeJSON(w, http.StatusOK, h)
}
