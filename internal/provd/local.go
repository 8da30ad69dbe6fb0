package provd

// The local backend: one node's store behind the HTTP surface — a
// standalone provd, a partition leader, or (SetReplica) a read replica
// whose store is fed by a replicator. Every read endpoint runs against
// whatever store the backend wraps, so replica mode only has to refuse
// writes with a pointer at the leader and report its role and lag.

import (
	"net/http"

	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/trust"
)

type localBackend struct {
	*query.Engine
	store *store.Store
	// replica, when set, is the store's only writer (SetReplica).
	replica    *replica.Replicator
	leaderHTTP string
}

// NewServer serves the HTTP surface over a store. A nil policy means
// full disclosure.
func NewServer(st *store.Store, policy *trust.DisclosurePolicy) *Server {
	if policy == nil {
		policy = trust.NewDisclosurePolicy()
	}
	return newServer(&localBackend{Engine: query.NewEngine(st, policy), store: st})
}

// Engine exposes a store-backed server's query engine so the binary read
// path can share it (ingest.Options.Engine): one engine, one set of
// redaction/denial counters, whichever surface served the read.
func (s *Server) Engine() *query.Engine { return s.backend.(*localBackend).Engine }

// SetReplica puts a store-backed server in replica mode: mutating
// endpoints are refused (redirected to leaderHTTP when set, 503 with the
// leader's ingest address otherwise), and /healthz and /metrics report
// the replicator's role, applied sequence and lag. cmd/provd enables it
// with -replica-of.
func (s *Server) SetReplica(rep *replica.Replicator, leaderHTTP string) {
	b := s.backend.(*localBackend)
	b.replica, b.leaderHTTP = rep, leaderHTTP
}

// refuseWrite answers a mutating request on a replica — appends, and
// compaction too, since the replicator is the store's only writer: a 307
// redirect when the leader's HTTP base is known (the client may replay
// the same body there), a 503 naming the leader's ingest address
// otherwise.
func (b *localBackend) refuseWrite(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case b.replica == nil:
		return false
	case b.leaderHTTP != "":
		http.Redirect(w, r, b.leaderHTTP+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error":  "read-only replica: writes must go to the leader",
			"leader": b.replica.Status().Leader,
		})
	}
	return true
}

// appendActions appends under one store lock round, a single action as
// a batch of one; a batch receives a contiguous block of sequence
// numbers, in body order, starting at the returned seq.
func (b *localBackend) appendActions(acts []logs.Action, batch bool) (any, error) {
	base, err := b.store.AppendBatch(acts)
	if !batch {
		return AppendResponse{Seq: base}, err
	}
	return BatchAppendResponse{Seq: base, Count: len(acts)}, err
}

func (b *localBackend) audit(w http.ResponseWriter, req AuditRequest, term logs.Term, k syntax.Prov) {
	resp := AuditResponse{Correct: true}
	if err := b.AuditTerm(term, k); err != nil {
		resp.Correct = false
		resp.Detail = err.Error()
	}
	if req.Observer != "" {
		resp.ProvView = eventDTOs(b.ViewProv(k, req.Observer))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (b *localBackend) compact(principal string) error {
	if principal == "" {
		return b.store.CompactAll()
	}
	return b.store.Compact(principal)
}

// principals reads the engine's counts snapshot: no store lock is taken.
func (b *localBackend) principals(observer string) ([]PrincipalDTO, error) {
	visible := b.VisibleCounts(observer).Principals
	out := make([]PrincipalDTO, len(visible))
	for i, pc := range visible {
		out[i] = PrincipalDTO{Principal: pc.Principal, Records: pc.Records}
	}
	return out, nil
}

func (b *localBackend) health(h map[string]any) {
	h["role"] = "leader"
	h["next_seq"] = b.store.NextSeq()
	if b.replica == nil {
		return
	}
	st := b.replica.Status()
	h["role"] = "replica"
	h["leader"] = st.Leader
	h["applied_seq"] = st.AppliedSeq
	h["lag_records"] = st.LagRecords
	h["lag_seconds"] = st.LagSeconds
	if st.Diverged {
		h["status"] = "diverged"
	} else if !st.Running {
		h["status"] = "stopped"
	}
}
