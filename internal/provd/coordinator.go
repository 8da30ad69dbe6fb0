package provd

// The fleet backend: the HTTP surface of a partitioned fleet
// (docs/architecture.md, "The partition layer"). A coordinator owns no
// store — every read scatters to the partition leaders over the binary
// read protocol and merges (internal/cluster.Fleet), every write routes
// by owning principal (internal/cluster.Client), and the per-principal
// audit proxies to the one leader holding every record the claim's
// provenance can name, so its verdict is the owner's verdict bit for
// bit.
//
// The routes, DTOs, identity checks and error mapping are Server's, so
// operators and tooling move between a node and a fleet by changing an
// address. What lives here is inherent to partitioning and documented in
// docs/operations.md: the merged /log tail is a single page, forward
// walks paginate by vector cursor, a cross-partition audit is refused
// with the partition split named rather than answered with a verdict no
// single log justifies, and there is no store to compact.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/logs"
	"repro/internal/syntax"
)

// CoordinatorOptions tunes the fleet-facing side of a coordinator.
type CoordinatorOptions struct {
	// Client performs the HTTP calls to partition leaders (audit proxy,
	// principal census). Configure its transport with the fleet's TLS
	// material; nil uses a default client with a 30s timeout.
	Client *http.Client
	// Token is sent as a bearer token on leader HTTP calls when the
	// fleet runs token auth (the dev shape; mTLS rides Client).
	Token string
}

type fleetBackend struct {
	*cluster.Fleet
	opts CoordinatorOptions

	proxied  atomic.Uint64
	refusals atomic.Uint64 // cross-partition audits refused
}

// NewCoordinator serves the HTTP surface over a partitioned fleet.
func NewCoordinator(f *cluster.Fleet, opts CoordinatorOptions) *Server {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return newServer(&fleetBackend{Fleet: f, opts: opts})
}

func (b *fleetBackend) refuseWrite(http.ResponseWriter, *http.Request) bool { return false }

// appendActions routes a write through the fleet's binary write plane.
// A batch may span partitions, and a fleet assigns no single contiguous
// sequence block, so the response reports only the count.
func (b *fleetBackend) appendActions(acts []logs.Action, _ bool) (any, error) {
	if err := b.AppendActions(acts); err != nil {
		return nil, upstreamError{err}
	}
	return map[string]any{"count": len(acts), "routed": true}, nil
}

func (b *fleetBackend) compact(string) error { return errNoStore }

// do issues one leader HTTP call under the coordinator's identity.
func (b *fleetBackend) do(method, target string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if b.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+b.opts.Token)
	}
	return b.opts.Client.Do(req)
}

// audit routes the Definition-3 check to the one leader holding every
// record the claim's provenance can name. The verdict depends only on
// the relative order of the principals the provenance names
// (docs/security.md, "Audit locality"); when they all live on one
// partition, the owner's global log restricted to them is exactly the
// fleet's, and the proxied verdict is bit-identical to a single node's.
// An empty provenance denotes the empty log, correct against any store
// — answered locally. A provenance spanning partitions has no single
// log that justifies a verdict; it is refused with the split named, not
// guessed at.
func (b *fleetBackend) audit(w http.ResponseWriter, req AuditRequest, _ logs.Term, k syntax.Prov) {
	if len(k) == 0 {
		// ⟦V:ε⟧ = Nil ≼ φ for every φ: trivially correct, no leader needed.
		writeJSON(w, http.StatusOK, AuditResponse{Correct: true})
		return
	}
	owners := b.AuditPrincipals(k)
	if len(owners) > 1 {
		b.refusals.Add(1)
		parts := make([]string, 0, len(owners))
		for id, ps := range owners {
			parts = append(parts, fmt.Sprintf("%s(%s)", id, strings.Join(ps, ",")))
		}
		sort.Strings(parts)
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("audit provenance spans %d partitions [%s]: no single leader holds the interleaving; audit each principal's events separately or repartition with overrides", len(owners), strings.Join(parts, " ")))
		return
	}
	var ownerID, base string
	for id := range owners {
		ownerID = id
	}
	for _, l := range b.Leaders() {
		if l.ID == ownerID {
			base = l.HTTP
		}
	}
	if base == "" {
		writeError(w, http.StatusBadGateway, fmt.Errorf("leader %q exposes no http endpoint in the partition map; audits need http= on every leader", ownerID))
		return
	}
	// The request travels under the coordinator's identity, so what is
	// forwarded is the request as coerced for the caller — never the
	// caller's own bytes. Status and body come back verbatim: the
	// bit-identical contract.
	body, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	resp, err := b.do(http.MethodPost, strings.TrimRight(base, "/")+"/audit", bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("leader %s: %v", ownerID, err))
		return
	}
	defer resp.Body.Close()
	b.proxied.Add(1)
	w.Header().Set("Content-Type", "application/json")
	// Forward the leader's framing, so the caller's connection outlives
	// an audit whose body exceeds the server's buffer (see reply.send).
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// principals scatters the paginated principal census to every leader's
// HTTP endpoint and merges the pages name-sorted. Each leader applies
// its own disclosure policy before answering, so the merged list
// discloses exactly the union of what each leader would; ownership is
// disjoint, so the union has no duplicates to resolve.
func (b *fleetBackend) principals(observer string) ([]PrincipalDTO, error) {
	var merged []PrincipalDTO
	for _, l := range b.Leaders() {
		if l.HTTP == "" {
			return nil, fmt.Errorf("leader %q exposes no http endpoint in the partition map", l.ID)
		}
		params := url.Values{"limit": {"10000"}}
		if observer != "" {
			params.Set("observer", observer)
		}
		for {
			page, err := b.principalsPage(l, params)
			if err != nil {
				return nil, err
			}
			merged = append(merged, page.Principals...)
			if page.Cursor == "" {
				break
			}
			params.Set("cursor", page.Cursor)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Principal < merged[j].Principal })
	return merged, nil
}

// principalsPage fetches one census page from leader l. It decodes one
// value and closes the body without reading on to EOF; the connection
// still goes back to the client's pool, because a leader frames every
// body by its length (reply.send) and the transport reports EOF with its
// last byte — so no drain is needed here.
func (b *fleetBackend) principalsPage(l cluster.Leader, params url.Values) (PrincipalsResponse, error) {
	var page PrincipalsResponse
	resp, err := b.do(http.MethodGet, strings.TrimRight(l.HTTP, "/")+"/principals?"+params.Encode(), nil)
	if err != nil {
		return page, fmt.Errorf("leader %s: %w", l.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return page, fmt.Errorf("leader %s: principals returned %d: %s", l.ID, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("leader %s: decoding principals: %w", l.ID, err)
	}
	return page, nil
}

func (b *fleetBackend) health(h map[string]any) {
	m := b.Map()
	h["role"] = "coordinator"
	h["epoch"] = m.Epoch
	h["leaders"] = len(m.Leaders)
}
