// Package auth binds an authenticated wire identity to the authority
// it holds over the provenance log: which principals it may append as,
// which observer its reads are redacted for, and whether it may pull
// replication transfers. Both wire surfaces share it — the binary
// listener (internal/ingest) resolves a grant from the client
// certificate of its mTLS handshake (or a dev token frame), provd's
// HTTP surface from the request's client certificate or bearer token —
// so one -auth-map file states the whole fleet's authority once.
//
// The model is deliberately small. An identity (a certificate
// CN/SAN, or a token-map name) maps to one Grant:
//
//   - Principals is the append grant: a batch commits only if every
//     action's principal is in the set ("*" grants all).
//   - Observer is the read grant: queries, follows and audits are
//     forced through this observer before the disclosure policy
//     redacts ("*" lets the caller choose; empty defaults to the
//     identity's own name, the least-privilege reading).
//   - Roles gates the operation classes: append, read, and replica
//     (snapshot transfer + unredacted follow, the replication path —
//     a replica must see the log bit-identically or convergence
//     checks would fail on honest redaction).
//
// Enforcement stays with the callers; this package only resolves
// identities to grants and counts the rejections both surfaces expose
// as the provd_auth_* metrics.
package auth

import (
	"bufio"
	"crypto/x509"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/wire"
)

// Role is a bitmask of the operation classes a grant allows.
type Role uint8

const (
	// RoleAppend allows ingest batches (and the v2 session handshake).
	RoleAppend Role = 1 << iota
	// RoleRead allows queries, follows, audits and log reads.
	RoleRead
	// RoleReplica allows snapshot transfers and exempts reads from
	// observer coercion — replication must see the unredacted log.
	RoleReplica
)

// String renders the role set in -auth-map syntax.
func (r Role) String() string {
	var parts []string
	if r&RoleAppend != 0 {
		parts = append(parts, "append")
	}
	if r&RoleRead != 0 {
		parts = append(parts, "read")
	}
	if r&RoleReplica != 0 {
		parts = append(parts, "replica")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Grant is the authority one identity holds.
type Grant struct {
	// Name is the identity the grant was resolved from (certificate
	// CN/SAN or auth-map entry name).
	Name string
	// Principals an append may act as; "*" grants every principal.
	Principals []string
	// Observer reads are coerced to; "*" = caller's choice, "" = Name.
	Observer string
	// Roles gates operation classes.
	Roles Role
}

// CanAppend reports whether the grant allows ingest batches.
func (g *Grant) CanAppend() bool { return g.Roles&RoleAppend != 0 }

// CanRead reports whether the grant allows queries and audits. The
// replica role implies read: replication is a read of the whole log.
func (g *Grant) CanRead() bool { return g.Roles&(RoleRead|RoleReplica) != 0 }

// CanReplicate reports whether the grant allows snapshot transfers and
// uncoerced follow streams.
func (g *Grant) CanReplicate() bool { return g.Roles&RoleReplica != 0 }

// AllowsPrincipal reports whether the grant covers appending as p.
func (g *Grant) AllowsPrincipal(p string) bool {
	for _, gp := range g.Principals {
		if gp == "*" || gp == p {
			return true
		}
	}
	return false
}

// CoerceObserver maps a requested observer to the one the grant
// enforces: a replica-role or "*" grant passes the request through,
// anything else is pinned to the grant's observer (the identity's own
// name when unset) no matter what the caller asked for.
func (g *Grant) CoerceObserver(requested string) string {
	if g.CanReplicate() || g.Observer == "*" {
		return requested
	}
	if g.Observer == "" {
		return g.Name
	}
	return g.Observer
}

// Map resolves identities — certificate names or dev tokens — to
// grants. Immutable after construction; safe for concurrent use.
type Map struct {
	byName  map[string]*Grant
	byToken map[string]*Grant
}

// NewMap returns an empty identity map.
func NewMap() *Map {
	return &Map{byName: make(map[string]*Grant), byToken: make(map[string]*Grant)}
}

// Add installs a grant under its name, optionally reachable by a
// cleartext dev token. A duplicate name or token is an error — silently
// shadowing an identity's authority is exactly the bug an auth map
// exists to prevent — and so is a token longer than the binary
// listener's auth frame carries (wire.MaxTokenLen), which would work
// over HTTP but never authenticate a binary connection.
func (m *Map) Add(g Grant, token string) error {
	if g.Name == "" {
		return fmt.Errorf("auth: grant without a name")
	}
	if len(token) > wire.MaxTokenLen {
		return fmt.Errorf("auth: token of identity %q is %d bytes, over the %d-byte limit", g.Name, len(token), wire.MaxTokenLen)
	}
	if _, dup := m.byName[g.Name]; dup {
		return fmt.Errorf("auth: duplicate identity %q", g.Name)
	}
	gc := g
	m.byName[g.Name] = &gc
	if token != "" {
		if _, dup := m.byToken[token]; dup {
			return fmt.Errorf("auth: duplicate token (identity %q)", g.Name)
		}
		m.byToken[token] = &gc
	}
	return nil
}

// ByName resolves the first of names that the map knows (a
// certificate's CN, then each DNS SAN, in order). Nil if none match.
func (m *Map) ByName(names ...string) *Grant {
	for _, n := range names {
		if g, ok := m.byName[n]; ok {
			return g
		}
	}
	return nil
}

// ByToken resolves a cleartext dev token. Nil if unknown.
func (m *Map) ByToken(token string) *Grant {
	if token == "" {
		return nil
	}
	return m.byToken[token]
}

// Len reports how many identities the map holds.
func (m *Map) Len() int { return len(m.byName) }

// ParseMap reads the -auth-map format: one identity per line,
//
//	name [principals=a,b|*] [observer=o|*] [roles=append,read,replica] [token=secret]
//
// with '#' comments and blank lines ignored, and tokens of at most
// wire.MaxTokenLen (256) bytes. Defaults are the
// least-privilege reading: no principals, observer = the identity's
// own name, no roles (an identity with no roles can connect but do
// nothing — list it explicitly to grant authority).
func ParseMap(r io.Reader) (*Map, error) {
	m := NewMap()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		g := Grant{Name: fields[0]}
		token := ""
		for _, f := range fields[1:] {
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("auth: line %d: %q is not key=value", lineno, f)
			}
			switch key {
			case "principals":
				g.Principals = strings.Split(val, ",")
			case "observer":
				g.Observer = val
			case "token":
				token = val
			case "roles":
				for _, role := range strings.Split(val, ",") {
					switch role {
					case "append":
						g.Roles |= RoleAppend
					case "read":
						g.Roles |= RoleRead
					case "replica":
						g.Roles |= RoleReplica
					default:
						return nil, fmt.Errorf("auth: line %d: unknown role %q", lineno, role)
					}
				}
			default:
				return nil, fmt.Errorf("auth: line %d: unknown key %q", lineno, key)
			}
		}
		if err := m.Add(g, token); err != nil {
			return nil, fmt.Errorf("auth: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth: reading map: %w", err)
	}
	return m, nil
}

// LoadMap parses an -auth-map file.
func LoadMap(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ParseMap(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Guard is the enforcement handle both wire surfaces share: the
// identity map plus the rejection counters /metrics exports as the
// provd_auth_* family. One Guard per daemon, passed to
// ingest.Options.Auth and provd.Server.SetAuth.
type Guard struct {
	Map *Map

	// ConnRejects counts connections (or HTTP requests) refused because
	// no known identity authenticated them.
	ConnRejects atomic.Uint64
	// AppendRejects counts batches refused by role or principal grant.
	AppendRejects atomic.Uint64
	// QueryRejects counts queries, follows and reads refused by role.
	QueryRejects atomic.Uint64
	// SnapshotRejects counts snapshot transfers refused for lacking the
	// replica role.
	SnapshotRejects atomic.Uint64
}

// NewGuard wraps an identity map in a Guard.
func NewGuard(m *Map) *Guard { return &Guard{Map: m} }

// GrantForCert resolves the peer's leaf certificate to a grant: the
// Common Name first, then each DNS SAN in order. Nil if the
// certificate names no known identity.
func (g *Guard) GrantForCert(chain []*x509.Certificate) *Grant {
	if len(chain) == 0 {
		return nil
	}
	leaf := chain[0]
	names := make([]string, 0, 1+len(leaf.DNSNames))
	if leaf.Subject.CommonName != "" {
		names = append(names, leaf.Subject.CommonName)
	}
	names = append(names, leaf.DNSNames...)
	return g.Map.ByName(names...)
}
