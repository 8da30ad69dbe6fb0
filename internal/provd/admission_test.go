package provd

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
)

// TestAppendAdmission drives ingest.Admit — append role, grant
// principals, partition ownership, and "one violation refuses the whole
// batch" — through the three surfaces that call it: a partition leader's
// HTTP /append, the same leader's binary listener, and the coordinator's
// HTTP /append. Each surface translates the one decision into its own
// reply; a refused batch leaves every store untouched.
func TestAppendAdmission(t *testing.T) {
	// alice lives on leader l0 (the leader the direct surfaces talk to),
	// bob on l1.
	o := surfaceOpts{
		pin: map[string]int{"alice": 0, "bob": 1},
		ids: []identity{
			{auth.Grant{Name: "reader", Observer: "c", Roles: auth.RoleRead}, "rtok"},
			{auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, "wtok"},
			{auth.Grant{Name: "root", Principals: []string{"*"}, Roles: auth.RoleAppend}, "roottok"},
		},
	}
	// Outcomes: the HTTP status, and for the binary surface the prefix of
	// the per-request rejection ("" = acked; "closed" = the connection is
	// refused at the handshake, which is how a role-less identity fails).
	cases := []struct {
		name        string
		token       string
		principals  []string
		reason      ingest.RejectReason // what Admit answers on the leader (0 = admitted)
		leaderHTTP  int
		binary      string
		coordinator int // a coordinator routes by owner, so ownership never refuses there
	}{
		{"role", "rtok", []string{"alice"}, ingest.RejectRole, 403, "closed", 403},
		{"grant", "wtok", []string{"bob"}, ingest.RejectPrincipal, 403, `identity "writer" may not append as principal "bob"`, 403},
		{"grant, mixed batch", "wtok", []string{"alice", "bob"}, ingest.RejectPrincipal, 403, `identity "writer" may not append as principal "bob"`, 403},
		{"ownership", "roottok", []string{"bob"}, ingest.RejectNotOwner, 421, `cluster: not owner of principal "bob" at epoch 1`, 200},
		{"ownership, mixed batch", "roottok", []string{"alice", "bob"}, ingest.RejectNotOwner, 421, `cluster: not owner of principal "bob" at epoch 1`, 200},
		{"admitted", "wtok", []string{"alice", "alice"}, 0, 200, "", 200},
	}
	for _, c := range cases {
		acts := make([]logs.Action, len(c.principals))
		dtos := make([]ActionDTO, len(c.principals))
		for i, p := range c.principals {
			acts[i] = logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))
			dtos[i] = sndDTO(p)
		}
		// A refused request appends nothing, anywhere.
		check := func(t *testing.T, sf *surface, admitted bool) {
			t.Helper()
			want := 0
			if admitted {
				want = len(acts)
			}
			if got := sf.total(); got != want {
				t.Fatalf("stores hold %d records, want %d", got, want)
			}
		}
		t.Run(c.name+"/decision", func(t *testing.T) {
			sf := newFleetSurface(t, o)
			rej := ingest.Admit(sf.guard.Map.ByToken(c.token), sf.members[0].node, acts)
			if (rej == nil) != (c.reason == 0) || (rej != nil && rej.Reason != c.reason) {
				t.Fatalf("Admit answered %v, want reason %d", rej, c.reason)
			}
		})
		t.Run(c.name+"/leader http", func(t *testing.T) {
			sf := newFleetSurface(t, o)
			var body any = dtos
			if len(dtos) == 1 {
				body = dtos[0] // the single-action arm of /append
			}
			if code := do(t, sf.members[0].http, "POST", "/append", c.token, body, nil); code != c.leaderHTTP {
				t.Fatalf("status %d, want %d", code, c.leaderHTTP)
			}
			check(t, sf, c.leaderHTTP == http.StatusOK)
		})
		t.Run(c.name+"/leader binary", func(t *testing.T) {
			sf := newFleetSurface(t, o)
			cl := provclient.New(sf.members[0].ingest, provclient.Options{Conns: 1, Token: c.token, Retries: -1})
			defer cl.Close()
			_, err := cl.AppendBatch(acts)
			var se *provclient.ServerError
			switch {
			case c.binary == "":
				if err != nil {
					t.Fatalf("admitted batch: %v", err)
				}
			case c.binary == "closed":
				if err == nil || errors.As(err, &se) {
					t.Fatalf("role-less identity: err %v, want a refused connection", err)
				}
			case !errors.As(err, &se) || !strings.HasPrefix(se.Msg, c.binary):
				t.Fatalf("err %v, want a per-request rejection starting %q", err, c.binary)
			}
			check(t, sf, c.binary == "")
			auths := uint64(0)
			if c.reason == ingest.RejectRole || c.reason == ingest.RejectPrincipal {
				auths = 1
			}
			if got := sf.members[0].guard.AppendRejects.Load(); got != auths {
				t.Fatalf("provd_auth_append_rejects_total %d, want %d", got, auths)
			}
		})
		t.Run(c.name+"/coordinator", func(t *testing.T) {
			sf := newFleetSurface(t, o)
			if code := do(t, sf.ts, "POST", "/append", c.token, dtos, nil); code != c.coordinator {
				t.Fatalf("status %d, want %d", code, c.coordinator)
			}
			check(t, sf, c.coordinator == http.StatusOK)
		})
	}
}
