package ingest

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/logs"
)

// RejectReason classifies an admission refusal.
type RejectReason int

const (
	// RejectRole: the identity lacks the append role.
	RejectRole RejectReason = iota + 1
	// RejectPrincipal: the batch claims a principal outside the
	// identity's grant.
	RejectPrincipal
	// RejectNotOwner: the batch names a principal another partition
	// leader owns under this node's map. The message's "cluster:" prefix
	// and epoch are the routing client's refresh signal.
	RejectNotOwner
)

// Rejection is why Admit refused a write. Error is the text every
// surface replies with; Reason is what a surface maps to its own status
// and counters.
type Rejection struct {
	Reason RejectReason
	msg    string
}

func (r *Rejection) Error() string { return r.msg }

// Admit is the one append-admission decision, shared by the binary
// reader, the HTTP surface and the coordinator: the identity must hold
// the append role, every action's principal must be inside its grant,
// and — on a partition leader — this node must own every principal. One
// violation refuses the whole batch, so an error always means none of
// it was appended (and a routing client may re-send a not-owned batch
// whole to its owner). A nil grant means enforcement is off, a nil cv
// that the node is not partitioned; with no acts only the role is
// checked, which is how a surface gates an operation before it has a
// batch in hand. Admitting allocates nothing.
func Admit(grant *auth.Grant, cv ClusterView, acts []logs.Action) *Rejection {
	if grant != nil {
		if !grant.CanAppend() {
			return &Rejection{RejectRole, fmt.Sprintf("identity %q lacks the append role", grant.Name)}
		}
		for i := range acts {
			if p := acts[i].Principal; !grant.AllowsPrincipal(p) {
				return &Rejection{RejectPrincipal, fmt.Sprintf("identity %q may not append as principal %q", grant.Name, p)}
			}
		}
	}
	if cv != nil {
		for i := range acts {
			if p := acts[i].Principal; !cv.Owns(p) {
				return &Rejection{RejectNotOwner, fmt.Sprintf("cluster: not owner of principal %q at epoch %d: refetch the map and re-route", p, cv.Epoch())}
			}
		}
	}
	return nil
}
