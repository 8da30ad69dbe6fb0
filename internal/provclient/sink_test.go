package provclient

import (
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/pattern"
	"repro/internal/runtime"
	"repro/internal/syntax"
)

// TestRuntimeRemoteMirror is the end-to-end shape the package exists
// for: a monitored runtime mirrors its global log through the async
// sink pipeline, over the binary ingest protocol, into a remote store —
// and the remote log is action-for-action the runtime's log, so a
// Definition-3 audit replayed against the remote store agrees with the
// live one.
func TestRuntimeRemoteMirror(t *testing.T) {
	_, st, addr := newBackend(t, ingest.Options{})
	c := New(addr, Options{})
	defer c.Close()

	n := runtime.NewNet()
	defer n.Close()
	n.SetSink(c) // Client is a runtime.Sink: drained batches forward as ingest requests

	alice := n.Register("alice")
	bob := n.Register("bob")
	ch := syntax.Fresh(syntax.Chan("m"))
	done := make(chan []syntax.AnnotatedValue, 1)
	go func() {
		vals, err := bob.Recv(ch, 5*time.Second, pattern.AnyP())
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- vals
	}()
	if err := alice.Send(ch, syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatal(err)
	}
	vals := <-done
	if vals == nil {
		t.Fatal("receive failed")
	}

	// Drain runtime pipeline, then the client's group batcher.
	if err := n.Flush(); err != nil {
		t.Fatalf("net flush: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("client flush: %v", err)
	}

	if want, got := n.Log().String(), st.GlobalLog().String(); got != want {
		t.Fatalf("remote log diverged:\n  live:   %s\n  remote: %s", want, got)
	}
	if n.LogLen() != st.Len() {
		t.Fatalf("remote store has %d records, live log has %d actions", st.Len(), n.LogLen())
	}
	// The delivered value's provenance must audit identically against
	// both logs.
	liveErr := n.AuditValue(vals[0])
	remoteErr := st.Audit(vals[0])
	if (liveErr == nil) != (remoteErr == nil) {
		t.Fatalf("audit verdicts diverge: live=%v remote=%v", liveErr, remoteErr)
	}
	if liveErr != nil {
		t.Fatalf("audit failed on both: %v", liveErr)
	}
}
