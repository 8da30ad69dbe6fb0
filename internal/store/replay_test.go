package store

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/pattern"
	"repro/internal/runtime"
	"repro/internal/syntax"
)

// TestRuntimeMirrorRestartAuditParity is the subsystem's end-to-end
// contract: a runtime.Net with fault injection enabled mirrors every
// stamped send/receive into the store; after a process "restart" (close
// and reopen from the segment files) the recovered global log is
// identical to the middleware's in-memory log, and the Definition-3
// audit of every observed value returns the same verdict through both
// paths.
func TestRuntimeMirrorRestartAuditParity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}

	net := runtime.NewNet()
	defer net.Close()
	net.SetSink(s)
	net.SetFaults(&runtime.Faults{DropRate: 0.2, DupRate: 0.2, Seed: 7})

	a := net.Register("a")
	b := net.Register("b")
	c := net.Register("c")

	// A lossy relay pipeline: a sends on m, b forwards m -> n, c consumes
	// n. Drops starve the pipeline (receives time out); duplicates take
	// extra hops. Every value c ends up holding is recorded.
	var held []syntax.AnnotatedValue
	done := make(chan struct{})
	relayDone := make(chan struct{})
	go func() {
		defer close(done)
		for {
			vals, err := c.Recv(syntax.Fresh(syntax.Chan("n")), 100*time.Millisecond, pattern.AnyP())
			if err != nil {
				return
			}
			held = append(held, vals[0])
		}
	}()
	go func() {
		defer close(relayDone)
		for {
			vals, err := b.Recv(syntax.Fresh(syntax.Chan("m")), 100*time.Millisecond, pattern.AnyP())
			if err != nil {
				return
			}
			_ = b.Send(syntax.Fresh(syntax.Chan("n")), vals[0])
		}
	}()
	for i := 0; i < 40; i++ {
		if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Join both workers before snapshotting/closing: a straggling relay
	// send after the store closes would desync the mirror from the log.
	<-relayDone
	<-done
	// Drain the async pipeline: Flush returning nil means the store
	// holds the complete log (batches arrive via AppendActions, the
	// store's runtime.Sink).
	if err := net.Flush(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if len(held) == 0 {
		t.Fatal("no values delivered; cannot compare audits")
	}

	// "Restart": drop the store and recover purely from segment files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if got, want := r.Len(), net.LogLen(); got != want {
		t.Fatalf("recovered %d actions, middleware logged %d", got, want)
	}
	if !logs.Equal(r.GlobalLog(), net.Log()) {
		t.Fatalf("recovered log differs from middleware log:\n got %s\nwant %s", r.GlobalLog(), net.Log())
	}

	// Audit parity on genuine values (both verdicts must be "correct").
	for _, v := range held {
		memErr := net.AuditValue(v)
		diskErr := r.Audit(v)
		if (memErr == nil) != (diskErr == nil) {
			t.Fatalf("audit verdicts disagree for %s: mem=%v disk=%v", v, memErr, diskErr)
		}
		if memErr != nil {
			t.Errorf("genuine value failed audit: %v", memErr)
		}
	}

	// Audit parity on a forged claim (both verdicts must be "incorrect"):
	// principal z never acted, so a value claiming a z! event is
	// unjustified by either log.
	forged := syntax.Annot(syntax.Chan("vX"), syntax.Seq(syntax.OutEvent("z", nil)))
	if err := net.AuditValue(forged); err == nil {
		t.Error("middleware accepted a forged value")
	}
	if err := r.Audit(forged); err == nil {
		t.Error("store accepted a forged value")
	}
}

// TestSinkErrorSurfaced: a failing sink does not fail sends; the first
// error is latched and observed deterministically via Flush.
func TestSinkErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // closed store: every append fails
		t.Fatal(err)
	}
	net := runtime.NewNet()
	defer net.Close()
	net.SetSink(s)
	a := net.Register("a")
	if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatalf("send must not fail on sink error: %v", err)
	}
	// The failure surfaces when the flusher reaches the store, not in
	// the Send that logged the action; Flush waits for that moment.
	first := net.Flush()
	if first == nil {
		t.Fatal("sink error not surfaced")
	}
	if net.SinkErr() != first {
		t.Fatal("SinkErr and Flush must report the same latched error")
	}
	if net.LogLen() != 1 {
		t.Fatalf("in-memory log must remain authoritative, len = %d", net.LogLen())
	}
	// The mirror is detached at the first failure (a consistent prefix,
	// not a log with a hole), so later sends don't re-report.
	if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v2"))); err != nil {
		t.Fatal(err)
	}
	if err := net.Flush(); err != first {
		t.Fatal("sink not detached after first error")
	}
}
