package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/pattern"
	"repro/internal/syntax"
)

// memSink records mirrored actions in order.
type memSink struct {
	mu   sync.Mutex
	acts []logs.Action
}

func (m *memSink) AppendActions(batch []logs.Action) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acts = append(m.acts, batch...)
	return nil
}

// TestSinkMirrorsGlobalLog: every action the middleware logs — including
// the extra receives caused by duplicated deliveries — reaches the sink
// in log order.
func TestSinkMirrorsGlobalLog(t *testing.T) {
	n := NewNet()
	defer n.Close()
	sink := &memSink{}
	n.SetSink(sink)
	n.SetFaults(&Faults{DupRate: 0.5, Seed: 3})

	a := n.Register("a")
	b := n.Register("b")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := b.Recv(syntax.Fresh(syntax.Chan("m")), 100*time.Millisecond, pattern.AnyP()); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	mirrored := logs.Spine(sink.acts)
	count := len(sink.acts)
	sink.mu.Unlock()
	if count != n.LogLen() {
		t.Fatalf("sink got %d actions, log has %d", count, n.LogLen())
	}
	if !logs.Equal(mirrored, n.Log()) {
		t.Fatalf("mirrored log differs:\n got %s\nwant %s", mirrored, n.Log())
	}
}

// TestSetSinkNilDisables: clearing the sink drains what was already
// logged to it, then stops mirroring.
func TestSetSinkNilDisables(t *testing.T) {
	n := NewNet()
	defer n.Close()
	sink := &memSink{}
	n.SetSink(sink)
	a := n.Register("a")
	if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatal(err)
	}
	n.SetSink(nil)
	if err := a.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.acts) != 1 {
		t.Fatalf("sink has %d actions, want 1 (mirroring not disabled)", len(sink.acts))
	}
}
