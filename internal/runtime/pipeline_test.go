package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/pattern"
	"repro/internal/syntax"
)

// Concurrency suite for the ordered async sink pipeline. Run with -race:
// the assertions here are exactly the pipeline's contract — the sink
// observes the global log's action sequence bit-identically, under
// concurrent load, backpressure, draining and mid-stream sink failure.

// batchMemSink records mirrored actions and the batch boundaries they
// arrived in; optional hooks gate or fail the flush.
type batchMemSink struct {
	mu      sync.Mutex
	acts    []logs.Action
	batches int
	gate    chan struct{} // when non-nil, each batch blocks on a receive
	failAt  int           // when > 0, fail once len(acts) reaches failAt
	failErr error
}

func (m *batchMemSink) AppendActions(batch []logs.Action) error {
	if m.gate != nil {
		<-m.gate
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	for _, a := range batch {
		if m.failAt > 0 && len(m.acts) >= m.failAt {
			return m.failErr // prefix applied, rest of the batch dropped
		}
		m.acts = append(m.acts, a)
	}
	return nil
}

func (m *batchMemSink) snapshot() []logs.Action {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]logs.Action(nil), m.acts...)
}

// drainTo keeps a receiver consuming ch until the net closes or
// receives stop timing out.
func drainTo(n *Net, principal, ch string) chan struct{} {
	done := make(chan struct{})
	nd := n.Register(principal)
	go func() {
		defer close(done)
		for {
			if _, err := nd.Recv(syntax.Fresh(syntax.Chan(ch)), 200*time.Millisecond, pattern.AnyP()); err != nil {
				return
			}
		}
	}()
	return done
}

// TestPipelineOrderUnderConcurrency hammers the Net with concurrent
// senders and receivers while auditors query it, then asserts the
// sink-observed order is bit-identical to the global log order.
func TestPipelineOrderUnderConcurrency(t *testing.T) {
	n := NewNet()
	defer n.Close()
	sink := &batchMemSink{}
	n.setSink(sink, 64)

	const senders, perSender = 8, 50
	recvDones := make([]chan struct{}, senders)
	for i := range recvDones {
		recvDones[i] = drainTo(n, fmt.Sprintf("r%d", i), fmt.Sprintf("ch%d", i))
	}
	// Concurrent audits while traffic flows: Audit snapshots the log and
	// in-transit values; it must not disturb (or be disturbed by) the
	// pipeline.
	auditStop := make(chan struct{})
	var auditWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			for {
				select {
				case <-auditStop:
					return
				default:
					if err := n.Audit(); err != nil {
						t.Error(err)
						return
					}
					_ = n.LogLen()
				}
			}
		}()
	}
	var sendWG sync.WaitGroup
	for i := 0; i < senders; i++ {
		sendWG.Add(1)
		go func(i int) {
			defer sendWG.Done()
			nd := n.Register(fmt.Sprintf("s%d", i))
			ch := fmt.Sprintf("ch%d", i)
			for j := 0; j < perSender; j++ {
				v := fmt.Sprintf("v%d_%d", i, j)
				if err := nd.Send(syntax.Fresh(syntax.Chan(ch)), syntax.Fresh(syntax.Chan(v))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	sendWG.Wait()
	for _, d := range recvDones {
		<-d
	}
	close(auditStop)
	auditWG.Wait()

	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	acts := sink.snapshot()
	if len(acts) != n.LogLen() {
		t.Fatalf("sink observed %d actions, log has %d", len(acts), n.LogLen())
	}
	if !logs.Equal(logs.Spine(acts), n.Log()) {
		t.Fatal("sink-observed order differs from the global log order")
	}
	sink.mu.Lock()
	batches := sink.batches
	sink.mu.Unlock()
	if batches >= len(acts) && len(acts) > 100 {
		t.Logf("note: no batching observed (%d batches for %d actions)", batches, len(acts))
	}
}

// TestPipelineBackpressure gates the sink and checks that producers
// genuinely block once the queue bound is hit — and that, once the gate
// opens, everything drains in order with nothing lost.
func TestPipelineBackpressure(t *testing.T) {
	n := NewNet()
	defer n.Close()
	gate := make(chan struct{})
	sink := &batchMemSink{gate: gate}
	n.setSink(sink, 2)

	const total = 30
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		nd := n.Register("p")
		for i := 0; i < total; i++ {
			if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan(fmt.Sprintf("v%d", i)))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// With the sink gated, the producer can get at most one batch in
	// flight plus a full queue plus the one operation that passed the
	// gate before filling it; it must stall far short of total.
	deadline := time.After(2 * time.Second)
	stalled := 0
	for prev := -1; ; {
		select {
		case <-sendDone:
			t.Fatalf("all %d sends completed against a gated sink with queue bound 2: no backpressure", total)
		case <-deadline:
			t.Fatal("log length never stabilised")
		default:
		}
		if l := n.LogLen(); l == prev {
			stalled++
		} else {
			stalled, prev = 0, l
		}
		if stalled >= 20 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if l := n.LogLen(); l >= total {
		t.Fatalf("logged %d of %d actions while the sink was gated", l, total)
	}
	close(gate) // open the sink; every pending batch proceeds
	<-sendDone
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	acts := sink.snapshot()
	if len(acts) != total {
		t.Fatalf("sink observed %d actions, want %d", len(acts), total)
	}
	if !logs.Equal(logs.Spine(acts), n.Log()) {
		t.Fatal("sink-observed order differs from the global log order after backpressure")
	}
}

// TestPipelineFlushConcurrent interleaves Flush with live traffic: every
// nil Flush return promises the sink held the complete log at some
// point at or after the call, so the sink can never be behind the log
// length observed *before* the flush.
func TestPipelineFlushConcurrent(t *testing.T) {
	n := NewNet()
	defer n.Close()
	sink := &batchMemSink{}
	n.setSink(sink, 16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := n.Register(fmt.Sprintf("p%d", i))
			for j := 0; j < 100; j++ {
				if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		for i := 0; i < 50; i++ {
			before := n.LogLen()
			if err := n.Flush(); err != nil {
				t.Error(err)
				return
			}
			sink.mu.Lock()
			got := len(sink.acts)
			sink.mu.Unlock()
			if got < before {
				t.Errorf("after Flush the sink holds %d actions, log had %d before the call", got, before)
				return
			}
		}
	}()
	wg.Wait()
	<-flushDone
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if !logs.Equal(logs.Spine(sink.snapshot()), n.Log()) {
		t.Fatal("final sink order differs from the global log")
	}
}

// TestPipelineCloseDrains: Close must hand everything logged to the
// sink before returning, even with a deliberately tiny queue.
func TestPipelineCloseDrains(t *testing.T) {
	n := NewNet()
	sink := &batchMemSink{}
	n.setSink(sink, 1)
	nd := n.Register("p")
	const total = 25
	for i := 0; i < total; i++ {
		if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	want := n.Log()
	n.Close()
	acts := sink.snapshot()
	if len(acts) != total {
		t.Fatalf("after Close the sink holds %d actions, want %d", len(acts), total)
	}
	if !logs.Equal(logs.Spine(acts), want) {
		t.Fatal("sink order differs from the log after Close drain")
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush after clean Close: %v", err)
	}
	if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close: %v, want ErrClosed", err)
	}
}

// TestPipelineSinkFailureLatch fails the sink mid-stream under
// concurrent senders: the error latches, the mirror detaches holding an
// exact prefix of the log, and later traffic neither reaches the sink
// nor clears the error.
func TestPipelineSinkFailureLatch(t *testing.T) {
	n := NewNet()
	defer n.Close()
	failErr := errors.New("disk full")
	sink := &batchMemSink{failAt: 40, failErr: failErr}
	n.setSink(sink, 8)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := n.Register(fmt.Sprintf("p%d", i))
			for j := 0; j < 50; j++ {
				if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := n.Flush(); !errors.Is(err, failErr) {
		t.Fatalf("Flush = %v, want the latched sink failure", err)
	}
	if err := n.SinkErr(); !errors.Is(err, failErr) {
		t.Fatalf("SinkErr = %v, want the latched sink failure", err)
	}
	// Deterministic audit failure: with the mirror known broken, the
	// audit decision against it is "refuse", every time, not a race on
	// how far the flusher got.
	if n.LogLen() != 200 {
		t.Fatalf("in-memory log has %d actions, want 200 (sends must not fail)", n.LogLen())
	}
	// The sink holds an exact prefix of the log (never a hole): compare
	// elementwise against the oldest-first action sequence.
	var all []logs.Action
	for a := range logs.All(n.Log()) {
		all = append(all, a) // most recent first
	}
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i] // now oldest first
	}
	acts := sink.snapshot()
	if len(acts) > len(all) {
		t.Fatalf("sink holds %d actions, log only %d", len(acts), len(all))
	}
	for i, a := range acts {
		if a != all[i] {
			t.Fatalf("sink action %d = %v, log has %v: mirror is not a prefix", i, a, all[i])
		}
	}
	// Latched: more traffic doesn't reach the sink or change the error.
	nd := n.Register("late")
	if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); !errors.Is(err, failErr) {
		t.Fatalf("error not latched: Flush = %v", err)
	}
	if got := len(sink.snapshot()); got != len(acts) {
		t.Fatalf("detached sink grew from %d to %d actions", len(acts), got)
	}
	// A replacement sink clears the latch and mirrors from here on.
	fresh := &batchMemSink{}
	n.SetSink(fresh)
	if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("replacement sink: %v", err)
	}
	if got := len(fresh.snapshot()); got != 1 {
		t.Fatalf("replacement sink holds %d actions, want 1", got)
	}
}

// TestPipelineRecvTimeoutUnderBackpressure: with the sink stalled and
// the queue full, a receive with a finite timeout must return
// ErrTimeout instead of hanging in the backpressure gate forever.
func TestPipelineRecvTimeoutUnderBackpressure(t *testing.T) {
	n := NewNet()
	defer n.Close()
	gate := make(chan struct{})
	sink := &batchMemSink{gate: gate}
	n.setSink(sink, 1)
	nd := n.Register("p")
	// Saturate the pipeline from a helper goroutine (its sends block on
	// the gated sink; they complete when the gate closes at cleanup):
	// one batch in flight blocked on the gate, a full queue behind it.
	sendsDone := make(chan struct{})
	go func() {
		defer close(sendsDone)
		for i := 0; i < 3; i++ {
			if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	saturated := time.After(5 * time.Second)
	for n.LogLen() < 2 {
		select {
		case <-saturated:
			t.Fatal("pipeline never saturated")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := nd.Recv(syntax.Fresh(syntax.Chan("empty")), 80*time.Millisecond, pattern.AnyP())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Recv under backpressure returned %v, want ErrTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv with a finite timeout hung in the backpressure gate")
	}
	// Open the sink and join the helper before the deferred Close, so
	// its remaining sends complete rather than racing the shutdown.
	close(gate)
	<-sendsDone
}

// TestPipelineFlushUnderSustainedTraffic: Flush waits on a watermark of
// what was logged before the call, so it returns even while senders
// keep the queue nonempty the whole time.
func TestPipelineFlushUnderSustainedTraffic(t *testing.T) {
	n := NewNet()
	defer n.Close()
	sink := &batchMemSink{}
	n.setSink(sink, 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := n.Register(fmt.Sprintf("p%d", i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := nd.Send(syntax.Fresh(syntax.Chan("m")), syntax.Fresh(syntax.Chan("v"))); err != nil {
					return
				}
			}
		}(i)
	}
	flushed := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 10 && err == nil; i++ {
			err = n.Flush()
		}
		flushed <- err
	}()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush never returned under sustained traffic")
	}
	close(stop)
	wg.Wait()
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if !logs.Equal(logs.Spine(sink.snapshot()), n.Log()) {
		t.Fatal("sink order differs from the log")
	}
}
