// Package runtime is a concurrent implementation of the paper's two-tier
// architecture: principals run as goroutines (or remote processes, see the
// TCP transport) and a trusted middleware tier performs all provenance
// tracking, exactly as footnote 1 of the paper prescribes ("in a typical
// implementation of our language, we would assign the provenance tracking
// tier to a trusted underlying middleware").
//
// The middleware (Net) implements the provenance-tracking semantics
// operationally:
//
//   - Send stamps each payload with the output event a!κₘ (rule R-Send)
//     and either hands it to a compatible blocked receiver or queues it.
//   - Recv blocks until a message on the channel satisfies one of the
//     receiver's patterns, then stamps the payloads with the input event
//     a?κₘ (rule R-Recv) before delivery. Pattern vetting happens in the
//     middleware, so principals cannot consume data their patterns reject.
//   - Every send and receive is appended to a global monitor log, giving
//     the monitored semantics of §3.3; Audit replays Definition 3 against
//     the live log.
//
// Principals never manipulate provenance directly: the API accepts and
// returns annotated values, but the annotations are written only by the
// middleware. This is what defeats the forgery problem of §1 — a principal
// b cannot make its data carry a's output event.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/syntax"
)

// Errors returned by the middleware API.
var (
	ErrClosed       = errors.New("runtime: middleware closed")
	ErrTimeout      = errors.New("runtime: receive timed out")
	ErrNotChannel   = errors.New("runtime: subject is not a channel name")
	ErrArity        = errors.New("runtime: pattern/payload arity mismatch")
	ErrUnregistered = errors.New("runtime: principal not registered")
)

// Branch is one alternative of a guarded receive: a tuple of patterns, one
// per expected payload component.
type Branch []syntax.Pattern

// Delivery is the result of a successful receive: the branch that matched
// and the payloads with their middleware-updated provenance.
type Delivery struct {
	Branch  int
	Payload []syntax.AnnotatedValue
}

// waiter is a blocked receiver registered with the middleware.
type waiter struct {
	principal string
	chanProv  syntax.Prov
	branches  []Branch
	reply     chan Delivery
}

// match returns the index of the first branch accepting the message, or -1.
func (w *waiter) match(m *syntax.Message) int {
	for bi, b := range w.branches {
		if len(b) != len(m.Payload) {
			continue
		}
		ok := true
		for i, pat := range b {
			if !pat.Matches(m.Payload[i].K) {
				ok = false
				break
			}
		}
		if ok {
			return bi
		}
	}
	return -1
}

// Net is the trusted middleware: the only component that reads and writes
// provenance annotations and the global log.
type Net struct {
	mu      sync.Mutex
	closed  bool
	queues  map[string][]*syntax.Message
	waiters map[string][]*waiter
	// log holds the global monitor log actions, oldest first (reversed
	// into a logs.Log spine on demand).
	log []logs.Action
	// nodes tracks registered principals (diagnostics only).
	nodes map[string]int
	// faults, when non-nil, injects message loss/duplication (see Faults).
	faults *Faults
	// sink, when non-nil, receives a copy of every logged action (e.g. a
	// durable store.Store); sinkErr latches the first mirror failure.
	// Mirroring runs through the ordered async pipeline (pipeline.go).
	sink    Sink
	sinkErr error
	// pend holds actions logged but not yet handed to the sink, in log
	// order; maxPend bounds it (backpressure). inflight counts the
	// actions of the batch the flusher currently holds, mirrored counts
	// the actions the sink has accepted so far (together they form the
	// drain watermarks Flush waits on), draining counts setSink calls
	// waiting out the old sink, stopping marks shutdown, and flusherDone
	// is closed when the flusher exits. sinkCond (on mu) carries all
	// pipeline handoffs.
	pend        []logs.Action
	maxPend     int
	inflight    int
	mirrored    uint64
	dropped     uint64
	draining    int
	stopping    bool
	flusherDone chan struct{}
	sinkCond    sync.Cond
}

// Sink receives every action appended to the global monitor log, in log
// order, a drained batch at a time. A durable implementation (such as
// internal/store, in process, or internal/provclient mirroring to a
// remote provd over the binary ingest protocol) makes the monitored run
// replayable after a restart, and amortises per-append overhead over the
// batch (one stripe-lock round and one fsync per batch in store.Store).
// The pipeline calls the sink from a dedicated goroutine outside the
// middleware lock (see pipeline.go for the ordering/backpressure
// contract).
//
// AppendActions must apply a prefix of the batch on failure — actions
// after the failure point must not be written — so the detached sink
// still holds a consistent prefix of the log.
//
// Mirror into a store opened without Options.Fsync (batch durability via
// Sync) unless per-batch durability is worth the fsync latency. An
// action the sink cannot represent detaches the mirror like any other
// failure (store.Store documents its constraints as ErrInvalidAction:
// principals must be nonempty, at most store.MaxPrincipalLen bytes, and
// not the reserved redaction marker), so register principals the sink
// can store.
type Sink interface {
	AppendActions(batch []logs.Action) error
}

// logLocked appends an action to the global monitor log and hands it to
// the mirror pipeline; callers hold the net lock. The action's log
// position is fixed here, under the lock — everything downstream
// preserves it.
func (n *Net) logLocked(a logs.Action) {
	n.log = append(n.log, a)
	n.enqueueSinkLocked(a)
}

// NewNet creates an empty middleware.
func NewNet() *Net {
	n := &Net{
		queues:  make(map[string][]*syntax.Message),
		waiters: make(map[string][]*waiter),
		nodes:   make(map[string]int),
	}
	n.sinkCond.L = &n.mu
	return n
}

// Node is a principal's capability to use the middleware. All operations
// performed through a Node are attributed to its principal.
type Node struct {
	net       *Net
	principal string
}

// Register adds a principal to the network and returns its Node. Multiple
// registrations of the same principal share attribution (like several
// threads of one located process).
func (n *Net) Register(principal string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[principal]++
	return &Node{net: n, principal: principal}
}

// Close shuts the middleware down; blocked receivers return ErrClosed.
// The sink pipeline is drained before Close returns, so a clean
// shutdown leaves the mirror holding the complete log (check SinkErr —
// or Flush, which is equivalent after Close — for a mirror that failed
// along the way).
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, ws := range n.waiters {
		for _, w := range ws {
			close(w.reply)
		}
	}
	n.waiters = make(map[string][]*waiter)
	n.stopping = true
	n.sinkCond.Broadcast() // wake the flusher and any backpressured producers
	done := n.flusherDone
	n.mu.Unlock()
	if done != nil {
		<-done // the flusher drains the pending queue before exiting
	}
}

// Principal returns the principal this node acts for.
func (nd *Node) Principal() string { return nd.principal }

// Send implements rule R-Send as a middleware operation: each payload is
// stamped with the output event principal!κₘ and the action is logged.
// Send never blocks on receivers (messages queue until received), but a
// backpressured sink pipeline — an attached mirror whose pending queue
// is full — makes it wait for queue space before logging (see SetSink).
func (nd *Node) Send(ch syntax.AnnotatedValue, payload ...syntax.AnnotatedValue) error {
	if ch.V.Kind != syntax.KindChannel {
		return fmt.Errorf("%w: %s", ErrNotChannel, ch.V.Name)
	}
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.waitSinkSpaceLocked(0); err != nil {
		return err
	}
	ev := syntax.OutEvent(nd.principal, ch.K)
	msg := &syntax.Message{Chan: ch.V.Name, Payload: make([]syntax.AnnotatedValue, len(payload))}
	for i, v := range payload {
		msg.Payload[i] = syntax.Annot(v.V, v.K.Push(ev))
		n.logLocked(logs.SndAct(nd.principal, logs.NameT(ch.V.Name), logs.NameT(v.V.Name)))
	}
	// Fault injection: the send happened (and is logged); the network may
	// lose or duplicate the message in flight.
	copies := n.faults.copies()
	for c := 0; c < copies; c++ {
		delivered := false
		// Hand to the first compatible blocked receiver, if any.
		ws := n.waiters[msg.Chan]
		for i, w := range ws {
			if bi := w.match(msg); bi >= 0 {
				n.waiters[msg.Chan] = append(ws[:i:i], ws[i+1:]...)
				w.reply <- n.deliverLocked(w, bi, msg)
				delivered = true
				break
			}
		}
		if !delivered {
			n.queues[msg.Chan] = append(n.queues[msg.Chan], msg)
		}
	}
	return nil
}

// deliverLocked stamps the input event and logs the receive; callers hold
// the net lock.
func (n *Net) deliverLocked(w *waiter, branch int, msg *syntax.Message) Delivery {
	ev := syntax.InEvent(w.principal, w.chanProv)
	out := make([]syntax.AnnotatedValue, len(msg.Payload))
	for i, v := range msg.Payload {
		out[i] = syntax.Annot(v.V, v.K.Push(ev))
		n.logLocked(logs.RcvAct(w.principal, logs.NameT(msg.Chan), logs.NameT(v.V.Name)))
	}
	return Delivery{Branch: branch, Payload: out}
}

// Recv implements rule R-Recv for a single branch: it blocks until a
// message on ch satisfies pats componentwise, then returns the payloads
// stamped with the input event. A zero timeout blocks indefinitely.
func (nd *Node) Recv(ch syntax.AnnotatedValue, timeout time.Duration, pats ...syntax.Pattern) ([]syntax.AnnotatedValue, error) {
	d, err := nd.RecvSum(ch, timeout, Branch(pats))
	if err != nil {
		return nil, err
	}
	return d.Payload, nil
}

// RecvSum implements the input-guarded sum: it blocks until a message on
// ch satisfies one of the branches and reports which branch fired. If
// several queued messages match, the oldest matching message is taken; if
// several branches match it, the first such branch is chosen (the calculus
// leaves this nondeterministic; the middleware resolves it fairly by
// arrival order).
func (nd *Node) RecvSum(ch syntax.AnnotatedValue, timeout time.Duration, branches ...Branch) (Delivery, error) {
	if ch.V.Kind != syntax.KindChannel {
		return Delivery{}, fmt.Errorf("%w: %s", ErrNotChannel, ch.V.Name)
	}
	if len(branches) == 0 {
		return Delivery{}, fmt.Errorf("%w: receive needs at least one branch", ErrArity)
	}
	n := nd.net
	start := time.Now()
	n.mu.Lock()
	// Backpressure gate: a receive that matches a queued message logs
	// its input actions, so it must wait for sink queue space like a
	// send does — but bounded by the caller's timeout, which governs
	// the whole receive (time spent here is deducted from the budget
	// left for the delivery wait below).
	if err := n.waitSinkSpaceLocked(timeout); err != nil {
		n.mu.Unlock()
		return Delivery{}, err
	}
	if timeout > 0 {
		if timeout = timeout - time.Since(start); timeout <= 0 {
			// Budget spent at the gate, but a queued match is still
			// served: the queue check below runs before any timer.
			timeout = time.Nanosecond
		}
	}
	w := &waiter{
		principal: nd.principal,
		chanProv:  ch.K,
		branches:  branches,
		reply:     make(chan Delivery, 1),
	}
	// Check the queue first (oldest message wins).
	q := n.queues[ch.V.Name]
	for i, msg := range q {
		if bi := w.match(msg); bi >= 0 {
			n.queues[ch.V.Name] = append(q[:i:i], q[i+1:]...)
			d := n.deliverLocked(w, bi, msg)
			n.mu.Unlock()
			return d, nil
		}
	}
	n.waiters[ch.V.Name] = append(n.waiters[ch.V.Name], w)
	n.mu.Unlock()

	if timeout <= 0 {
		d, ok := <-w.reply
		if !ok {
			return Delivery{}, ErrClosed
		}
		return d, nil
	}
	select {
	case d, ok := <-w.reply:
		if !ok {
			return Delivery{}, ErrClosed
		}
		return d, nil
	case <-time.After(timeout):
		// Deregister; a concurrent delivery may have raced the timer.
		n.mu.Lock()
		ws := n.waiters[ch.V.Name]
		for i, cand := range ws {
			if cand == w {
				n.waiters[ch.V.Name] = append(ws[:i:i], ws[i+1:]...)
				break
			}
		}
		n.mu.Unlock()
		select {
		case d, ok := <-w.reply:
			if ok {
				return d, nil
			}
			return Delivery{}, ErrClosed
		default:
			return Delivery{}, ErrTimeout
		}
	}
}

// Log snapshots the global monitor log as a logs.Log with the most recent
// action at the head, as in the monitored semantics.
func (n *Net) Log() logs.Log {
	n.mu.Lock()
	defer n.mu.Unlock()
	return logs.Spine(n.log)
}

// LogLen returns the number of logged actions.
func (n *Net) LogLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.log)
}

// Pending returns the number of undelivered messages on a channel.
func (n *Net) Pending(ch string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queues[ch])
}

// Audit applies Definition 3 to the live state: the denotation of every
// queued (in-transit) annotated value must be ≼ the global log. It returns
// nil if the middleware state has correct provenance, or a description of
// the first violating value.
func (n *Net) Audit() error {
	n.mu.Lock()
	var vals []syntax.AnnotatedValue
	for _, q := range n.queues {
		for _, m := range q {
			vals = append(vals, m.Payload...)
		}
	}
	n.mu.Unlock()
	return n.audit(vals...)
}

// AuditValue checks a single annotated value (e.g. one held by a
// principal) against the global log.
func (n *Net) AuditValue(v syntax.AnnotatedValue) error {
	return n.audit(v)
}

// audit decides ⟦v⟧ ≼ φ for each value against the global log as it
// stands, with logs.LeSpine over the logged actions instead of a built
// spine. n.log is append-only, so the capped prefix taken under the
// lock stays valid after it.
func (n *Net) audit(vals ...syntax.AnnotatedValue) error {
	n.mu.Lock()
	log := n.log[:len(n.log):len(n.log)]
	n.mu.Unlock()
	at := func(i int) logs.Action { return log[i] }
	for _, v := range vals {
		if !logs.LeSpine(denote.Denote(v), len(log), at, nil) {
			return fmt.Errorf("runtime: value %s has provenance not justified by the global log", v)
		}
	}
	return nil
}
