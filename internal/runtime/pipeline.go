package runtime

import (
	"time"

	"repro/internal/logs"
)

// This file is the ordered async sink pipeline. The contract it keeps is
// the one the monitored semantics needs: the sink observes *exactly* the
// sequence of actions in the global monitor log, in log order, with no
// holes before the point where mirroring stopped. What changed relative
// to the original synchronous mirror is only *where* the sink I/O runs:
//
//   - Ordering. An action's log position is assigned under the Net mutex
//     (its index in n.log); the same mutex hold appends it to a pending
//     queue, so the queue is always a contiguous suffix of the log. A
//     single flusher goroutine drains the queue in batches and hands
//     each batch to the sink outside the lock. One writer draining a
//     position-ordered queue cannot reorder, so sink order ≡ log order.
//   - Backpressure. The pending queue is bounded (DefaultSinkQueue).
//     Send/RecvSum block — before logging anything, so operations stay
//     atomic in the log — while the queue is full. The bound is soft by
//     one operation's worth of actions: an operation that passed the
//     gate logs all its actions (one per payload, plus the receives of
//     any same-call delivery) without re-checking.
//   - Batching. The flusher takes everything pending in one swap, so a
//     sink (e.g. store.Store) pays one lock/fsync round per drain, not
//     per action. Under load, batches grow to whatever accumulated
//     during the previous sink write — the classic group-commit shape.
//   - Error latching. The first sink failure detaches the sink and is
//     latched in sinkErr: the sink then holds a consistent *prefix* of
//     the log (everything up to the failed batch's failure point, and
//     nothing after), never a log with a hole, so a replayed audit
//     against it can disagree with the live log only by knowing less,
//     not by knowing wrong facts. Flush returns the latched error, so
//     "drain, then check" is a deterministic way to fail an audit that
//     depends on the mirror being complete.
//   - Draining. Flush blocks until everything logged so far has been
//     handed to the sink (or the sink failed). Close drains the
//     pipeline before returning, so a clean shutdown never truncates
//     the mirror.
//
// All pipeline state is guarded by the Net mutex; sinkCond (a single
// condition variable, broadcast on every state transition) carries the
// producer↔flusher↔drainer handoffs.

// DefaultSinkQueue is the pending-queue bound used by SetSink: a
// stalled sink back-pressures the network after ~4096 unflushed
// actions.
const DefaultSinkQueue = 4096

// SetSink installs an action sink mirroring the global log through the
// ordered async pipeline (nil disables mirroring; the previous sink is
// drained first either way). Actions already logged are not replayed
// into the sink. Installing a sink clears any previous mirror failure,
// so a health check on SinkErr reflects the current sink.
//
// The sink runs on the pipeline's flusher goroutine, outside the Net
// mutex, so it may be slow without throttling the network until the
// queue bound is hit — but it must still not call back into this Net
// (Flush from inside the sink would self-deadlock the drain). An action
// the sink cannot represent detaches the mirror like any other failure
// (store.Store documents its constraints as ErrInvalidAction), so
// register principals the sink can store.
func (n *Net) SetSink(s Sink) { n.setSink(s, DefaultSinkQueue) }

// setSink is SetSink with an explicit pending-queue bound (at least 1):
// the network blocks once queue actions await the sink.
func (n *Net) setSink(s Sink, queue int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Drain the previous pipeline before swapping: the old sink must end
	// holding a consistent prefix of the log, not lose whatever was
	// still queued for it. The draining counter closes the enqueue gate,
	// so the wait is bounded even under sustained traffic — actions
	// logged while the swap is in progress fall into an unmirrored
	// window (they reach neither sink), exactly as if no sink had been
	// installed for that instant. (If the old sink fails mid-drain the
	// queue is dropped with it and the wait ends.)
	n.draining++
	for n.sinkErr == nil && (len(n.pend) > 0 || n.inflight > 0) {
		n.sinkCond.Wait()
	}
	n.draining--
	n.sink = s
	n.sinkErr = nil
	n.maxPend = queue
	if s != nil && !n.closed && n.flusherDone == nil {
		n.flusherDone = make(chan struct{})
		go n.flusher(n.flusherDone)
	}
	n.sinkCond.Broadcast() // the gate reopened (or closed, if s is nil)
}

// Flush blocks until every action logged before the call has been
// written to the sink (or until the sink fails), then returns the
// latched mirror error. A nil return means the sink holds the complete
// log as of some point at or after the call began — the precondition
// for auditing against the mirror instead of the live Net. The wait is
// a watermark, not an empty-queue condition: actions logged *after*
// Flush was called do not extend it, so Flush returns promptly even
// under sustained concurrent traffic.
func (n *Net) Flush() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Everything logged before this call is accounted for in one of:
	// already written (mirrored), held by the flusher (inflight), or
	// still queued (pend) — each action was enqueued under this mutex
	// in the same critical section that logged it.
	target := n.mirrored + n.dropped + uint64(n.inflight) + uint64(len(n.pend))
	for n.sinkErr == nil && n.mirrored+n.dropped < target {
		n.sinkCond.Wait()
	}
	return n.sinkErr
}

// SinkErr reports the error that stopped the mirror, if any, without
// draining. A failed mirror does not fail the send/receive that
// triggered it: the in-memory log remains authoritative, mirroring is
// detached (so the sink holds a consistent prefix of the log rather
// than a log with a hole in it), and the error is latched here for the
// operator. With the async pipeline the failure surfaces when the
// flusher reaches the bad action, not in the call that logged it; use
// Flush to observe it deterministically.
func (n *Net) SinkErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sinkErr
}

// enqueueSinkLocked hands one just-logged action to the mirror; callers
// hold the Net mutex and have already appended the action to n.log, so
// the pending queue order is the log order.
func (n *Net) enqueueSinkLocked(a logs.Action) {
	if n.sink == nil || n.draining > 0 {
		// No sink, or a SetSink swap in progress: the action is not
		// mirrored (the unmirrored window setSink documents).
		return
	}
	n.pend = append(n.pend, a)
	if len(n.pend) == 1 {
		// Empty→nonempty is the only transition the flusher sleeps
		// through; every other waiter is woken by the flusher itself.
		n.sinkCond.Broadcast()
	}
}

// sinkFullLocked reports whether the pipeline is exerting backpressure:
// a sink is installed, no swap is in progress, and the pending
// queue is at its bound.
func (n *Net) sinkFullLocked() bool {
	return n.sink != nil && n.draining == 0 && len(n.pend) >= n.maxPend
}

// waitSinkSpaceLocked blocks while the pipeline's pending queue is
// full, up to timeout (zero means wait indefinitely), returning
// ErrClosed if the Net closed and ErrTimeout if the timeout elapsed
// first. Called at the top of each logging operation, before any action
// is logged, so a whole operation's actions enter the log (and queue)
// atomically.
func (n *Net) waitSinkSpaceLocked(timeout time.Duration) error {
	if n.closed {
		return ErrClosed
	}
	if !n.sinkFullLocked() {
		return nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// Wake this waiter when the deadline passes; sync.Cond has no
		// timed wait. A spurious broadcast after Stop is harmless.
		t := time.AfterFunc(timeout, func() {
			n.mu.Lock()
			n.sinkCond.Broadcast()
			n.mu.Unlock()
		})
		defer t.Stop()
	}
	for !n.closed && n.sinkFullLocked() {
		if timeout > 0 && !time.Now().Before(deadline) {
			return ErrTimeout
		}
		n.sinkCond.Wait()
	}
	if n.closed {
		return ErrClosed
	}
	return nil
}

// flusher is the pipeline's single consumer: it drains the pending
// queue in batches and writes each batch to the sink outside the Net
// mutex. It exits once the Net is closed and the queue is drained.
func (n *Net) flusher(done chan struct{}) {
	defer close(done)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		for len(n.pend) == 0 && !n.stopping {
			n.sinkCond.Wait()
		}
		if len(n.pend) == 0 {
			return // stopping and fully drained
		}
		batch := n.pend
		n.pend = nil
		sink := n.sink
		n.inflight = len(batch)
		// Grabbing the batch empties the queue: wake backpressured
		// producers NOW, so they refill it while the sink write runs —
		// that overlap is the pipeline's whole point. The post-write
		// broadcast below covers the drain/error waiters.
		n.sinkCond.Broadcast()
		n.mu.Unlock()
		var err error
		if sink != nil {
			err = sink.AppendActions(batch)
		}
		n.mu.Lock()
		n.inflight = 0
		if err == nil {
			n.mirrored += uint64(len(batch))
		}
		if err != nil && n.sink == sink {
			// Latch and detach. The queue is dropped with the sink:
			// continuing past a missed action would leave a silent hole
			// mid-mirror, and a replayed audit against a holed log can
			// return different verdicts than the live one. A prefix is
			// consistent; a hole is not.
			n.sinkErr = err
			n.sink = nil
			// The failed batch and the queue are dropped with the sink
			// (counted so drain watermarks stay reachable after a
			// replacement sink clears the latch).
			n.dropped += uint64(len(batch)) + uint64(len(n.pend))
			n.pend = nil
		}
		n.sinkCond.Broadcast() // space freed / drain progressed / error latched
	}
}
