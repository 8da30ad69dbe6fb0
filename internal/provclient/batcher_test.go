package provclient

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/testutil"
)

// The ack-clocked batcher, pinned deterministically: every test holds
// one request in flight behind the fault proxy (the server has answered,
// the client has not heard) for exactly as long as it needs, and waits
// on events — a reply caught, an Append joined, an Append returned —
// never on the clock.

type appendResult struct {
	seq uint64
	err error
}

// invalid is an action the store rejects up front (empty principal), so
// the request carrying it comes back as a *ServerError.
var invalid = logs.Action{Kind: logs.Snd, A: logs.NameT("m"), B: logs.NameT("v")}

// batcherRig is a backend behind a fault proxy and a client dialing the
// proxy.
type batcherRig struct {
	t     *testing.T
	srv   *ingest.Server
	proxy *testutil.Proxy
	c     *Client
}

func newBatcherRig(t *testing.T, opts Options) *batcherRig {
	t.Helper()
	srv, _, addr := newBackend(t, ingest.Options{})
	proxy, err := testutil.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	c := New(proxy.Addr(), opts)
	t.Cleanup(func() { c.Close() })
	return &batcherRig{t: t, srv: srv, proxy: proxy, c: c}
}

// openLen is the size of the open group (0 when there is none).
func (r *batcherRig) openLen() int {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.c.cur == nil {
		return 0
	}
	return len(r.c.cur.acts)
}

// appendAsync starts an Append and returns once it has joined a group
// (the open group changed: grew, or was shipped by this very join).
func (r *batcherRig) appendAsync(a logs.Action) <-chan appendResult {
	r.t.Helper()
	before, idle := r.openLen(), r.inFlight() == 0
	ch := make(chan appendResult, 1)
	go func() {
		seq, err := r.c.Append(a)
		ch <- appendResult{seq, err}
	}()
	if idle {
		// An idle client ships the join at once: the event is the group
		// being in flight, not the open group growing.
		r.waitFor("the append to ship", func() bool { return r.inFlight() > 0 })
	} else {
		r.waitFor("the append to join", func() bool { return r.openLen() != before })
	}
	return ch
}

func (r *batcherRig) inFlight() int {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return len(r.c.flight)
}

func (r *batcherRig) waitFor(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// holdFirst sends a as the client's first group and returns with its
// reply caught at the proxy: the group is in flight until release.
func (r *batcherRig) holdFirst(a logs.Action) (first <-chan appendResult, release func()) {
	r.t.Helper()
	held, release := r.proxy.ArmReplyHold()
	r.t.Cleanup(release)
	first = r.appendAsync(a)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		r.t.Fatal("the first request's reply never reached the proxy")
	}
	return first, release
}

func (r *batcherRig) requests() uint64 { return r.srv.Stats().Requests }

// TestAppendIdleShipsAtOnce: N sequential Appends on an idle client are
// N requests of one action each. Nothing else could ship them — no
// other appender, no Flush, and the client has no deadline — so each
// returning at all shows it left on its own.
func TestAppendIdleShipsAtOnce(t *testing.T) {
	r := newBatcherRig(t, Options{})
	const n = 20
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := r.c.Append(act("p", i))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && seq != last+1 {
			t.Fatalf("append %d: seq %d after %d", i, seq, last)
		}
		last = seq
	}
	if got := r.requests(); got != n {
		t.Fatalf("%d requests for %d sequential appends on an idle client, want %d", got, n, n)
	}
}

// TestAppendJoinsWhileInFlight: K Appends issued while a request is in
// flight leave as exactly one follow-up request, and its members get
// base+idx in join order.
func TestAppendJoinsWhileInFlight(t *testing.T) {
	r := newBatcherRig(t, Options{Conns: 1})
	first, release := r.holdFirst(act("p", 0))
	const k = 16
	joined := make([]<-chan appendResult, k)
	for i := range joined {
		joined[i] = r.appendAsync(act("q", i))
	}
	if got := r.openLen(); got != k {
		t.Fatalf("open group holds %d actions, want %d", got, k)
	}
	if got := r.requests(); got != 1 {
		t.Fatalf("%d requests while the first is in flight, want 1", got)
	}
	release()
	res := <-first
	if res.err != nil {
		t.Fatal(res.err)
	}
	var base uint64
	for i, ch := range joined {
		res := <-ch
		if res.err != nil {
			t.Fatalf("joined append %d: %v", i, res.err)
		}
		if i == 0 {
			base = res.seq
		} else if res.seq != base+uint64(i) {
			t.Fatalf("joined append %d: seq %d, want base %d + %d", i, res.seq, base, i)
		}
	}
	if got := r.requests(); got != 2 {
		t.Fatalf("%d requests for 1+%d appends, want 2", got, k)
	}
}

// TestFailedGroupReleasesOpenGroup: the in-flight group coming back
// rejected clocks the open group out all the same, and the rejection
// stays with the group that earned it.
func TestFailedGroupReleasesOpenGroup(t *testing.T) {
	r := newBatcherRig(t, Options{Conns: 1})
	first, release := r.holdFirst(invalid)
	a, b := r.appendAsync(act("p", 0)), r.appendAsync(act("p", 1))
	release()
	var srvErr *ServerError
	if res := <-first; !errors.As(res.err, &srvErr) {
		t.Fatalf("rejected group: got %v, want *ServerError", res.err)
	}
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("open group behind a failed one: %v, %v", ra.err, rb.err)
	}
	if rb.seq != ra.seq+1 {
		t.Fatalf("open group seqs %d, %d: want consecutive", ra.seq, rb.seq)
	}
	if got := r.requests(); got != 2 {
		t.Fatalf("%d requests, want 2", got)
	}
}

// TestServerErrorStaysInItsGroup: a rejection reaches every member of
// the rejected group — the store refuses the whole request — and nobody
// outside it.
func TestServerErrorStaysInItsGroup(t *testing.T) {
	r := newBatcherRig(t, Options{Conns: 1})
	first, release := r.holdFirst(act("p", 0))
	members := []<-chan appendResult{r.appendAsync(act("p", 1)), r.appendAsync(invalid), r.appendAsync(act("p", 2))}
	release()
	if res := <-first; res.err != nil {
		t.Fatalf("group before the rejected one: %v", res.err)
	}
	for i, ch := range members {
		var srvErr *ServerError
		if res := <-ch; !errors.As(res.err, &srvErr) {
			t.Fatalf("member %d of the rejected group: got %v, want *ServerError", i, res.err)
		}
	}
	if _, err := r.c.Append(act("p", 3)); err != nil {
		t.Fatalf("group after the rejected one: %v", err)
	}
}

// TestMaxBatchShipsWithoutAck: a group that fills up leaves at once,
// in-flight request or not (on the pool's other connection here, so its
// ack is not queued behind the held one).
func TestMaxBatchShipsWithoutAck(t *testing.T) {
	const maxBatch = 4
	r := newBatcherRig(t, Options{Conns: 2, MaxBatch: maxBatch})
	first, release := r.holdFirst(act("p", 0))
	full := make([]<-chan appendResult, maxBatch)
	for i := range full {
		full[i] = r.appendAsync(act("q", i))
	}
	for i, ch := range full {
		if res := <-ch; res.err != nil { // returns while the first request is still held
			t.Fatalf("append %d of the full group: %v", i, res.err)
		}
	}
	release()
	if res := <-first; res.err != nil {
		t.Fatal(res.err)
	}
}

// TestFlushAndCloseWaitForEveryGroup: with one group in flight and
// another open — the normal state under an ack clock — Flush and Close
// ship the open group and wait for both. The in-flight group is a
// rejected one, so waiting for it shows in the return value whatever
// the timing: a Flush or Close that waited only for the group it
// shipped would return nil.
func TestFlushAndCloseWaitForEveryGroup(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*Client) error
	}{
		{"Flush", (*Client).Flush},
		{"Close", (*Client).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newBatcherRig(t, Options{Conns: 2})
			first, release := r.holdFirst(invalid)
			open := r.appendAsync(act("p", 0))
			done := make(chan error, 1)
			go func() { done <- tc.call(r.c) }()
			// The open group leaves on the other connection and is acked
			// while the first is still held.
			if res := <-open; res.err != nil {
				t.Fatalf("open group: %v", res.err)
			}
			release()
			var srvErr *ServerError
			if err := <-done; !errors.As(err, &srvErr) {
				t.Fatalf("%s returned %v, want the in-flight group's *ServerError", tc.name, err)
			}
			// Accepted before the call, so answered by the server, not by
			// the teardown.
			if res := <-first; !errors.As(res.err, &srvErr) {
				t.Fatalf("in-flight append got %v, want *ServerError", res.err)
			}
			if tc.name == "Close" {
				if _, err := r.c.Append(act("p", 1)); !errors.Is(err, ErrClosed) {
					t.Fatalf("append after close: %v", err)
				}
			}
		})
	}
}
