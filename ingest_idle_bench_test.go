package repro_test

// BenchmarkIngestIdleConns measures what an *idle* connection costs the
// ingest listener, at 100 / 1k / 10k established connections. Each
// sub-benchmark dials N raw binary-protocol clients (hello, then one
// batch each) so every connection is fully active once, then waits for
// every connection to idle-park. At that point it reports, per tier:
//
//	goroutines   — runtime.NumGoroutine() with all N conns parked: N +
//	               O(1) by design, one sentry goroutine blocked in a
//	               one-byte read per parked conn.
//	heap-B/conn  — (heap-in-use parked − heap-in-use before dialing)/N,
//	               after a forced GC. Includes the client half of each
//	               loopback conn, so it is an upper bound on the
//	               server-side cost. Goroutine stacks are not heap.
//	stack-B/conn — (stack-in-use parked − stack-in-use before dialing)/N,
//	               after the same GC: what the sentries cost.
//	p50-wake-ns,
//	p99-wake-ns  — median and p99 of wake-to-ack: one batch sent to a
//	               (re)parked conn, timed to its durable ack. The timed loop
//	               round-robins, so with IdlePark at 5ms every revisit
//	               finds the conn parked again and pays the real
//	               unpark cost.
//
// The 10k tier needs ~2×10k+slack file descriptors (both halves of
// every loopback conn live in this process); the benchmark tries to
// raise RLIMIT_NOFILE and skips the tier if the limit won't budge.
// BENCH_IDLE_CONNS_MAX=<n> drops tiers above n (CI uses this to keep
// runner fd limits and wall-clock in check).

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// idleConn is the minimal client for the idle benchmark: one socket,
// one stream encoder/decoder pair whose pooled buffers are released
// between appends so the client side of a parked conn is as close to
// free as the server side claims to be.
type idleConn struct {
	c   net.Conn
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder
	e   *wire.Encoder
	seq uint64 // the last batch sequence appendOne used
}

// dialIdle connects and opens the connection's session.
func dialIdle(addr, session string) (*idleConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	ic := &idleConn{c: c, enc: wire.NewStreamEncoder(c), dec: wire.NewStreamDecoder(c), e: wire.NewEncoder()}
	ic.e.IngestHello(wire.IngestV2, session)
	if err := ic.exchange(wire.OpIngestHelloAck); err != nil {
		c.Close()
		return nil, err
	}
	return ic, nil
}

// appendOne sends a one-action batch and blocks until its ack.
func (ic *idleConn) appendOne(id uint64, act logs.Action) error {
	ic.seq++
	ic.e.Reset()
	ic.e.IngestBatch2(id, ic.seq, []logs.Action{act})
	return ic.exchange(wire.OpIngestAck)
}

// exchange sends the encoded frame and blocks until a reply of kind
// want, then releases the stream buffers back to the wire pool.
func (ic *idleConn) exchange(want byte) error {
	if err := ic.enc.Envelope(ic.e.Bytes()); err != nil {
		return err
	}
	if err := ic.enc.Flush(); err != nil {
		return err
	}
	ic.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	env, err := ic.dec.Envelope()
	if err != nil {
		return err
	}
	m, err := wire.DecodeIngest(env)
	if err != nil {
		return err
	}
	if m.Op != want {
		return fmt.Errorf("conn got op %#x (err %q), want %#x", m.Op, m.Msg, want)
	}
	ic.enc.ReleaseBuffers()
	ic.dec.ReleaseBuffers()
	return nil
}

func idleConnTiers() []int {
	tiers := []int{100, 1000, 10000}
	// BENCH_IDLE_CONNS_TIERS replaces the tier list outright — for
	// boxes whose fd ceiling sits just under a standard tier (a 20000
	// hard cap fits 9000 loopback conns, not 10000).
	if env := os.Getenv("BENCH_IDLE_CONNS_TIERS"); env != "" {
		tiers = nil
		for _, f := range strings.Split(env, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil && v > 0 {
				tiers = append(tiers, v)
			}
		}
	}
	limit := 1 << 30
	if env := os.Getenv("BENCH_IDLE_CONNS_MAX"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			limit = v
		}
	}
	var out []int
	for _, n := range tiers {
		if n <= limit {
			out = append(out, n)
		}
	}
	return out
}

func BenchmarkIngestIdleConns(b *testing.B) {
	for _, n := range idleConnTiers() {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) { benchIdleConns(b, n) })
	}
}

func benchIdleConns(b *testing.B, n int) {
	need := uint64(2*n + 512)
	if have := raiseFDLimit(need); have < need {
		b.Skipf("need %d fds for %d loopback conns, limit is %d", need, n, have)
	}

	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := ingest.NewServer(st, ingest.Options{IdlePark: 5 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBefore, stackBefore := ms.HeapInuse, ms.StackInuse

	// Dial and warm all N conns through a small worker pool: one batch
	// each, acked, so every connection has been identified and has been
	// through a full commit round before it goes idle.
	conns := make([]*idleConn, n)
	errs := make(chan error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ic, err := dialIdle(addr, fmt.Sprintf("idle-%d", i))
				if err == nil {
					conns[i] = ic
					err = ic.appendOne(1, benchAct(i%256, 0))
				}
				if err != nil {
					errs <- fmt.Errorf("conn %d: %w", i, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	defer func() {
		for _, ic := range conns {
			if ic != nil {
				ic.c.Close()
			}
		}
	}()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}

	// Everything parked: the tier's resting state.
	deadline := time.Now().Add(2 * time.Minute)
	for srv.Stats().Parked < uint64(n) {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d conns parked", srv.Stats().Parked, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	goroutines := runtime.NumGoroutine()
	perConn := func(after, before uint64) float64 {
		if after <= before {
			return 0
		}
		return float64(after-before) / float64(n)
	}
	heapPerConn := perConn(ms.HeapInuse, heapBefore)
	stackPerConn := perConn(ms.StackInuse, stackBefore)

	// Wake-to-ack: round-robin over the parked fleet, one small batch
	// per op, timed to the durable ack.
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	id := uint64(2)
	for i := 0; i < b.N; i++ {
		ic := conns[i%n]
		start := time.Now()
		if err := ic.appendOne(id, benchAct(i%256, i)); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
		id++
	}
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)/2]), "p50-wake-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-wake-ns")
	}
	b.ReportMetric(float64(goroutines), "goroutines")
	b.ReportMetric(heapPerConn, "heap-B/conn")
	b.ReportMetric(stackPerConn, "stack-B/conn")
	b.ReportMetric(float64(srv.Stats().Wakes), "wakes")
}
