package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func countAtLeast(v []float64, x float64) int {
	n := 0
	for _, s := range v {
		if s >= x {
			n++
		}
	}
	return n
}

// A sink that stalls must be charged to every request that was due
// while it stalled. The sink here serves one request at a time and
// sleeps 50 ms once; a generator with coordinated omission would stop
// sending during the stall and record one slow sample. Ours keeps its
// schedule, so the ~50 requests due in that window are all sent, all
// queue behind the stall, and all show it in their due-time latency.
func TestOpenLoopStallIsChargedToEveryDueRequest(t *testing.T) {
	var (
		mu       sync.Mutex
		stalled  bool
		inflight atomic.Int64
	)
	loop := &openLoop{rate: 1000, duration: 300 * time.Millisecond, inflight: &inflight,
		send: func(i int) bool {
			mu.Lock()
			defer mu.Unlock()
			if !stalled && i >= 50 {
				stalled = true
				time.Sleep(50 * time.Millisecond)
			}
			return true
		}}
	res := loop.run()
	if res.issued != 300 || res.shed != 0 || res.failed != 0 {
		t.Fatalf("issued %d shed %d failed %d, want 300/0/0: the generator must not slow down with the sink", res.issued, res.shed, res.failed)
	}
	if slow := countAtLeast(res.ack.v, 10); slow < 25 {
		t.Errorf("%d requests show ≥10 ms from their due time; want ≥25 (every request due during the 50 ms stall)", slow)
	}
	if late := summarise(&res.late); late.P95 > 20 {
		t.Errorf("generator lateness p95 = %.1f ms: the sink's stall must not make the generator late", late.P95)
	}
}

// When the generator itself runs late, the delay belongs to the
// request's latency (counted from the due time) and is reported as the
// generator's own lag — while the time from send to reply stays small,
// which is what a send-time clock would wrongly have reported.
func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	var inflight atomic.Int64
	overslept := false
	loop := &openLoop{rate: 1000, duration: 200 * time.Millisecond, inflight: &inflight,
		send: func(int) bool { return true },
		sleep: func(d time.Duration) {
			if !overslept {
				overslept = true
				d += 40 * time.Millisecond
			}
			time.Sleep(d)
		}}
	res := loop.run()
	late, ack := summarise(&res.late), summarise(&res.ack)
	if n := countAtLeast(res.late.v, 10); n < 20 {
		t.Errorf("%d requests sent ≥10 ms late; want ≥20 after a 40 ms oversleep at 1000/s", n)
	}
	if late.P95 < 10 {
		t.Errorf("gen.late p95 = %.1f ms; a 40 ms oversleep over 200 requests must show", late.P95)
	}
	if n := countAtLeast(res.ack.v, 10); n < 20 {
		t.Errorf("%d due-time latencies ≥10 ms; the generator's lag must be counted in the latency (p95 %.1f ms)", n, ack.P95)
	}
	if n := countAtLeast(res.service.v, 10); n > 5 {
		t.Errorf("%d send-time latencies ≥10 ms with an instant sink; only the due-time clock should see the lag", n)
	}
}

// The in-flight cap sheds instead of queueing without bound, and shed
// requests are counted, not failed.
func TestOpenLoopShedsPastTheCap(t *testing.T) {
	var inflight atomic.Int64
	inflight.Store(maxInFlight) // as if a backlog already filled the cap
	loop := &openLoop{rate: 2000, duration: 50 * time.Millisecond, inflight: &inflight,
		send: func(int) bool { return true }}
	res := loop.run()
	if res.issued != 0 || res.shed != 100 || res.failed != 0 {
		t.Fatalf("issued %d shed %d failed %d, want 0/100/0", res.issued, res.shed, res.failed)
	}
}
