package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logs"
	"repro/internal/syntax"
)

// Relay-chain generator. Every workload's records come from here, so
// every workload has claims whose verdict is known before the audit
// runs: principal p0 sends a fresh value v on a channel, p1 receives it
// and forwards it, and so on, which is exactly the history the paper's
// provenance v : p_k?;p_{k-1}!;… asserts (Definition 2). A chain of L
// actions gives justified claims of every provenance length 0..L; a
// claim with one principal swapped for one that never touched v is
// unjustified.

const (
	maxChainLen = 8 // provenance length 0–8
	openChains  = 8 // chains interleaved at any moment, so chains span batches
	keptChains  = 256
	// mallory never acts, so any claim naming it is unjustified.
	mallory = "mallory"
)

// chain is one value's relay history, oldest action first.
type chain struct {
	value string
	acts  []logs.Action
	want  int // actions the chain will have when finished
	group int // principal group the chain draws from
}

// claim is an audit request with the verdict the oracle expects.
type claim struct {
	value     string
	prov      syntax.Prov
	justified bool
}

// prov renders the provenance the value carries after its first n
// actions, most recent event first.
func (c *chain) prov(n int) syntax.Prov {
	k := make(syntax.Prov, 0, n)
	for i := n - 1; i >= 0; i-- {
		a := c.acts[i]
		if a.Kind == logs.Snd {
			k = append(k, syntax.OutEvent(a.Principal, nil))
		} else {
			k = append(k, syntax.InEvent(a.Principal, nil))
		}
	}
	return k
}

// claims derives one justified and one tampered claim from the chain:
// the tampered one names outsider, a principal that never acts, in
// place of one that did.
func (c *chain) claims(rng *rand.Rand, outsider string) (good, bad claim) {
	n := 1 + rng.Intn(len(c.acts))
	good = claim{value: c.value, prov: c.prov(n), justified: true}
	k := c.prov(n)
	k[rng.Intn(len(k))].Principal = outsider
	bad = claim{value: c.value, prov: k}
	return good, bad
}

// chainGen emits an endless, seeded stream of relay-chain actions.
// Principals are drawn Zipf-skewed inside one group per chain (a group
// is a partition leader's principals in the fleet workload, so a claim
// never spans partitions; one group otherwise). Not safe for
// concurrent use: each producer owns one.
type chainGen struct {
	rng    *rand.Rand
	tag    string
	groups [][]string
	zipfs  []*rand.Zipf
	chans  []string
	nextV  uint64
	open   []*chain
	done   []*chain
	doneAt int
	buf    []byte
}

func newChainGen(seed int64, tag string, groups [][]string) *chainGen {
	g := &chainGen{rng: rand.New(rand.NewSource(seed)), tag: tag, groups: groups}
	for _, grp := range groups {
		g.zipfs = append(g.zipfs, rand.NewZipf(g.rng, 1.1, 1, uint64(len(grp)-1)))
	}
	for i := 0; i < 16; i++ {
		g.chans = append(g.chans, "m"+strconv.Itoa(i))
	}
	g.open = make([]*chain, openChains)
	for i := range g.open {
		g.startChain(i)
	}
	return g
}

func (g *chainGen) pick(group int) string {
	return g.groups[group][g.zipfs[group].Uint64()]
}

func (g *chainGen) startChain(slot int) {
	g.buf = append(g.buf[:0], 'v')
	g.buf = append(g.buf, g.tag...)
	g.buf = strconv.AppendUint(g.buf, g.nextV, 10)
	g.nextV++
	want := 1 + g.rng.Intn(maxChainLen)
	g.open[slot] = &chain{value: string(g.buf), want: want, group: g.rng.Intn(len(g.groups)),
		acts: make([]logs.Action, 0, want)}
}

// next emits the stream's next action.
func (g *chainGen) next() logs.Action {
	slot := g.rng.Intn(len(g.open))
	c := g.open[slot]
	grp := c.group
	var a logs.Action
	if i := len(c.acts); i%2 == 0 {
		// A send: by the chain's first principal, or by whoever received last.
		p := g.pick(grp)
		if i > 0 {
			p = c.acts[i-1].Principal
		}
		a = logs.SndAct(p, logs.NameT(g.chans[g.rng.Intn(len(g.chans))]), logs.NameT(c.value))
	} else {
		a = logs.RcvAct(g.pick(grp), c.acts[i-1].A, logs.NameT(c.value))
	}
	c.acts = append(c.acts, a)
	if len(c.acts) == c.want {
		if len(g.done) < keptChains {
			g.done = append(g.done, c)
		} else {
			g.done[g.doneAt%keptChains] = c
		}
		g.doneAt++
		g.startChain(slot)
	}
	return a
}

// fill writes the next len(dst) actions into dst.
func (g *chainGen) fill(dst []logs.Action) {
	for i := range dst {
		dst[i] = g.next()
	}
}

// principalNames returns n principal names, p00000…
func principalNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%05d", i)
	}
	return out
}

// Open-loop load. A request is due on a fixed schedule whatever the
// system does; its latency is counted from the due time, not from the
// moment the generator got round to sending it, so a stall is charged
// to every request that was due while it lasted (no coordinated
// omission). How late the generator itself ran is reported separately.

const maxInFlight = 20000

type openLoop struct {
	rate     float64       // requests per second, this worker
	duration time.Duration // scheduled span; all requests due within it are issued
	inflight *atomic.Int64 // shared across workers; capped at maxInFlight
	// send performs request i (blocking until its reply) and reports
	// success. It runs on its own goroutine per request.
	send func(i int) bool
	// sleep is the generator's wait primitive (time.Sleep; a test seam
	// for making the generator itself late).
	sleep func(time.Duration)
}

// openResult is what one open-loop worker observed.
type openResult struct {
	ack     series // due → reply, ms
	service series // send → reply, ms
	late    series // due → send, ms: the generator's own lag
	issued  int64
	failed  int64
	shed    int64 // not sent: in-flight cap reached
	backlog int64 // requests still in flight when the schedule ended
	elapsed time.Duration
	drained time.Duration // extra wait for the backlog after the schedule
}

// run issues the schedule, then waits for every in-flight request.
func (o *openLoop) run() *openResult {
	res := &openResult{}
	sleep := o.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	interval := time.Duration(float64(time.Second) / o.rate)
	total := int(o.rate * o.duration.Seconds())
	start := time.Now()
	for i := 0; i < total; {
		due := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			sleep(wait)
			continue
		}
		if o.inflight.Load() >= maxInFlight {
			res.shed++
			i++
			continue
		}
		o.inflight.Add(1)
		res.issued++
		res.late.add(ms(now.Sub(due)))
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			ok := o.send(i)
			end := time.Now()
			o.inflight.Add(-1)
			if !ok {
				failed.Add(1)
				return
			}
			res.ack.add(ms(end.Sub(due)))
			res.service.add(ms(end.Sub(sent)))
		}(i, due, now)
		i++
	}
	res.elapsed = time.Since(start)
	res.backlog = o.inflight.Load()
	wg.Wait()
	res.drained = time.Since(start) - res.elapsed
	res.failed = failed.Load()
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
