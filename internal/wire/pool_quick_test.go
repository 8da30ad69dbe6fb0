package wire

// Property tests for the pooled hot path: the size-classed buffer
// pool, the interner, and the reuse contracts of the decode-into mode.
// The central claim under test is that nothing a decode *returns* ever
// aliases a pooled buffer — so recycling buffers (and poisoning them
// on return) can never change data already handed out.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/logs"
)

// TestPoolBufClasses: GetBuf always returns a zero-length buffer with
// at least the requested capacity, for sizes across and beyond the
// class ladder.
func TestPoolBufClasses(t *testing.T) {
	f := func(n uint32) bool {
		want := int(n % (2 << 20)) // spans the ladder and beyond its top tier
		b := GetBuf(want)
		ok := len(b) == 0 && cap(b) >= want
		PutBuf(b)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPoolStatsMove: pool traffic is visible in the counters — a
// recycle round trip registers a return, and a warm pool serves hits.
func TestPoolStatsMove(t *testing.T) {
	before := PoolStats()
	for i := 0; i < 64; i++ {
		PutBuf(GetBuf(1 << 12))
	}
	after := PoolStats()
	if after.Returns == before.Returns {
		t.Fatalf("no returns counted: %+v -> %+v", before, after)
	}
	if after.Hits == before.Hits && after.Misses == before.Misses {
		t.Fatalf("no gets counted: %+v -> %+v", before, after)
	}
}

// TestPoolPoisonOnReturn: with poisoning on, PutBuf smears the whole
// capacity of the returned buffer, so any component still holding a
// view of it sees the sentinel, not its old bytes.
func TestPoolPoisonOnReturn(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	b := GetBuf(1 << 10)
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xAA
	}
	PutBuf(b)
	for i, c := range b {
		if c != 0xDB {
			t.Fatalf("byte %d not poisoned: %#x", i, c)
		}
	}
}

// TestPoolOddCapsNotPooled: only exact power-of-two capacities in the
// class range may re-enter the pool — an append-grown buffer of odd
// capacity must be dropped, or GetBuf's capacity promise would break.
func TestPoolOddCapsNotPooled(t *testing.T) {
	before := PoolStats()
	PutBuf(make([]byte, 0, 1000)) // not a class size
	PutBuf(make([]byte, 0, 1<<7)) // below the bottom class
	PutBuf(make([]byte, 0, 1<<21))
	PutBuf(nil) // must not count (or crash)
	after := PoolStats()
	if after.Returns != before.Returns {
		t.Fatalf("off-class buffer entered the pool: %+v -> %+v", before, after)
	}
}

// TestPoolConcurrent: the pool's counters and poison path are safe
// under concurrent get/put traffic (run with -race).
func TestPoolConcurrent(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				b := GetBuf(1 << (8 + rng.Intn(10)))
				b = append(b, byte(i))
				PutBuf(b)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestInternerNoAlias: an interned string never aliases the input
// buffer — mutating the buffer after the intern must not change the
// string, in both the miss (first sight) and hit (cached) cases.
func TestInternerNoAlias(t *testing.T) {
	it := NewInterner()
	buf := []byte("principal-7")
	first := it.Intern(buf)
	buf[0] = 'X'
	if first != "principal-7" {
		t.Fatalf("interned string aliases its input buffer: %q", first)
	}
	buf[0] = 'p'
	second := it.Intern(buf)
	buf[0] = 'Y'
	if second != "principal-7" {
		t.Fatalf("cache-hit intern aliases its input buffer: %q", second)
	}
}

// TestInternerBounded: the cache stops growing at its entry cap and
// refuses strings over its length cap, but stays correct for both.
func TestInternerBounded(t *testing.T) {
	it := NewInterner()
	for i := 0; i < maxInternEntries+100; i++ {
		s := it.Intern([]byte(fmt.Sprintf("k%d", i)))
		if s != fmt.Sprintf("k%d", i) {
			t.Fatalf("wrong intern result %q for k%d", s, i)
		}
	}
	if it.Len() > maxInternEntries {
		t.Fatalf("interner grew past its cap: %d entries", it.Len())
	}
	long := bytes.Repeat([]byte("x"), maxInternLen+1)
	if got := it.Intern(long); got != string(long) {
		t.Fatalf("over-length intern corrupted the string")
	}
}

// TestDecodeIntoNoAliasing is the mutate-after-return canary for the
// hot-path decode: decode a batch out of an envelope buffer, then
// stomp the buffer (as pool recycling would), and verify every decoded
// action survives bit for bit — proving the decoder materialised its
// strings rather than slicing the frame.
func TestDecodeIntoNoAliasing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		acts := make([]logs.Action, n)
		for i := range acts {
			acts[i] = logs.SndAct(
				fmt.Sprintf("p%d", rng.Intn(4)),
				logs.NameT(fmt.Sprintf("m%d", rng.Intn(100))),
				logs.NameT(fmt.Sprintf("v%d", rng.Int63())),
			)
		}
		e := NewEncoder()
		e.IngestBatch2(uint64(rng.Int63()), uint64(rng.Int63()), acts)
		env := append([]byte(nil), e.Bytes()...)

		it := NewInterner()
		var m IngestMsg
		if err := DecodeIngestInto(env, &m, it); err != nil {
			return false
		}
		for i := range env {
			env[i] = 0xDB // the buffer goes back to the pool, poisoned
		}
		if len(m.Acts) != n {
			return false
		}
		for i := range acts {
			if m.Acts[i] != acts[i] {
				t.Logf("action %d mutated after buffer poison: got %+v want %+v", i, m.Acts[i], acts[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeIntoReuse: decoding into the same message over and over —
// including through failed decodes of malformed envelopes — never lets
// one decode's contents leak into the next.
func TestDecodeIntoReuse(t *testing.T) {
	var m IngestMsg
	it := NewInterner()
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(8)
		acts := make([]logs.Action, n)
		for i := range acts {
			acts[i] = logs.RcvAct(fmt.Sprintf("q%d", rng.Intn(3)),
				logs.NameT(fmt.Sprintf("ch%d", round)), logs.VarT(fmt.Sprintf("x%d", i)))
		}
		e := NewEncoder()
		e.IngestBatch2(uint64(round), uint64(round), acts)
		env := e.Bytes()

		if rng.Intn(3) == 0 {
			// Interleave a malformed decode: flip a byte mid-envelope and
			// require the *next* good decode to be unpolluted regardless
			// of how this one failed.
			bad := append([]byte(nil), env...)
			bad[len(bad)/2] ^= 0xFF
			DecodeIngestInto(bad, &m, it) // error or not: m is scratch now
		}
		if err := DecodeIngestInto(env, &m, it); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if m.ID != uint64(round) || len(m.Acts) != n {
			t.Fatalf("round %d: got id=%d n=%d want id=%d n=%d", round, m.ID, len(m.Acts), round, n)
		}
		for i := range acts {
			if m.Acts[i] != acts[i] {
				t.Fatalf("round %d action %d: reuse pollution: got %+v want %+v", round, i, m.Acts[i], acts[i])
			}
		}
	}
}

// TestStreamDecoderRecycledFrames: a stream decoder's envelope buffer
// is recycled frame to frame; records decoded from frame k must be
// intact after frame k+1 overwrites the buffer. This is the socket
// shape of the aliasing canary.
func TestStreamDecoderRecycledFrames(t *testing.T) {
	var wireBuf bytes.Buffer
	enc := NewStreamEncoder(&wireBuf)
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Seq: uint64(i), Act: logs.SndAct(fmt.Sprintf("p%d", i%3),
			logs.NameT(fmt.Sprintf("m%d", i)), logs.NameT(fmt.Sprintf("v%d", i*i)))}
		want = append(want, r)
		if err := enc.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	SetPoolPoison(true)
	defer SetPoolPoison(false)
	dec := NewStreamDecoder(&wireBuf)
	dec.SetInterner(NewInterner())
	var got []Record
	for i := 0; i < 50; i++ {
		r, err := dec.Record()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	dec.ReleaseBuffers() // poisons the frame buffer on its way back
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mutated by later frames or release: got %+v want %+v", i, got[i], want[i])
		}
	}
}
