package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// Property suite for the incremental global snapshot: however appends
// (single and batched), audits/queries and compactions interleave, the
// cached incremental merge must equal a from-scratch cross-shard merge.

// fullMerge rebuilds the global view the pre-incremental way: copy every
// shard, sort by sequence number, spine. This is the oracle the cached
// snapshot is compared against.
func fullMerge(s *Store) ([]wire.Record, logs.Log) {
	var all []wire.Record
	for _, p := range s.Principals() {
		all = append(all, s.ScanShardTail(p, Filter{}, 0, -1)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all, spineOf(all)
}

// checkSnapshotMatchesRebuild compares the cached merge with the oracle
// record for record, then checks audit-verdict parity: AuditTerm, which
// decides over the cached merge and its value index, against logs.Le on
// the oracle's spine, for claims drawn from the records and at random.
func checkSnapshotMatchesRebuild(t *testing.T, s *Store) {
	t.Helper()
	gotRecs := s.globalSnapshot()
	wantRecs, wantLog := fullMerge(s)
	if len(gotRecs) != len(wantRecs) || (len(wantRecs) > 0 && !reflect.DeepEqual(gotRecs, wantRecs)) {
		t.Fatalf("incremental snapshot has %d records, full rebuild %d (or contents differ)", len(gotRecs), len(wantRecs))
	}
	// Seeded from the log length so the op stream's rng is untouched.
	rng := rand.New(rand.NewSource(int64(len(wantRecs))))
	for i := 0; i < 8; i++ {
		v, k := randClaim(rng, wantRecs)
		want := logs.Le(denote.DenoteTerm(v, k), wantLog)
		if got := s.AuditTerm(v, k) == nil; got != want {
			t.Fatalf("AuditTerm(%s:%s) = %v, Le over the rebuilt spine = %v", v, k, got, want)
		}
	}
}

// randClaim draws a claim V:κ. Half are assembled from the records: a
// snd/rcv record's value and a newest-first subsequence of the earlier
// snd/rcv records carrying it, so most are justified, with an event
// sometimes handed to mallory. The rest are random provenance over the
// principal pool, with nested channel provenance.
func randClaim(rng *rand.Rand, recs []wire.Record) (logs.Term, syntax.Prov) {
	if len(recs) > 0 && rng.Intn(2) == 0 {
		q := rng.Intn(len(recs))
		v := recs[q].Act.B
		var k syntax.Prov
		for ; q >= 0 && len(k) < 4; q-- {
			a := recs[q].Act
			if a.B != v || (a.Kind != logs.Snd && a.Kind != logs.Rcv) || rng.Intn(3) == 0 {
				continue
			}
			p := a.Principal
			if rng.Intn(6) == 0 {
				p = "mallory"
			}
			if a.Kind == logs.Snd {
				k = append(k, syntax.OutEvent(p, nil))
			} else {
				k = append(k, syntax.InEvent(p, nil))
			}
		}
		return v, k
	}
	return logs.NameT(fmt.Sprintf("v%d", rng.Intn(8))), randProv(rng, 1)
}

func randProv(rng *rand.Rand, depth int) syntax.Prov {
	k := make(syntax.Prov, rng.Intn(4))
	for i := range k {
		var inner syntax.Prov
		if depth > 0 && rng.Intn(3) == 0 {
			inner = randProv(rng, depth-1)
		}
		p := fmt.Sprintf("p%d", rng.Intn(6))
		if rng.Intn(2) == 0 {
			k[i] = syntax.OutEvent(p, inner)
		} else {
			k[i] = syntax.InEvent(p, inner)
		}
	}
	return k
}

// randAction draws an action over a small principal/channel population,
// so shards and stripes genuinely collide.
func randAction(rng *rand.Rand) logs.Action {
	p := fmt.Sprintf("p%d", rng.Intn(6))
	ch := fmt.Sprintf("ch%d", rng.Intn(4))
	v := fmt.Sprintf("v%d", rng.Intn(8))
	switch rng.Intn(4) {
	case 0:
		return logs.RcvAct(p, logs.NameT(ch), logs.NameT(v))
	case 1:
		return logs.IftAct(p, logs.NameT(v), logs.NameT(v))
	case 2:
		return logs.IffAct(p, logs.NameT(v), logs.NameT(v))
	default:
		return logs.SndAct(p, logs.NameT(ch), logs.NameT(v))
	}
}

// applyOp interprets one op byte against the store; the checker runs on
// every query op and at the end.
func applyOp(t *testing.T, s *Store, rng *rand.Rand, op byte) {
	t.Helper()
	switch op % 5 {
	case 0, 1: // single append
		if _, err := s.Append(randAction(rng)); err != nil {
			t.Fatal(err)
		}
	case 2: // batch append, mixed principals, in-order seq block
		n := 1 + rng.Intn(8)
		batch := make([]logs.Action, n)
		for i := range batch {
			batch[i] = randAction(rng)
		}
		base, err := s.AppendBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.nextSeq.Load() - uint64(n); base > want {
			t.Fatalf("batch base seq %d beyond counter %d", base, want)
		}
	case 3: // audit-shaped query: snapshot must equal a full rebuild
		checkSnapshotMatchesRebuild(t, s)
	case 4: // compaction must never change the merged view
		if err := s.Compact(fmt.Sprintf("p%d", rng.Intn(6))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotIncrementalEqualsRebuild drives long random interleavings
// of Append/AppendBatch/snapshot-query/Compact and checks the cached
// incremental merge against the from-scratch oracle throughout.
func TestSnapshotIncrementalEqualsRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Tiny segments force rotations (and therefore compactable
			// shards) inside the run.
			s, err := Open(t.TempDir(), Options{SegmentBytes: 512, Stripes: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 400; i++ {
				applyOp(t, s, rng, byte(rng.Intn(256)))
			}
			checkSnapshotMatchesRebuild(t, s)
		})
	}
}

// TestSnapshotIncrementalConcurrent runs appenders, batch appenders and
// compactors against concurrent snapshot queries (every query result
// must be internally consistent: strictly increasing seqs, and a merged
// record audits as justified), then checks the final merge against the
// oracle. Run with -race.
func TestSnapshotIncrementalConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentBytes: 2048, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 150; i++ {
				if i%3 == 0 {
					batch := make([]logs.Action, 1+rng.Intn(6))
					for j := range batch {
						batch[j] = randAction(rng)
					}
					if _, err := s.AppendBatch(batch); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := s.Append(randAction(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(200 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := s.globalSnapshot()
				for i := 1; i < len(recs); i++ {
					if recs[i-1].Seq >= recs[i].Seq {
						t.Errorf("snapshot seqs not strictly increasing at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
						return
					}
				}
				// A record already merged stays justified by the log.
				if len(recs) > 0 {
					a := recs[rng.Intn(len(recs))].Act
					if a.Kind == logs.Snd || a.Kind == logs.Rcv {
						ev := syntax.OutEvent(a.Principal, nil)
						if a.Kind == logs.Rcv {
							ev = syntax.InEvent(a.Principal, nil)
						}
						if err := s.AuditTerm(a.B, syntax.Seq(ev)); err != nil {
							t.Errorf("merged record %s: %v", a, err)
							return
						}
					}
				}
				if rng.Intn(4) == 0 {
					if err := s.Compact(fmt.Sprintf("p%d", rng.Intn(6))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	close(stop)
	qwg.Wait()
	if t.Failed() {
		return
	}
	checkSnapshotMatchesRebuild(t, s)
	// And the cache survives a pile of quiescent queries untouched.
	for i := 0; i < 3; i++ {
		checkSnapshotMatchesRebuild(t, s)
	}
}

// FuzzSnapshotIncremental lets the fuzzer drive the op interleaving
// byte-by-byte; the seed corpus runs in ordinary `go test`.
func FuzzSnapshotIncremental(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 2, 4, 3, 0, 2, 3})
	f.Add([]byte{2, 2, 2, 3, 4, 4, 3, 2, 3})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 4, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		s, err := Open(t.TempDir(), Options{SegmentBytes: 256, Stripes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, op := range ops {
			applyOp(t, s, rng, op)
		}
		checkSnapshotMatchesRebuild(t, s)
	})
}

// checkGlobalMatchesShards walks the global merge in pages and checks
// every page against the shards: strictly ascending, and each record
// exactly what a scan of its own shard returns for its sequence number.
func checkGlobalMatchesShards(t *testing.T, s *Store, from uint64) {
	t.Helper()
	for {
		page := s.ScanGlobal(from, 0, 64)
		if len(page) == 0 {
			return
		}
		for i, r := range page {
			if r.Seq < from || (i > 0 && r.Seq <= page[i-1].Seq) {
				t.Fatalf("global page out of order at seq %d (from %d)", r.Seq, from)
			}
			got := s.ScanShard(r.Act.Principal, Filter{}, r.Seq, r.Seq+1, 1)
			if len(got) != 1 || got[0] != r {
				t.Fatalf("global record %d %v, shard scan of that seq %v", r.Seq, r.Act, got)
			}
		}
		from = page[len(page)-1].Seq + 1
	}
}

// TestGlobalReadsMatchShardScans runs AppendBatch, ScanShard,
// ScanGlobal, AuditTerm and Compact at once (run with -race). The
// global merge refers into the shards' record slices rather than
// copying them, so every global page must agree record for record with
// the shard scans of the same sequence numbers — including after a
// shard outgrows the backing array the merge last captured.
func TestGlobalReadsMatchShardScans(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentBytes: 1024, Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill one shard to its capacity, let the merge capture it, then
	// outgrow it: the merge still holds the old array, the shard a new
	// one, and both must read the same.
	for {
		if _, err := s.Append(logs.SndAct("p0", logs.NameT("ch0"), logs.NameT("v0"))); err != nil {
			t.Fatal(err)
		}
		st := s.stripeFor("p0")
		st.Lock()
		recs := s.shards["p0"].recs
		full := len(recs) == cap(recs) && len(recs) >= 8
		st.Unlock()
		if full {
			break
		}
	}
	s.refreshGlobal()
	if _, err := s.Append(logs.RcvAct("p0", logs.NameT("ch0"), logs.NameT("v0"))); err != nil {
		t.Fatal(err)
	}
	st := s.stripeFor("p0")
	st.Lock()
	sh := s.shards["p0"]
	s.global.mu.Lock()
	moved := &sh.recs[0] != &s.global.views[sh.num][0]
	s.global.mu.Unlock()
	st.Unlock()
	if !moved {
		t.Fatal("the append did not move the shard to a new array; the test lost its point")
	}
	checkGlobalMatchesShards(t, s, 0)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for i := 0; i < 120; i++ {
				batch := make([]logs.Action, 1+rng.Intn(12))
				for j := range batch {
					batch[j] = randAction(rng)
				}
				if _, err := s.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	reader := func(f func(rng *rand.Rand)) {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(400))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f(rng)
			}
		}()
	}
	reader(func(rng *rand.Rand) { // shard scans
		p := fmt.Sprintf("p%d", rng.Intn(6))
		recs := s.ScanShard(p, Filter{}, uint64(rng.Intn(200)), 0, 32)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Seq >= recs[i].Seq {
				t.Errorf("shard %s scan out of order: %d then %d", p, recs[i-1].Seq, recs[i].Seq)
			}
		}
	})
	reader(func(rng *rand.Rand) { // global pages against the shards
		checkGlobalMatchesShards(t, s, uint64(rng.Intn(200)))
	})
	reader(func(rng *rand.Rand) { // audits of merged records
		tail := s.ScanGlobalTail(0, 16)
		if len(tail) == 0 {
			return
		}
		a := tail[rng.Intn(len(tail))].Act
		if a.Kind != logs.Snd && a.Kind != logs.Rcv {
			return
		}
		ev := syntax.OutEvent(a.Principal, nil)
		if a.Kind == logs.Rcv {
			ev = syntax.InEvent(a.Principal, nil)
		}
		if err := s.AuditTerm(a.B, syntax.Seq(ev)); err != nil {
			t.Errorf("merged record %s: %v", a, err)
		}
	})
	reader(func(rng *rand.Rand) { // compactions
		if err := s.Compact(fmt.Sprintf("p%d", rng.Intn(6))); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	checkGlobalMatchesShards(t, s, 0)
	checkSnapshotMatchesRebuild(t, s)
}
