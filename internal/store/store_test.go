package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/logs"
	"repro/internal/wire"
)

func act(i int) logs.Action {
	p := fmt.Sprintf("p%d", i%5)
	ch := fmt.Sprintf("ch%d", i%7)
	v := fmt.Sprintf("v%d", i)
	switch i % 4 {
	case 0:
		return logs.SndAct(p, logs.NameT(ch), logs.NameT(v))
	case 1:
		return logs.RcvAct(p, logs.NameT(ch), logs.NameT(v))
	case 2:
		return logs.IftAct(p, logs.NameT(v), logs.NameT(v))
	default:
		return logs.IffAct(p, logs.NameT(v), logs.NameT(ch))
	}
}

func fill(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Append(act(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestAppendRecoverRoundTrip: everything appended (across shards and
// several segment rotations) survives close + reopen, with the global
// spine reconstructed exactly.
func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 200)
	before := s.GlobalLog()
	nextSeq := s.NextSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len(); got != 200 {
		t.Fatalf("recovered %d records, want 200", got)
	}
	if r.NextSeq() != nextSeq {
		t.Fatalf("recovered next seq %d, want %d", r.NextSeq(), nextSeq)
	}
	if !logs.Equal(r.GlobalLog(), before) {
		t.Fatalf("recovered global log differs:\n got %s\nwant %s", r.GlobalLog(), before)
	}
	// Appends continue from the recovered sequence.
	seq, err := r.Append(act(200))
	if err != nil {
		t.Fatal(err)
	}
	if seq != nextSeq {
		t.Fatalf("post-recovery seq = %d, want %d", seq, nextSeq)
	}
}

// TestTornTailTruncated: a partially written frame at the tail of a
// segment (crash mid-append) is detected, truncated and recovered past.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 10)
	want := s.GlobalLog()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: garbage bytes after the last intact frame.
	var seg string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".seg" {
			seg = path
		}
		return nil
	})
	if seg == "" {
		t.Fatal("no segment file found")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats().TruncatedBytes == 0 {
		t.Error("expected truncated bytes to be counted")
	}
	if r.Len() != 10 {
		t.Fatalf("recovered %d records, want 10", r.Len())
	}
	if !logs.Equal(r.GlobalLog(), want) {
		t.Fatalf("recovered log differs after torn tail")
	}
	if _, err := r.Append(act(10)); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

// TestMidFileDamageRefused: mid-file corruption in the active segment —
// damage with intact frames after it — must refuse the open rather than
// truncate away the intact records; only a true torn tail is trimmed.
func TestMidFileDamageRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var seg string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".seg" && seg == "" {
			seg = path
		}
		return nil
	})
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xff // early frame: plenty of intact frames after it
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open over mid-file damage with intact frames after it must refuse")
	}
}

// TestDamagedSealedSegmentRefusedAtOpen: only the last segment of a
// shard may have a torn tail (the crash case); damage in a sealed
// segment is bit rot and must refuse the open rather than silently
// truncating mid-history records.
func TestDamagedSealedSegmentRefusedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		a := logs.SndAct("solo", logs.NameT("ch"), logs.NameT(fmt.Sprintf("v%d", i)))
		if _, err := s.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if s.SegmentCount("solo") < 2 {
		t.Fatal("test needs a sealed segment")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(filepath.Join(dir, shardDirName("solo")))
	if err != nil {
		t.Fatal(err)
	}
	first := segPath(filepath.Join(dir, shardDirName("solo")), segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 128}); err == nil {
		t.Fatal("open over a damaged sealed segment must refuse")
	}
}

// TestCompactPreservesLog: compaction merges sealed segments without
// changing the shard's log (hence preserving ≼ both ways), and the
// compacted layout recovers identically.
func TestCompactPreservesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	// One principal so all records land in one shard with many segments.
	for i := 0; i < 120; i++ {
		a := logs.SndAct("solo", logs.NameT(fmt.Sprintf("ch%d", i%3)), logs.NameT(fmt.Sprintf("v%d", i)))
		if _, err := s.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := s.SegmentCount("solo")
	if segsBefore < 3 {
		t.Fatalf("test needs several segments, got %d", segsBefore)
	}
	before := s.ShardLog("solo")
	if err := s.Compact("solo"); err != nil {
		t.Fatal(err)
	}
	after := s.ShardLog("solo")
	if !logs.Equal(before, after) {
		t.Fatal("compaction changed the shard log")
	}
	if !logs.EquivLe(before, after) {
		t.Fatal("compaction changed the information order")
	}
	if got := s.SegmentCount("solo"); got != 2 { // one merged sealed + active
		t.Fatalf("segment count after compaction = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !logs.Equal(r.ShardLog("solo"), before) {
		t.Fatal("compacted shard recovered differently")
	}
}

// TestIndexes: the per-shard channel and kind indexes answer queries in
// sequence order.
func TestIndexes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 100)
	recs := s.ScanShardTail("p0", Filter{Channel: "ch0"}, 0, -1)
	if len(recs) == 0 {
		t.Fatal("channel index empty")
	}
	last := uint64(0)
	for _, r := range recs {
		if r.Act.Principal != "p0" || r.Act.A.Name != "ch0" {
			t.Fatalf("stray record in channel index: %s", r.Act)
		}
		if r.Seq < last {
			t.Fatal("channel index out of order")
		}
		last = r.Seq
	}
	for _, k := range []logs.ActKind{logs.Snd, logs.Rcv, logs.IfT, logs.IfF} {
		for _, r := range s.ScanShardTail("p1", Filter{Kind: k, KindSet: true}, 0, -1) {
			if r.Act.Kind != k {
				t.Fatalf("kind index %v returned %v", k, r.Act.Kind)
			}
		}
	}
}

// TestAppendRejectsUnrepresentableActions: an action the wire codec
// cannot round-trip must be refused up front — writing it would produce
// a frame recovery rejects, silently dropping acknowledged records.
func TestAppendRejectsUnrepresentableActions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 5000)
	for i := range long {
		long[i] = 'x'
	}
	bad := []logs.Action{
		logs.SndAct(string(long), logs.NameT("m"), logs.NameT("v")),
		logs.SndAct("a", logs.NameT(string(long)), logs.NameT("v")),
		logs.SndAct("a", logs.NameT("m"), logs.NameT(string(long))),
		{Principal: "a", Kind: logs.ActKind(9), A: logs.NameT("m"), B: logs.NameT("v")},
		{Principal: "a", Kind: logs.Snd, A: logs.Term{Kind: logs.TermKind(7), Name: "m"}, B: logs.NameT("v")},
	}
	for i, a := range bad {
		if _, err := s.Append(a); err == nil {
			t.Errorf("bad action %d accepted", i)
		}
	}
	if _, err := s.Append(logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))); err != nil {
		t.Fatalf("good action rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything acknowledged must recover.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", r.Len())
	}
}

// TestShardDirCaseCollision: principals differing only in case must not
// share a shard directory (case-insensitive filesystems).
func TestShardDirCaseCollision(t *testing.T) {
	if a, b := shardDirName("alice"), shardDirName("Alice"); a == b {
		t.Fatalf("case-colliding shard dirs: %q vs %q", a, b)
	}
	if a, b := shardDirName("A"), shardDirName("a"); a == b {
		t.Fatalf("case-colliding shard dirs: %q vs %q", a, b)
	}
}

// TestConcurrentAppends: parallel appends across principals produce
// unique sequence numbers and lose nothing (run with -race).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512, Stripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := fmt.Sprintf("w%d", w)
			for i := 0; i < per; i++ {
				a := logs.SndAct(p, logs.NameT("ch"), logs.NameT(fmt.Sprintf("v%d", i)))
				if _, err := s.Append(a); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != workers*per {
		t.Fatalf("stored %d records, want %d", got, workers*per)
	}
	seen := make(map[uint64]bool)
	for _, r := range s.ScanGlobalTail(0, -1) {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestRecoverAfterCrashMidCompaction: a crash after Compact renamed its
// merged file over the oldest sealed segment but before it removed the
// other sources leaves every record of those sources on disk twice.
// Open must yield each record once, in order, and count each once.
func TestRecoverAfterCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		a := logs.SndAct("solo", logs.NameT(fmt.Sprintf("ch%d", i%3)), logs.NameT(fmt.Sprintf("v%d", i)))
		if _, err := s.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	want := s.ShardLog("solo")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, shardDirName("solo"))
	names, err := listSegments(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := names[:len(names)-1]
	if len(sealed) < 3 {
		t.Fatalf("test needs several sealed segments, got %d", len(sealed))
	}
	// What Compact renames into place: every sealed frame, in order.
	var merged []byte
	dups := 0
	for i, name := range sealed {
		data, err := os.ReadFile(segPath(shardDir, name))
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, data...)
		if i > 0 {
			recs, _, _, err := scanSegment(segPath(shardDir, name), new(wire.Decoder), nil)
			if err != nil {
				t.Fatal(err)
			}
			dups += len(recs)
		}
	}
	if err := os.WriteFile(segPath(shardDir, sealed[0]), merged, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len(); got != 60 {
		t.Fatalf("recovered %d records, want 60 (%d duplicate frames on disk)", got, dups)
	}
	if got := r.Stats().RecoveredRecords; got != 60 {
		t.Fatalf("RecoveredRecords = %d, want 60", got)
	}
	if !logs.Equal(r.ShardLog("solo"), want) {
		t.Fatal("shard recovered with duplicates or out of order")
	}
	if !logs.Equal(r.GlobalLog(), want) {
		t.Fatal("global log recovered with duplicates or out of order")
	}
	idx := r.ScanShard("solo", Filter{Channel: "ch1"}, 0, 0, -1)
	if len(idx) != 20 {
		t.Fatalf("channel index holds %d records, want 20", len(idx))
	}
}
