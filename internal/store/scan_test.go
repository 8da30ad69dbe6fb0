package store

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/logs"
)

// TestScanPrimitives: windows, tails and filters agree with the
// unbounded scan of the same shard.
func TestScanPrimitives(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("p%d", i%2)
		ch := fmt.Sprintf("c%d", i%3)
		var a logs.Action
		if i%4 == 3 {
			a = logs.IftAct(p, logs.NameT("v"), logs.NameT("v"))
		} else {
			a = logs.SndAct(p, logs.NameT(ch), logs.NameT("v"))
		}
		if _, err := st.Append(a); err != nil {
			t.Fatal(err)
		}
	}

	all := st.ScanShardTail("p0", Filter{}, 0, -1)
	if got := st.ScanShard("p0", Filter{}, 0, 0, -1); !reflect.DeepEqual(got, all) {
		t.Fatalf("unbounded scan %v != records %v", got, all)
	}
	// Window [10, 30): exactly the records with those seqs.
	for _, r := range st.ScanShard("p0", Filter{}, 10, 30, -1) {
		if r.Seq < 10 || r.Seq >= 30 {
			t.Fatalf("window leak: seq %d", r.Seq)
		}
	}
	// max bounds the batch.
	if got := st.ScanShard("p0", Filter{}, 0, 0, 3); len(got) != 3 || !reflect.DeepEqual(got, all[:3]) {
		t.Fatalf("bounded scan %v", got)
	}
	// The tail is the suffix of the full scan.
	if got := st.ScanShardTail("p0", Filter{}, 0, 5); !reflect.DeepEqual(got, all[len(all)-5:]) {
		t.Fatalf("tail %v != suffix %v", got, all[len(all)-5:])
	}
	// Channel and kind pushdown return exactly the matching records.
	for _, r := range st.ScanShardTail("p0", Filter{Channel: "c0"}, 0, -1) {
		if r.Act.Kind != logs.Snd || r.Act.A.Name != "c0" {
			t.Fatalf("channel scan leaked %+v", r)
		}
	}
	for _, r := range st.ScanShardTail("p1", Filter{Kind: logs.IfT, KindSet: true}, 0, -1) {
		if r.Act.Kind != logs.IfT {
			t.Fatalf("kind scan leaked %+v", r)
		}
	}
	// Channel + kind composes (filter on top of the channel index).
	for _, r := range st.ScanShard("p0", Filter{Channel: "c0", Kind: logs.Rcv, KindSet: true}, 0, 0, -1) {
		t.Fatalf("no rcv on c0 was appended, got %+v", r)
	}
	// Out-of-range kind matches nothing rather than panicking.
	if got := st.ScanShard("p0", Filter{Kind: 99, KindSet: true}, 0, 0, -1); got != nil {
		t.Fatalf("bogus kind matched %v", got)
	}
	// A channel filter with a non-snd/rcv kind is an impossible
	// intersection (only snd/rcv are channel-indexed): resolved to
	// empty up front, not by walking the index.
	if got := st.ScanShard("p0", Filter{Channel: "c0", Kind: logs.IfT, KindSet: true}, 0, 0, -1); got != nil {
		t.Fatalf("chan+ift matched %v", got)
	}
	// Global scans agree with the merged view.
	global := st.ScanGlobalTail(0, -1)
	if got := st.ScanGlobal(0, 0, -1); !reflect.DeepEqual(got, global) {
		t.Fatal("global scan diverges from merge")
	}
	if got := st.ScanGlobal(5, 15, -1); len(got) != 10 || got[0].Seq != 5 {
		t.Fatalf("global window %v", got)
	}
	if got := st.ScanGlobalTail(0, 7); !reflect.DeepEqual(got, global[len(global)-7:]) {
		t.Fatal("global tail is not the suffix of the merge")
	}
	if got := st.ScanGlobalTail(20, 5); got[len(got)-1].Seq != 19 {
		t.Fatalf("bounded global tail %v", got)
	}
}

// TestCounts: the lock-free size snapshot agrees with the locked
// counters, per principal and in total.
func TestCounts(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("p%d", i%3)
		if _, err := st.Append(logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		c := st.Counts()
		if c.Records != st.Len() || c.NextSeq != st.NextSeq() {
			t.Fatalf("counts %+v vs len %d nextseq %d", c, st.Len(), st.NextSeq())
		}
		if len(c.Principals) != 3 {
			t.Fatalf("principals %+v", c.Principals)
		}
		for _, pc := range c.Principals {
			if want := len(st.ScanShardTail(pc.Principal, Filter{}, 0, -1)); pc.Records != want {
				t.Fatalf("%s counted %d, holds %d", pc.Principal, pc.Records, want)
			}
		}
	}
	check()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Counts survive recovery (rebuilt through the same index path).
	st, err = Open(st.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check()
}

// TestWatcher: appends wake watchers, wake-ups coalesce, and a closed
// watcher stops being notified.
func TestWatcher(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := st.NewWatcher()
	select {
	case <-w.C():
		t.Fatal("fresh watcher already signalled")
	default:
	}
	if _, err := st.Append(logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.C():
	case <-time.After(time.Second):
		t.Fatal("append did not wake the watcher")
	}
	// Coalescing: many appends, one token.
	for i := 0; i < 5; i++ {
		if _, err := st.Append(logs.SndAct("a", logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	<-w.C()
	select {
	case <-w.C():
		t.Fatal("wake-ups did not coalesce to one token")
	default:
	}
	w.Close()
	if _, err := st.AppendBatch([]logs.Action{logs.SndAct("b", logs.NameT("m"), logs.NameT("v"))}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.C():
		t.Fatal("closed watcher notified")
	default:
	}
}
