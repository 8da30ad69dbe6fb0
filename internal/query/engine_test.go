package query

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/trust"
	"repro/internal/wire"
)

// fill appends a deterministic mixed workload: principals p0..p(k-1)
// rotating over channels c0/c1 and all four action kinds.
func fill(t testing.TB, st *store.Store, principals, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("p%d", i%principals)
		ch := fmt.Sprintf("c%d", i%2)
		v := fmt.Sprintf("v%d", i)
		var a logs.Action
		switch i % 4 {
		case 0:
			a = logs.SndAct(p, logs.NameT(ch), logs.NameT(v))
		case 1:
			a = logs.RcvAct(p, logs.NameT(ch), logs.NameT(v))
		case 2:
			a = logs.IftAct(p, logs.NameT(v), logs.NameT(v))
		default:
			a = logs.IffAct(p, logs.NameT(v), logs.NameT(v))
		}
		if _, err := st.Append(a); err != nil {
			t.Fatal(err)
		}
	}
}

func openStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func seqs(recs []wire.Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// walk pages a query to exhaustion, returning every served record and
// failing on any cursor irregularity.
func walk(t *testing.T, e *Engine, q Query) []wire.Record {
	t.Helper()
	var all []wire.Record
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("walk did not terminate")
		}
		page, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Records...)
		if page.Cursor == "" {
			return all
		}
		q.Cursor = page.Cursor
	}
}

// TestRunMatchesScans: the engine's single-shard and global plans agree
// with the store's scan primitives called directly.
func TestRunMatchesScans(t *testing.T) {
	st := openStore(t)
	fill(t, st, 3, 200)
	e := NewEngine(st, nil)

	cases := []struct {
		name string
		q    Query
		want []wire.Record
	}{
		{"shard tail", Query{Principal: "p1", Tail: true, Limit: 10}, st.ScanShardTail("p1", store.Filter{}, 0, 10)},
		{"shard all", Query{Principal: "p1", Limit: 1000}, st.ScanShardTail("p1", store.Filter{}, 0, -1)},
		{"chan tail", Query{Principal: "p0", Channel: "c0", Tail: true, Limit: 5}, st.ScanShardTail("p0", store.Filter{Channel: "c0"}, 0, 5)},
		{"kind tail", Query{Principal: "p2", Kind: logs.IfT, KindSet: true, Tail: true, Limit: 7}, st.ScanShardTail("p2", store.Filter{Kind: logs.IfT, KindSet: true}, 0, 7)},
		{"global tail", Query{Tail: true, Limit: 25}, st.ScanGlobalTail(0, 25)},
		{"global all", Query{Limit: 1000}, st.ScanGlobalTail(0, -1)},
	}
	for _, c := range cases {
		page, err := e.Run(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(page.Records, c.want) {
			t.Fatalf("%s: engine %v, scan %v", c.name, seqs(page.Records), seqs(c.want))
		}
	}
}

// TestForwardPagination: a forward walk in small pages reassembles the
// full result exactly once each, in order.
func TestForwardPagination(t *testing.T) {
	st := openStore(t)
	fill(t, st, 3, 157)
	e := NewEngine(st, nil)

	all := walk(t, e, Query{Limit: 10})
	if !reflect.DeepEqual(all, st.ScanGlobalTail(0, -1)) {
		t.Fatalf("forward walk reassembled %d records, store holds %d", len(all), st.Len())
	}
	// Filtered, multi-shard forward walk.
	filtered := walk(t, e, Query{Channel: "c1", Limit: 7})
	var want []wire.Record
	for _, r := range st.ScanGlobalTail(0, -1) {
		if (r.Act.Kind == logs.Snd || r.Act.Kind == logs.Rcv) && r.Act.A.Name == "c1" {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(filtered, want) {
		t.Fatalf("filtered walk %v, want %v", seqs(filtered), seqs(want))
	}
}

// TestTailBackwardPagination: a tail query serves the most recent page
// first and its cursor pages backwards through older history; the
// reversed concatenation is the full result.
func TestTailBackwardPagination(t *testing.T) {
	st := openStore(t)
	fill(t, st, 2, 83)
	e := NewEngine(st, nil)

	var pages [][]wire.Record
	q := Query{Tail: true, Limit: 10}
	for {
		page, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page.Records)
		if page.Cursor == "" {
			break
		}
		q.Cursor = page.Cursor
	}
	if len(pages) != 9 {
		t.Fatalf("83 records in pages of 10 took %d pages", len(pages))
	}
	var all []wire.Record
	for i := len(pages) - 1; i >= 0; i-- {
		all = append(all, pages[i]...)
	}
	if !reflect.DeepEqual(all, st.ScanGlobalTail(0, -1)) {
		t.Fatalf("backward walk lost records: got %d, want %d", len(all), st.Len())
	}
	// First page is the newest records.
	if !reflect.DeepEqual(pages[0], st.ScanGlobalTail(0, 10)) {
		t.Fatalf("first tail page %v, want %v", seqs(pages[0]), seqs(st.ScanGlobalTail(0, 10)))
	}
}

// TestSeqWindow: MinSeq/CeilSeq bound both walk directions.
func TestSeqWindow(t *testing.T) {
	st := openStore(t)
	fill(t, st, 2, 50)
	e := NewEngine(st, nil)

	page, err := e.Run(Query{MinSeq: 10, CeilSeq: 20, Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(page.Records); len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("window [10,20) returned %v", got)
	}
	page, err = e.Run(Query{MinSeq: 10, CeilSeq: 20, Tail: true, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(page.Records); len(got) != 4 || got[0] != 16 || got[3] != 19 {
		t.Fatalf("tail of window [10,20) returned %v", got)
	}
}

// TestCursorRejections: a cursor is refused with different filters, and
// garbage is refused outright.
func TestCursorRejections(t *testing.T) {
	st := openStore(t)
	fill(t, st, 2, 30)
	e := NewEngine(st, nil)

	page, err := e.Run(Query{Channel: "c0", Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if page.Cursor == "" {
		t.Fatal("expected a continuation cursor")
	}
	if _, err := e.Run(Query{Channel: "c1", Limit: 5, Cursor: page.Cursor}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("filter mismatch: %v", err)
	}
	if _, err := e.Run(Query{Cursor: "not!base64!!"}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("garbage cursor: %v", err)
	}
	if e.Stats().BadCursors != 2 {
		t.Fatalf("bad cursor counter %d", e.Stats().BadCursors)
	}
}

// TestDisclosure: shard queries by hidden principals are denied; global
// queries are served masked; the redaction counter moves.
func TestDisclosure(t *testing.T) {
	st := openStore(t)
	fill(t, st, 3, 60)
	policy := trust.NewDisclosurePolicy().HideFrom("p1", "eve")
	e := NewEngine(st, policy)

	if _, err := e.Run(Query{Principal: "p1", Observer: "eve"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("hidden shard: %v", err)
	}
	if _, err := e.Run(Query{Principal: "p1", Observer: "bob"}); err != nil {
		t.Fatalf("shard for allowed observer: %v", err)
	}
	page, err := e.Run(Query{Observer: "eve", Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	masked := 0
	for _, r := range page.Records {
		if r.Act.Principal == "p1" {
			t.Fatalf("observer eve saw a hidden action: %+v", r)
		}
		if r.Act.Principal == trust.RedactedPrincipal {
			masked++
		}
	}
	if masked != 20 {
		t.Fatalf("masked %d of p1's 20 actions", masked)
	}
	stats := e.Stats()
	if stats.Denials != 1 || stats.Redactions != 20 {
		t.Fatalf("stats %+v", stats)
	}
	// VisibleCounts omits the hidden principal for eve, keeps it for bob.
	if vc := e.VisibleCounts("eve"); len(vc.Principals) != 2 {
		t.Fatalf("eve sees %d principals", len(vc.Principals))
	}
	if vc := e.VisibleCounts("bob"); len(vc.Principals) != 3 {
		t.Fatalf("bob sees %d principals", len(vc.Principals))
	}
}

// TestFollower: a follower drains history, blocks, wakes on appends,
// and its cursor resumes exactly where it stopped.
func TestFollower(t *testing.T) {
	st := openStore(t)
	fill(t, st, 2, 20)
	e := NewEngine(st, nil)

	f, err := e.Follow(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []wire.Record
	for len(got) < 20 {
		recs, ok := f.NextChunk(7, nil)
		if !ok {
			t.Fatal("follower stopped unexpectedly")
		}
		got = append(got, recs...)
	}
	if !reflect.DeepEqual(got, st.ScanGlobalTail(0, -1)) {
		t.Fatalf("follower history %v", seqs(got))
	}

	// Blocked follower wakes on a live append.
	type chunk struct {
		recs []wire.Record
		ok   bool
	}
	ch := make(chan chunk, 1)
	go func() {
		recs, ok := f.NextChunk(7, nil)
		ch <- chunk{recs, ok}
	}()
	if _, err := st.Append(logs.SndAct("late", logs.NameT("m"), logs.NameT("v"))); err != nil {
		t.Fatal(err)
	}
	c := <-ch
	if !c.ok || len(c.recs) != 1 || c.recs[0].Seq != 20 {
		t.Fatalf("live chunk %+v", c)
	}

	// Stop unblocks; the cursor resumes after everything served.
	stop := make(chan struct{})
	close(stop)
	if _, ok := f.NextChunk(7, stop); ok {
		t.Fatal("stopped follower served a chunk")
	}
	cur := f.Cursor()
	fill(t, st, 1, 3)
	f2, err := e.Follow(Query{Cursor: cur})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	recs, ok := f2.NextChunk(100, nil)
	if !ok || len(recs) != 3 || recs[0].Seq != 21 {
		t.Fatalf("resumed follower got %v", seqs(recs))
	}

	// A follow-mode tail starts at the most recent Limit matches.
	f3, err := e.Follow(Query{Tail: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	recs, ok = f3.NextChunk(100, nil)
	if !ok || len(recs) != 2 || recs[0].Seq != 22 {
		t.Fatalf("tail follower got %v", seqs(recs))
	}
}

// TestSpineStringMatchesLogString: the linear renderer agrees with the
// recursive logs.Log stringifier on linear logs.
func TestSpineStringMatchesLogString(t *testing.T) {
	st := openStore(t)
	fill(t, st, 2, 9)
	e := NewEngine(st, nil)
	page, err := e.Run(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SpineString(page.Records), st.GlobalLog().String(); got != want {
		t.Fatalf("spine %q, log %q", got, want)
	}
	if SpineString(nil) != "0" {
		t.Fatal("empty spine is the empty log")
	}
}

// TestParseLimit: default, explicit, and rejections.
func TestParseLimit(t *testing.T) {
	if n, err := ParseLimit(""); err != nil || n != DefaultLimit {
		t.Fatalf("default: %d %v", n, err)
	}
	if n, err := ParseLimit("42"); err != nil || n != 42 {
		t.Fatalf("explicit: %d %v", n, err)
	}
	for _, bad := range []string{"-1", "x", "1.5"} {
		if _, err := ParseLimit(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
