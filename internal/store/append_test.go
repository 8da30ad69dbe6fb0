package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logs"
)

// segmentFiles maps each segment file under dir, by path relative to
// dir, to its contents.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameSegments fails the test unless dirs a and b hold byte-identical
// segment files under the same names.
func sameSegments(t *testing.T, a, b string) {
	t.Helper()
	fa, fb := segmentFiles(t, a), segmentFiles(t, b)
	if len(fa) != len(fb) {
		t.Fatalf("%d segment files beside %d", len(fa), len(fb))
	}
	for name, data := range fa {
		if !bytes.Equal(data, fb[name]) {
			t.Fatalf("segment %s differs: %d bytes beside %d", name, len(data), len(fb[name]))
		}
	}
}

// twinStores opens two empty stores with the same options.
func twinStores(t *testing.T, opts Options) (single, batch *Store) {
	t.Helper()
	var st [2]*Store
	for i := range st {
		s, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		st[i] = s
	}
	return st[0], st[1]
}

// TestAppendIsABatchOfOne: Append(a) and AppendBatch([]{a}) on twin
// stores assign the same sequence numbers, write byte-identical segment
// files (across rotations) and move every counter alike.
func TestAppendIsABatchOfOne(t *testing.T) {
	single, batch := twinStores(t, Options{SegmentBytes: 128})
	for i := 0; i < 100; i++ {
		a := act(i)
		s1, err1 := single.Append(a)
		s2, err2 := batch.AppendBatch([]logs.Action{a})
		if err1 != nil || err2 != nil {
			t.Fatalf("append %d: %v, %v", i, err1, err2)
		}
		if s1 != s2 {
			t.Fatalf("append %d: seq %d beside %d", i, s1, s2)
		}
	}
	sameSegments(t, single.Dir(), batch.Dir())
	if a, b := single.Stats(), batch.Stats(); a != b {
		t.Fatalf("stats differ:\n Append      %+v\n AppendBatch %+v", a, b)
	}
	if st := single.Stats(); st.Rotations == 0 || st.BatchAppends != 100 {
		t.Fatalf("%d rotations, %d append rounds: want some rotations and 100 rounds", st.Rotations, st.BatchAppends)
	}
}

// TestAppendFailedSyncMatchesBatch: under a segment that refuses fsync,
// Append fails exactly as a one-action AppendBatch does, and leaves the
// record as the batch does: written and visible, its state on disk
// unknown (see AppendBatch).
func TestAppendFailedSyncMatchesBatch(t *testing.T) {
	single, batch := twinStores(t, Options{Fsync: true})
	first := logs.SndAct("p", logs.NameT("m"), logs.NameT("v0"))
	for _, s := range []*Store{single, batch} {
		if _, err := s.Append(first); err != nil { // creates the shard
			t.Fatal(err)
		}
		BreakSync(t, s, "p")
	}
	a := logs.SndAct("p", logs.NameT("m"), logs.NameT("v1"))
	_, err1 := single.Append(a)
	_, err2 := batch.AppendBatch([]logs.Action{a})
	if err1 == nil || err2 == nil {
		t.Fatalf("append over a segment that cannot sync: %v, %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("errors differ: %q beside %q", err1, err2)
	}
	if !logs.Equal(single.GlobalLog(), batch.GlobalLog()) || single.Len() != 2 {
		t.Fatalf("after the failed sync: %s beside %s, want both records",
			single.GlobalLog(), batch.GlobalLog())
	}
	sameSegments(t, single.Dir(), batch.Dir())
	if a, b := single.Stats(), batch.Stats(); a != b {
		t.Fatalf("stats differ:\n Append      %+v\n AppendBatch %+v", a, b)
	}
}

// TestAppendBatchOfOneAllocatesNothing: a one-action AppendBatch into
// an existing shard allocates nothing inside the store once the shard's
// slices have grown (their amortised growth rounds down to zero per
// call): the batch's shard map, stripe set and closures stay on the
// stack.
func TestAppendBatchOfOneAllocatesNothing(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := []logs.Action{logs.SndAct("p", logs.NameT("m"), logs.NameT("v"))}
	if _, err := s.AppendBatch(batch); err != nil { // creates the shard
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one-action AppendBatch allocates %v per call, want 0", allocs)
	}
}

// TestOpenRefusesTooManyStripes: a batch's stripe set is one uint64
// mask, so Open refuses more than 64 stripes.
func TestOpenRefusesTooManyStripes(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Stripes: maxStripes + 1}); err == nil {
		t.Fatalf("Open with %d stripes succeeded", maxStripes+1)
	}
	s, err := Open(t.TempDir(), Options{Stripes: maxStripes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One batch over every stripe: the mask's top bit locks and
	// unlocks like the rest.
	var acts []logs.Action
	var covered uint64
	for i := 0; covered != ^uint64(0); i++ {
		p := fmt.Sprintf("p%d", i)
		covered |= 1 << s.stripeIdx(p)
		acts = append(acts, logs.SndAct(p, logs.NameT("m"), logs.NameT("v")))
	}
	if _, err := s.AppendBatch(acts); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(acts) {
		t.Fatalf("%d records, want %d", s.Len(), len(acts))
	}
}
