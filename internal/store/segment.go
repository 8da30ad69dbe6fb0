package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Segment files hold a contiguous run of record frames (see
// wire.AppendRecordFrame). A shard directory contains one active segment
// (the append target) plus zero or more sealed segments awaiting
// compaction. File names embed the first sequence number the segment was
// opened at, zero-padded so lexicographic order is append order:
//
//	seg-<first seq, %016x>.seg

const (
	segPrefix = "seg-"
	segSuffix = ".seg"
)

func segName(baseSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, baseSeq, segSuffix)
}

// segment is an open, appendable segment file.
type segment struct {
	path    string
	f       *os.File
	size    int64
	buf     []byte        // frames of the append in progress, reused across appends
	scratch *wire.Encoder // envelope scratch, reused across appends
	// poisoned marks a segment whose failed append could not be rolled
	// back: a torn frame sits mid-file, so further appends would be
	// silently discarded by recovery. All writes are refused until a
	// restart truncates the tail.
	poisoned bool
}

// errPoisoned is returned for appends to a segment with an
// un-rolled-back torn frame.
var errPoisoned = errors.New("store: segment poisoned by failed rollback; restart to truncate and recover")

// openSegment opens (creating if needed) a segment for appending. size
// must be the current clean length of the file (recovery truncates to it
// before reopening).
func openSegment(path string, size int64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{path: path, f: f, size: size, scratch: wire.NewEncoder()}, nil
}

// write appends b — whole record frames — to the file in one write(2),
// without advancing size: the caller commits the bytes (size +=
// len(b)) once everything the append depends on has succeeded, or
// calls rollback. A failed write is rolled back here.
func (g *segment) write(b []byte) error {
	if g.poisoned {
		return errPoisoned
	}
	if _, err := g.f.Write(b); err != nil {
		return g.rollback(err)
	}
	return nil
}

// rollback truncates the file to size, its last committed length, and
// returns err. Leaving a torn frame mid-file would poison the segment
// (recovery stops at the first bad frame), and leaving a whole frame
// behind a reported failure would resurrect a nacked append after
// restart — a retry would then store the action twice.
func (g *segment) rollback(err error) error {
	if terr := g.f.Truncate(g.size); terr != nil {
		// The torn frame could not be removed: any later write would
		// land behind it and be lost at recovery, so fail fast instead.
		g.poisoned = true
		return fmt.Errorf("%w (and rollback failed, segment poisoned: %v)", err, terr)
	}
	return err
}

func (g *segment) sync() error { return g.f.Sync() }

func (g *segment) close() error { return g.f.Close() }

// barrierWidth bounds the fsyncs one durability barrier keeps in flight.
// Syncs issued together share ext4 journal commits, which is the whole
// gain; measured on the reference box, 64 segments take 7.2 ms one after
// another, 3.7 ms at width 4, 3.1 ms at 8 and no less at 16 or 32.
const barrierWidth = 8

// fanOut runs do(0) … do(n-1), at most barrierWidth at a time, and
// returns the first error found. Every index runs even after a failure
// (Close must release every descriptor). One or two items run on the
// caller's goroutine: starting another costs more than the overlap saves.
func fanOut(n int, do func(i int) error) error {
	if n <= 2 {
		var first error
		for i := 0; i < n; i++ {
			if err := do(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var next atomic.Int64
	errs := make([]error, min(n, barrierWidth))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := do(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// scanSegment reads every intact frame of a segment file with dec and
// appends the decoded records to recs. It returns the extended recs, the
// clean prefix length — bytes past cleanLen form a torn or corrupt frame
// (expected after a crash mid-append) and should be truncated before the
// segment is appended to again — and the raw file contents, so callers
// probing the damaged region (tailIsTorn) need not re-read the file. I/O
// errors are returned as err; frame damage is not an error.
func scanSegment(path string, dec *wire.Decoder, recs []wire.Record) (_ []wire.Record, cleanLen int64, data []byte, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return recs, 0, nil, err
	}
	pos := 0
	for pos < len(data) {
		r, n, err := dec.RecordFrame(data[pos:])
		if err != nil {
			// Truncated tail or checksum damage: everything before pos is
			// still good.
			break
		}
		recs = append(recs, r)
		pos += n
	}
	return recs, int64(pos), data, nil
}

// tailIsTorn distinguishes the two ways a segment can fail its scan at
// offset from: a torn tail (a single interrupted append — nothing after
// the damage decodes) versus mid-file corruption with intact frames
// beyond it. Only the former may be truncated; truncating the latter
// would destroy the intact records after the damage. The probe tries
// every offset; a false resync requires a 32-bit checksum collision.
func tailIsTorn(data []byte, from int64) bool {
	for pos := from + 1; pos < int64(len(data)); pos++ {
		if _, _, err := wire.ReadRecordFrame(data[pos:]); err == nil {
			return false
		}
	}
	return true
}

// listSegments returns the segment file names of a shard directory in
// append order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// truncateSegment trims a damaged tail so the file ends on a frame
// boundary.
func truncateSegment(path string, cleanLen int64) error {
	return os.Truncate(path, cleanLen)
}

// syncDir fsyncs a directory, persisting renames, creations and
// removals of its entries.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func segPath(dir, name string) string { return filepath.Join(dir, name) }
