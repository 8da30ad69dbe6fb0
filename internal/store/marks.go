package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/wire"
)

// Batch marks: a crash between the writes of one batch leaves the batch
// all or nothing.
//
// The batch writer issues one write per touched segment, in order of
// each shard's first record. When the shards of a batch interleave —
// shard A holds seqs 0 and 2, shard B seq 1 — a process killed after A's
// write leaves seq 2 on disk without seq 1: a hole inside the batch,
// where records written one at a time in sequence order always left a
// prefix. Open would resume at seq 3, and a replica following from there
// would never fetch seq 1.
//
// So before an interleaved batch writes anything, it records its
// sequence range and record count in a slot of the mark file. Slot i
// belongs to stripe i and is written under that stripe's lock by a batch
// whose first record lies in it, so concurrent batches never share a
// slot; a slot names the last interleaved batch that used it. On Open, a
// slot whose range holds some but not all of its batch's records names
// a batch a crash tore, and those records are truncated away. They are
// the tails of their shards' active segments: the batch held those
// shards' stripes until the crash. A batch whose shards each form one
// run — one record, one shard, or shards that do not interleave — writes
// in prefix order and takes no mark.
//
// Marks are not synced: they cover a process crash, which keeps the page
// cache. A host crash during an fsynced batch's durability barrier may
// still leave a hole (see commitBarrier).
const (
	marksName = "batch.marks"
	// markSize is one slot: the range's first and last sequence number
	// and the record count, little-endian uint64s, then the CRC-32 of
	// those 24 bytes and 4 zero bytes. An all-zero slot fails its CRC.
	markSize = 32
)

// batchMarks is the open mark file.
type batchMarks struct {
	f   *os.File
	buf []byte // markSize bytes per stripe, each guarded by its stripe
}

// mark records that the batch of n records numbered lo … hi is about to
// be written. The caller holds stripe slot.
func (m *batchMarks) mark(slot int, lo, hi uint64, n int) error {
	b := m.buf[slot*markSize : (slot+1)*markSize]
	binary.LittleEndian.PutUint64(b[0:], lo)
	binary.LittleEndian.PutUint64(b[8:], hi)
	binary.LittleEndian.PutUint64(b[16:], uint64(n))
	binary.LittleEndian.PutUint32(b[24:], crc32.ChecksumIEEE(b[:24]))
	_, err := m.f.WriteAt(b, int64(slot*markSize))
	return err
}

// openMarks drops the batches a crash tore, then opens the mark file
// empty: a slot left from an earlier run could name sequence numbers
// this run hands out again. It runs on Open, after the shards are
// recovered, and re-reads a shard it cuts with dec, the recovery's
// decoder.
func (s *Store) openMarks(dec *wire.Decoder) error {
	path := filepath.Join(s.dir, marksName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for off := 0; off+markSize <= len(data); off += markSize {
		b := data[off : off+markSize]
		if binary.LittleEndian.Uint32(b[24:]) != crc32.ChecksumIEEE(b[:24]) {
			continue
		}
		lo, hi, n := binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:])
		if err := s.dropTorn(lo, hi, n, dec); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if err := truncateSynced(f, 0); err != nil {
			f.Close()
			return err
		}
	}
	s.marks = batchMarks{f: f, buf: make([]byte, len(s.stripes)*markSize)}
	return nil
}

// dropTorn truncates away what a crash left of the batch of n records
// numbered within [lo, hi], if some but not all of them are on disk. A
// shard holding a record past hi means the batch was not in flight at
// the crash (an old slot whose batch finished long before); then
// nothing is dropped.
func (s *Store) dropTorn(lo, hi, n uint64, dec *wire.Decoder) error {
	type cut struct {
		sh   *shard
		recs int   // the shard's records in the range: its tail
		off  int64 // where the first of them starts in the active segment
	}
	var cuts []cut
	var found uint64
	for _, sh := range s.shards {
		i := sort.Search(len(sh.recs), func(i int) bool { return sh.recs[i].Seq >= lo })
		if i == len(sh.recs) || sh.recs[i].Seq > hi {
			continue
		}
		if sh.recs[len(sh.recs)-1].Seq > hi {
			return nil
		}
		found += uint64(len(sh.recs) - i)
		cuts = append(cuts, cut{sh: sh, recs: len(sh.recs) - i})
	}
	if found == 0 || found >= n {
		return nil
	}
	for k := range cuts {
		off, ok, err := tailStart(cuts[k].sh.active.path, lo, cuts[k].recs)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		cuts[k].off = off
	}
	for _, c := range cuts {
		g := c.sh.active
		if err := g.close(); err != nil {
			return err
		}
		f, err := os.OpenFile(g.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		err = truncateSynced(f, c.off)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		s.metrics.TruncatedBytes.Add(uint64(g.size - c.off))
		s.metrics.RecoveredRecords.Add(-uint64(len(c.sh.recs)))
		sh, err := s.recoverShard(c.sh.dir, dec)
		if err != nil {
			return err
		}
		s.shards[c.sh.principal] = sh
	}
	return nil
}

// tailStart returns the offset of the first frame numbered lo or later
// in the segment at path, and whether exactly want frames are. Frames
// in a segment ascend, so those frames are its last.
func tailStart(path string, lo uint64, want int) (int64, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	start, n := int64(-1), 0
	for pos := 0; pos < len(data); {
		r, size, err := wire.ReadRecordFrame(data[pos:])
		if err != nil {
			break // recovery truncated any torn tail; nothing follows
		}
		if r.Seq >= lo {
			if start < 0 {
				start = int64(pos)
			}
			n++
		}
		pos += size
	}
	return start, start >= 0 && n == want, nil
}

func truncateSynced(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}
