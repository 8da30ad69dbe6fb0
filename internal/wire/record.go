package wire

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/logs"
)

// Record is the unit of durable provenance storage: one globally sequenced
// log action, as written to the segment files of internal/store. The
// sequence number totally orders records across all shards, so the exact
// monitored-log spine (most recent action first) can be reconstructed from
// a sharded, per-principal layout.
type Record struct {
	// Seq is the record's position in the global monitor log, assigned
	// once at append time and never reused.
	Seq uint64
	// Act is the logged action.
	Act logs.Action
}

// Record encodes a store record.
func (e *Encoder) Record(r Record) {
	e.uvarint(r.Seq)
	e.Action(r.Act)
}

// Record decodes a store record.
func (d *Decoder) Record() (Record, error) {
	seq, err := d.uvarint()
	if err != nil {
		return Record{}, err
	}
	a, err := d.Action()
	if err != nil {
		return Record{}, err
	}
	return Record{Seq: seq, Act: a}, nil
}

// EncodeRecord is a convenience one-shot record encoder.
func EncodeRecord(r Record) []byte {
	e := NewEncoder()
	e.Record(r)
	return e.Bytes()
}

// DecodeRecord is a convenience one-shot record decoder.
func DecodeRecord(b []byte) (Record, error) {
	d, err := NewDecoder(b)
	if err != nil {
		return Record{}, err
	}
	r, err := d.Record()
	if err != nil {
		return Record{}, err
	}
	if err := d.Done(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// crcTable is the Castagnoli polynomial used by the frame checksums (the
// same choice as most modern storage formats; hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecordFrame appends the segment-file frame for r to dst:
//
//	frame := uvarint(len(env)) env crc32c(env)
//
// where env is the record's versioned wire envelope. Each frame is
// independently decodable, so a reader can recover every record written
// before a crash and detect the torn frame (if any) at the tail of a
// segment.
func AppendRecordFrame(dst []byte, r Record) []byte {
	return AppendRecordFrameScratch(dst, r, NewEncoder())
}

// AppendRecordFrameScratch is AppendRecordFrame with a caller-owned
// scratch encoder for the envelope, the zero-alloc shape of the store's
// append hot path: a segment reuses one scratch across every record it
// writes, so framing a record costs no garbage once the scratch is
// warm. The scratch is reset here; its contents after the call are the
// framed record's envelope.
func AppendRecordFrameScratch(dst []byte, r Record, scratch *Encoder) []byte {
	scratch.Reset()
	scratch.Record(r)
	env := scratch.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(env)))
	dst = append(dst, env...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(env, crcTable))
}

// ReadRecordFrame decodes the frame at the head of b, returning the record
// and the total number of bytes the frame occupies. An incomplete frame
// yields ErrTruncated (the expected state of a segment tail after a crash
// mid-write); a complete frame whose payload fails its checksum yields
// ErrChecksum.
func ReadRecordFrame(b []byte) (Record, int, error) {
	var d Decoder
	return d.RecordFrame(b)
}

// RecordFrame is ReadRecordFrame decoding through d, the shape of a
// segment scan: one decoder serves every frame of a file, and an
// interner set on it (SetInterner) lets the records it returns share
// their repeated names instead of holding a copy each.
func (d *Decoder) RecordFrame(b []byte) (Record, int, error) {
	n, ln := binary.Uvarint(b)
	if ln <= 0 {
		return Record{}, 0, ErrTruncated
	}
	if n > MaxFrameLen {
		return Record{}, 0, ErrTooLarge
	}
	total := ln + int(n) + 4
	if len(b) < total {
		return Record{}, 0, ErrTruncated
	}
	env := b[ln : ln+int(n)]
	sum := binary.LittleEndian.Uint32(b[ln+int(n) : total])
	if crc32.Checksum(env, crcTable) != sum {
		return Record{}, 0, ErrChecksum
	}
	if err := d.Reset(env); err != nil {
		return Record{}, 0, err
	}
	r, err := d.Record()
	if err != nil {
		return Record{}, 0, err
	}
	if err := d.Done(); err != nil {
		return Record{}, 0, err
	}
	return r, total, nil
}
