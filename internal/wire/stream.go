package wire

// Streaming frame codec: the record-frame layout segment files use on
// disk (uvarint length prefix, versioned envelope, CRC32C trailer),
// generalised to any io.Reader/io.Writer so the same frames can cross a
// socket. This is the framing layer of the binary ingest protocol (see
// ingest.go for the message layer and docs/protocol.md for the spec):
// each frame is independently checksummed, so a receiver detects
// corruption per frame, and a truncated stream is distinguished from a
// cleanly closed one by *where* the bytes run out — at a frame boundary
// (io.EOF) or inside a frame (ErrTruncated).
//
// Both directions are allocation-free in the steady state, and *cheap
// while idle*: the bufio buffers and the decoder's frame buffer are
// acquired lazily from shared pools (pool.go) and can be handed back
// with ReleaseBuffers when a connection goes quiet — which is why a
// connection the ingest listener has idle-parked holds no stream
// buffers. After a release the next read or write reacquires
// transparently; releasing is refused (silently skipped) while
// buffered bytes would be lost.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// streamBufSize is the bufio buffer on each side of a stream. Frames
// are typically a few hundred bytes (one record) to a few hundred KiB
// (a large ingest batch); 64 KiB batches syscalls well for both.
const streamBufSize = 64 << 10

// StreamEncoder writes checksummed frames to an underlying writer
// through a pooled buffer. It is not safe for concurrent use; a
// connection writer serialises access. Call Flush to push buffered
// frames to the underlying writer.
type StreamEncoder struct {
	dst     io.Writer
	w       *bufio.Writer // nil when released; reacquired lazily
	scratch *Encoder
}

// NewStreamEncoder returns an encoder framing onto w. The write buffer
// is drawn from a shared pool on first use.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	return &StreamEncoder{dst: w, scratch: NewEncoder()}
}

// writer returns the bufio writer, reacquiring one from the pool after
// a release.
func (e *StreamEncoder) writer() *bufio.Writer {
	if e.w == nil {
		if v := writerPool.Get(); v != nil {
			e.w = v.(*bufio.Writer)
			e.w.Reset(e.dst)
		} else {
			e.w = bufio.NewWriterSize(e.dst, streamBufSize)
		}
	}
	return e.w
}

// Envelope writes one frame holding the given envelope bytes (as
// produced by Encoder.Bytes): uvarint(len) env crc32c(env).
func (e *StreamEncoder) Envelope(env []byte) error {
	if len(env) > MaxFrameLen {
		return ErrTooLarge
	}
	w := e.writer()
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(env)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(env); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(env, crcTable))
	_, err := w.Write(sum[:])
	return err
}

// Record writes one framed record, reusing the encoder's scratch
// envelope buffer.
func (e *StreamEncoder) Record(r Record) error {
	e.scratch.Reset()
	e.scratch.Record(r)
	return e.Envelope(e.scratch.Bytes())
}

// Flush pushes all buffered frames to the underlying writer.
func (e *StreamEncoder) Flush() error {
	if e.w == nil {
		return nil
	}
	return e.w.Flush()
}

// ReleaseBuffers returns the write buffer to the shared pool if nothing
// is pending in it (call Flush first). An idle-parked connection calls
// this so its cost while parked is the socket, not the buffers.
func (e *StreamEncoder) ReleaseBuffers() {
	if e.w != nil && e.w.Buffered() == 0 {
		w := e.w
		e.w = nil
		w.Reset(io.Discard) // drop the conn reference while pooled
		writerPool.Put(w)
	}
}

// StreamDecoder reads checksummed frames from an underlying reader
// through a pooled buffer. It is not safe for concurrent use.
type StreamDecoder struct {
	src    io.Reader
	r      *bufio.Reader // nil when released; reacquired lazily
	buf    []byte        // pooled frame buffer; Envelope returns views into it
	intern *Interner     // optional, threaded into Record decodes
}

// NewStreamDecoder returns a decoder framing off r. The read buffer is
// drawn from a shared pool on first use.
func NewStreamDecoder(r io.Reader) *StreamDecoder {
	return &StreamDecoder{src: r}
}

// SetInterner installs a string cache used by this decoder's Record
// decodes (see Interner).
func (d *StreamDecoder) SetInterner(it *Interner) { d.intern = it }

// reader returns the bufio reader, reacquiring one from the pool after
// a release.
func (d *StreamDecoder) reader() *bufio.Reader {
	if d.r == nil {
		if v := readerPool.Get(); v != nil {
			d.r = v.(*bufio.Reader)
			d.r.Reset(d.src)
		} else {
			d.r = bufio.NewReaderSize(d.src, streamBufSize)
		}
	}
	return d.r
}

// Buffered reports the bytes sitting in the read buffer — frames (or
// frame fragments) already off the socket but not yet decoded. A
// connection must not park while this is nonzero.
func (d *StreamDecoder) Buffered() int {
	if d.r == nil {
		return 0
	}
	return d.r.Buffered()
}

// Peek blocks until at least n bytes are buffered (consuming nothing)
// and returns a view of them. The idle-parking path uses Peek(1) under
// a read deadline as its safe idleness probe: a deadline that expires
// here has consumed no bytes, so the stream is still exactly at a frame
// boundary and can be parked or resumed without damage.
func (d *StreamDecoder) Peek(n int) ([]byte, error) {
	return d.reader().Peek(n)
}

// ReleaseBuffers returns the read buffer (if it holds no undecoded
// bytes) and the frame buffer to their shared pools. The frame buffer
// must no longer be aliased: any envelope previously returned is dead
// the moment this is called — same contract as the next Envelope call.
func (d *StreamDecoder) ReleaseBuffers() {
	if d.buf != nil {
		PutBuf(d.buf)
		d.buf = nil
	}
	if d.r != nil && d.r.Buffered() == 0 {
		r := d.r
		d.r = nil
		r.Reset(eofReader{}) // drop the conn reference while pooled
		readerPool.Put(r)
	}
}

// eofReader is the parked state of a pooled bufio.Reader.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// Envelope reads the next frame and returns its envelope payload,
// checksum verified. The returned slice aliases the decoder's pooled
// frame buffer and is valid only until the next call (or a
// ReleaseBuffers).
//
// Errors are precise about stream state: io.EOF means the stream ended
// cleanly at a frame boundary; ErrTruncated means it ended inside a
// frame; ErrTooLarge means the length prefix exceeds MaxFrameLen (the
// decoder refuses before reading — or allocating — the body, so an
// adversarial length cannot balloon memory); ErrChecksum means the
// frame arrived complete but corrupt.
func (d *StreamDecoder) Envelope() ([]byte, error) {
	r := d.reader()
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated // stream died inside the length prefix
		}
		return nil, err // io.EOF at a frame boundary, or a transport error
	}
	if n > MaxFrameLen {
		return nil, ErrTooLarge
	}
	need := int(n) + 4
	if cap(d.buf) < need {
		PutBuf(d.buf)
		d.buf = GetBuf(need)
	}
	buf := d.buf[:need]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	env := buf[:n]
	if crc32.Checksum(env, crcTable) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, ErrChecksum
	}
	return env, nil
}

// Record reads the next frame and decodes it as a record, interning
// strings when an interner is installed.
func (d *StreamDecoder) Record() (Record, error) {
	env, err := d.Envelope()
	if err != nil {
		return Record{}, err
	}
	var dec Decoder
	if err := dec.Reset(env); err != nil {
		return Record{}, err
	}
	dec.intern = d.intern
	r, err := dec.Record()
	if err != nil {
		return Record{}, err
	}
	if err := dec.Done(); err != nil {
		return Record{}, err
	}
	return r, nil
}
