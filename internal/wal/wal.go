// Package wal implements the write-ahead log that makes MemTable contents
// durable before they are flushed to an SSTable. Records are length- and
// CRC-framed; replay stops cleanly at the first torn or corrupt record, so
// a crash mid-write loses at most the record being written (LevelDB's
// recovery contract).
//
// The writer buffers frames in memory (bufio) and the engine flushes at
// commit-group granularity: one write syscall per group of concurrent
// commits (a lone commit is a group of one) instead of two per record.
// Sync flushes the buffer and fsyncs; callers choose when via SyncMode.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"leveldbpp/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects WAL durability semantics per commit.
type SyncMode uint8

// The sync modes. The zero value is SyncOff.
const (
	// SyncOff never fsyncs: frames reach the OS (buffer flush per
	// commit) but a machine crash can lose acknowledged writes. The
	// paper's throughput configuration.
	SyncOff SyncMode = iota
	// SyncGrouped fsyncs once per commit group: every commit is
	// acknowledged only after an fsync covering its records, and
	// concurrent committers share one — LevelDB's sync=true, which
	// syncs once per write group. A lone writer is a group of one.
	SyncGrouped
)

// ParseSyncMode parses a -sync-mode flag value; "always" is another
// spelling of "grouped".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "always", "grouped":
		return SyncGrouped, nil
	default:
		return SyncOff, fmt.Errorf("wal: unknown sync mode %q (want off, always or grouped)", s)
	}
}

// Record is one logged operation: a put (Value != nil semantics carried by
// Kind) or delete of a user key at a sequence number.
type Record struct {
	Seq   uint64
	Kind  byte // 0 = delete, 1 = set (matches ikey kinds)
	Key   []byte
	Value []byte
}

// bufferSize is the in-memory frame buffer. Large enough that a typical
// commit group flushes in one write syscall.
const bufferSize = 64 << 10

// Writer appends records to a log file through an in-memory buffer.
// Frames are durable in the file only after Flush (OS-durable) or Sync
// (storage-durable); Close flushes. A failed write is sticky: every later
// Append, Flush and Sync returns it. Not safe for concurrent use — the
// engine serializes WAL I/O under its log mutex.
type Writer struct {
	f   vfs.File
	bw  *bufio.Writer
	buf []byte // frame-encode scratch
}

// NewWriter returns a Writer that appends to f, which it owns.
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f, bw: bufio.NewWriterSize(f, bufferSize)}
}

// Create creates or truncates the log file at path on the OS file system.
func Create(path string) (*Writer, error) {
	f, err := vfs.Default.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	return NewWriter(f), nil
}

// Append writes one record. The frame is:
//
//	u32 crc | u32 payloadLen | payload
//	payload = u64 seq | u8 kind | uvarint keyLen | key | value
func (w *Writer) Append(r Record) error {
	w.buf = w.buf[:0]
	w.buf = binary.BigEndian.AppendUint64(w.buf, r.Seq)
	w.buf = append(w.buf, r.Kind)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(r.Key)))
	w.buf = append(w.buf, r.Key...)
	w.buf = append(w.buf, r.Value...)
	return w.writeFrame()
}

// writeFrame emits the header + w.buf payload into the buffer.
func (w *Writer) writeFrame() error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], crc32.Checksum(w.buf, crcTable))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(w.buf)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append header: %w", err)
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("wal: append payload: %w", err)
	}
	return nil
}

// Flush pushes buffered frames to the OS. The engine calls it once per
// commit (or commit group), so acknowledged writes are always visible in
// the file even without fsync — live-directory copies (checkpoints,
// crash tests) rely on this.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Sync flushes the buffer and fsyncs the log to stable storage.
func (w *Writer) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes the buffer and closes the underlying file.
func (w *Writer) Close() error {
	ferr := w.bw.Flush()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Replay reads the records of the log f in order, invoking fn for each.
// It returns nil at a clean end or at a torn, corrupt or zero-filled tail
// (what a crash or a power loss leaves); any other corruption is reported.
func Replay(f io.Reader, fn func(Record) error) error {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // clean end or torn header
			}
			return fmt.Errorf("wal: read header: %w", err)
		}
		wantCRC := binary.BigEndian.Uint32(hdr[0:4])
		payload, err := readPayload(f, int(binary.BigEndian.Uint32(hdr[4:8])))
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn payload
			}
			return fmt.Errorf("wal: read payload: %w", err)
		}
		// No frame is empty, but a zeroed header passes the CRC (that of
		// an empty payload is 0): a zero-filled tail ends replay too.
		if len(payload) == 0 || crc32.Checksum(payload, crcTable) != wantCRC {
			return nil // corrupt tail; stop replay here
		}
		var records []Record
		if len(payload) > 8 && payload[8] == batchKind {
			records, err = decodeBatch(payload)
		} else {
			records = make([]Record, 1)
			records[0], err = decode(payload)
		}
		if err != nil {
			return err
		}
		for _, r := range records {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
}

// payloadChunk is the most readPayload allocates before any byte of a
// payload has arrived.
const payloadChunk = 64 << 10

// readPayload reads a frame's n-byte payload. The length comes from a
// header the CRC has not checked yet, so the buffer grows only as the
// bytes arrive, at most doubling: a garbage length in a torn tail
// allocates about what the tail holds, not what the header claims.
func readPayload(f io.Reader, n int) ([]byte, error) {
	payload := make([]byte, min(n, payloadChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(f, payload[off:]); err != nil {
			return nil, err
		}
		if len(payload) == n {
			return payload, nil
		}
		off = len(payload)
		payload = append(payload, make([]byte, min(n-off, off))...)
	}
}

func decode(p []byte) (Record, error) {
	if len(p) < 9 {
		return Record{}, fmt.Errorf("wal: record too short (%d bytes)", len(p))
	}
	r := Record{
		Seq:  binary.BigEndian.Uint64(p[0:8]),
		Kind: p[8],
	}
	klen, n := binary.Uvarint(p[9:])
	if n <= 0 || 9+n+int(klen) > len(p) {
		return Record{}, fmt.Errorf("wal: corrupt key length")
	}
	off := 9 + n
	r.Key = append([]byte(nil), p[off:off+int(klen)]...)
	r.Value = append([]byte(nil), p[off+int(klen):]...)
	return r, nil
}

// batchKind marks a frame containing multiple sub-records that commit
// atomically: the frame CRC covers all of them, so replay applies either
// the whole batch or none of it.
const batchKind = 0xff

// AppendBatch writes records as one atomically-replayed frame. Records
// must carry consecutive sequence numbers starting at records[0].Seq.
func (w *Writer) AppendBatch(records []Record) error {
	if len(records) == 0 {
		return nil
	}
	if len(records) == 1 {
		return w.Append(records[0])
	}
	w.buf = w.buf[:0]
	w.buf = binary.BigEndian.AppendUint64(w.buf, records[0].Seq)
	w.buf = append(w.buf, batchKind)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(records)))
	for _, r := range records {
		w.buf = append(w.buf, r.Kind)
		w.buf = binary.AppendUvarint(w.buf, uint64(len(r.Key)))
		w.buf = append(w.buf, r.Key...)
		w.buf = binary.AppendUvarint(w.buf, uint64(len(r.Value)))
		w.buf = append(w.buf, r.Value...)
	}
	return w.writeFrame()
}

// decodeBatch expands a batch frame into its sub-records.
func decodeBatch(p []byte) ([]Record, error) {
	baseSeq := binary.BigEndian.Uint64(p[0:8])
	buf := p[9:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("wal: corrupt batch count")
	}
	buf = buf[n:]
	out := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(buf) < 1 {
			return nil, fmt.Errorf("wal: truncated batch record %d", i)
		}
		kind := buf[0]
		buf = buf[1:]
		klen, n := binary.Uvarint(buf)
		if n <= 0 || int(klen) > len(buf)-n {
			return nil, fmt.Errorf("wal: corrupt batch key %d", i)
		}
		buf = buf[n:]
		key := append([]byte(nil), buf[:klen]...)
		buf = buf[klen:]
		vlen, n := binary.Uvarint(buf)
		if n <= 0 || int(vlen) > len(buf)-n {
			return nil, fmt.Errorf("wal: corrupt batch value %d", i)
		}
		buf = buf[n:]
		val := append([]byte(nil), buf[:vlen]...)
		buf = buf[vlen:]
		out = append(out, Record{Seq: baseSeq + i, Kind: kind, Key: key, Value: val})
	}
	return out, nil
}
