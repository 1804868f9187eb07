package dstore

// The write-ahead log: one segment file per seal interval, CRC-framed
// records whose payload is the raw wire-encoded batch the ingest worker
// received. Framing is [uint32 LE length][uint32 LE CRC32(payload)]
// [payload] after a 5-byte header. Recovery rules (the classic WAL
// contract, tested explicitly):
//
//   - an incomplete or CRC-bad record that ends exactly at EOF is a torn
//     write from a crash mid-append: dropped, earlier records replay;
//   - a CRC mismatch with more bytes after it is silent corruption in the
//     middle of the log: a hard error, because everything behind it is
//     suspect too.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	walVersion    = 1
	walHeaderSize = 5 // "DFWL" + version byte
	walFrameSize  = 8 // uint32 length + uint32 crc
)

var walMagic = [4]byte{'D', 'F', 'W', 'L'}

// walName returns the segment filename for a sequence number.
func walName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseWALName extracts the sequence number from a segment filename.
func parseWALName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%d.log", &seq); n == 1 && err == nil && filepath.Ext(name) == ".log" {
		return seq, true
	}
	return 0, false
}

// walWriter is one open segment. Callers (Shard) serialize access.
type walWriter struct {
	f     *os.File
	path  string
	seq   uint64
	bytes int64  // total bytes written to this segment, header included
	dirty int    // bytes appended since the last fsync
	frame []byte // grow-only scratch: header + payload go out in one write
}

// createWAL opens a fresh segment with the given sequence number.
func createWAL(dir string, seq uint64) (*walWriter, error) {
	path := filepath.Join(dir, walName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dstore: create wal segment: %w", err)
	}
	hdr := append(walMagic[:], walVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("dstore: write wal header: %w", err)
	}
	return &walWriter{f: f, path: path, seq: seq, bytes: walHeaderSize, dirty: walHeaderSize}, nil
}

// append frames and writes one record, fsyncing per the policy.
func (w *walWriter) append(payload []byte, cfg Config) error {
	frame := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	w.frame = frame
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("dstore: wal append: %w", err)
	}
	w.bytes += int64(len(frame))
	w.dirty += len(frame)
	switch cfg.Sync {
	case SyncAlways:
		return w.sync()
	case SyncGroup:
		if w.dirty >= cfg.GroupBytes {
			return w.sync()
		}
	}
	return nil
}

// sync flushes the segment to stable storage (group commit point).
func (w *walWriter) sync() error {
	if w.dirty == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("dstore: wal sync: %w", err)
	}
	w.dirty = 0
	return nil
}

// close finishes the segment; when sync is true it is flushed first (the
// clean-shutdown path). The crash-simulation path (Shard.Abort) passes
// false: whatever the OS has is what recovery gets.
func (w *walWriter) close(sync bool) error {
	if sync {
		if err := w.sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// readWALSegment replays one segment file, returning the framed payloads
// in append order and the number of torn trailing records dropped (0 or 1
// — a torn write can only be the last record).
func readWALSegment(path string) (payloads [][]byte, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("dstore: read wal segment: %w", err)
	}
	if len(data) < walHeaderSize || [4]byte(data[:4]) != walMagic {
		return nil, 0, fmt.Errorf("dstore: %s: not a wal segment", filepath.Base(path))
	}
	if data[4] != walVersion {
		return nil, 0, fmt.Errorf("dstore: %s: unsupported wal version %d", filepath.Base(path), data[4])
	}
	off := walHeaderSize
	for off < len(data) {
		if len(data)-off < walFrameSize {
			// Truncated frame header at EOF: torn write, drop.
			return payloads, 1, nil
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > len(data)-off-walFrameSize {
			// Record extends past EOF — only possible for the tail.
			return payloads, 1, nil
		}
		payload := data[off+walFrameSize : off+walFrameSize+length]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+walFrameSize+length == len(data) {
				// CRC-bad final record: torn write, drop.
				return payloads, 1, nil
			}
			return nil, 0, fmt.Errorf("dstore: %s: CRC mismatch at offset %d with %d bytes following — corrupt mid-file",
				filepath.Base(path), off, len(data)-(off+walFrameSize+length))
		}
		payloads = append(payloads, payload)
		off += walFrameSize + length
	}
	return payloads, 0, nil
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
// Best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
