package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hostprof/internal/trace"
)

// WAL record framing. Each record is
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload    varint user | varint time | uvarint len(host) | host bytes
//
// The frame is self-delimiting, so a segment is replayed by repeatedly
// decoding records until the buffer is exhausted. A crash can leave at
// most one torn record at the very end of the newest segment; the
// framing distinguishes "ran out of bytes" (ErrTornRecord — a valid
// crash artefact) from "bytes are wrong" (ErrCorruptRecord).
const (
	recordHeader = 8
	// maxRecordPayload bounds a single record so a corrupt length field
	// cannot make the replayer allocate or skip gigabytes.
	maxRecordPayload = 1 << 20
)

// MaxHostBytes is the longest hostname one record stores: half the
// payload bound, so the varints beside it always fit.
const MaxHostBytes = maxRecordPayload / 2

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTornRecord marks a record whose frame extends past the end of
	// the buffer — the expected shape of a crash mid-append.
	ErrTornRecord = errors.New("store: torn wal record")
	// ErrCorruptRecord marks a record whose frame is complete but whose
	// contents fail validation (CRC mismatch, bad varints, oversized
	// length).
	ErrCorruptRecord = errors.New("store: corrupt wal record")
)

// CheckHost reports whether a hostname fits in one record; Append
// refuses a visit whose hostname does not.
func CheckHost(host string) error {
	if len(host) > MaxHostBytes {
		return fmt.Errorf("store: hostname of %d bytes exceeds record limit", len(host))
	}
	return nil
}

// appendRecord appends the framed encoding of v to dst.
func appendRecord(dst []byte, v trace.Visit) ([]byte, error) {
	if err := CheckHost(v.Host); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendVarint(dst, int64(v.User))
	dst = binary.AppendVarint(dst, v.Time)
	dst = binary.AppendUvarint(dst, uint64(len(v.Host)))
	dst = append(dst, v.Host...)
	payload := dst[start+recordHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// decodeRecord parses one record from the front of b, returning the
// visit and the total number of bytes consumed (header + payload).
func decodeRecord(b []byte) (trace.Visit, int, error) {
	if len(b) < recordHeader {
		return trace.Visit{}, 0, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 {
		// A zero length is what a pre-allocated or partially flushed
		// tail of zeroes looks like; treat it as torn, not corrupt.
		return trace.Visit{}, 0, ErrTornRecord
	}
	if n > maxRecordPayload {
		return trace.Visit{}, 0, ErrCorruptRecord
	}
	if len(b) < recordHeader+int(n) {
		return trace.Visit{}, 0, ErrTornRecord
	}
	payload := b[recordHeader : recordHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return trace.Visit{}, 0, ErrCorruptRecord
	}
	user, k := binary.Varint(payload)
	if k <= 0 || int64(int(user)) != user {
		// A user that does not fit an int (on a 32-bit build) is refused,
		// not truncated into another user.
		return trace.Visit{}, 0, ErrCorruptRecord
	}
	payload = payload[k:]
	ts, k := binary.Varint(payload)
	if k <= 0 {
		return trace.Visit{}, 0, ErrCorruptRecord
	}
	payload = payload[k:]
	hostLen, k := binary.Uvarint(payload)
	if k <= 0 || hostLen != uint64(len(payload)-k) {
		return trace.Visit{}, 0, ErrCorruptRecord
	}
	v := trace.Visit{User: int(user), Time: ts, Host: string(payload[k:])}
	return v, recordHeader + int(n), nil
}
