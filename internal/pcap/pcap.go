// Package pcap reads and writes classic libpcap capture files (the
// original pcap format, magic 0xa1b2c3d4), so synthetic captures can be
// persisted, exchanged and fed back to the observer — or inspected with
// standard tooling.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// File format constants.
const (
	magicMicros   = 0xa1b2c3d4
	magicMicrosBE = 0xd4c3b2a1
	versionMajor  = 2
	versionMinor  = 4
	// LinkTypeEthernet is the only link type this package produces.
	LinkTypeEthernet = 1
	defaultSnapLen   = 262144
)

// Format errors.
var (
	// ErrBadMagic marks a file that is not classic pcap.
	ErrBadMagic = errors.New("pcap: bad magic")
	// ErrTruncated marks a file cut short mid-record.
	ErrTruncated = errors.New("pcap: truncated file")
)

// Record is one captured packet.
type Record struct {
	// TimeSec and TimeMicro form the capture timestamp.
	TimeSec   uint32
	TimeMicro uint32
	// Data holds the captured bytes (possibly fewer than OrigLen).
	Data []byte
	// OrigLen is the original wire length.
	OrigLen uint32
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	snapLen uint32
	started bool
}

// NewWriter returns a Writer targeting w. The global header is emitted on
// the first WriteRecord (or by Flush of an empty capture via writeHeader).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: defaultSnapLen}
}

// writeHeader emits the global pcap header once.
func (w *Writer) writeHeader() error {
	if w.started {
		return nil
	}
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicMicros)
	le.PutUint16(hdr[4:6], versionMajor)
	le.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs zero.
	le.PutUint32(hdr[16:20], w.snapLen)
	le.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing header: %w", err)
	}
	w.started = true
	return nil
}

// WriteRecord appends one packet with the given timestamp (seconds and
// microseconds).
func (w *Writer) WriteRecord(sec, usec uint32, data []byte) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	capLen := uint32(len(data))
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	var hdr [16]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], sec)
	le.PutUint32(hdr[4:8], usec)
	le.PutUint32(hdr[8:12], capLen)
	le.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data[:capLen]); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// Reader parses a pcap stream.
type Reader struct {
	r     io.Reader
	order binary.ByteOrder
	// LinkType is the capture's link type from the global header.
	LinkType uint32
	// SnapLen is the capture's snap length.
	SnapLen uint32
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	var order binary.ByteOrder
	switch magicLE {
	case magicMicros:
		order = binary.LittleEndian
	case magicMicrosBE:
		order = binary.BigEndian
	default:
		return nil, fmt.Errorf("%w: %#08x", ErrBadMagic, magicLE)
	}
	return &Reader{
		r:        r,
		order:    order,
		SnapLen:  order.Uint32(hdr[16:20]),
		LinkType: order.Uint32(hdr[20:24]),
	}, nil
}

// Next returns the next record, or io.EOF at clean end of file.
func (r *Reader) Next() (Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: record header", ErrTruncated)
	}
	rec := Record{
		TimeSec:   r.order.Uint32(hdr[0:4]),
		TimeMicro: r.order.Uint32(hdr[4:8]),
		OrigLen:   r.order.Uint32(hdr[12:16]),
	}
	capLen := r.order.Uint32(hdr[8:12])
	if capLen > r.SnapLen && r.SnapLen > 0 {
		return Record{}, fmt.Errorf("pcap: record claims %d bytes beyond snaplen %d", capLen, r.SnapLen)
	}
	// No sane link-layer capture carries frames beyond this (jumbo
	// frames are <64 KiB; the classic-format ceiling seen in the wild
	// is 256 KiB). Below it, readBody keeps a hostile header from
	// allocating more than the stream delivers.
	const maxRecordBytes = 1 << 24
	if capLen > maxRecordBytes {
		return Record{}, fmt.Errorf("pcap: record claims implausible %d bytes", capLen)
	}
	data, err := readBody(r.r, int(capLen))
	if err != nil {
		return Record{}, fmt.Errorf("%w: record body", ErrTruncated)
	}
	rec.Data = data
	return rec, nil
}

// eagerBody is the record length readBody allocates in one go: every
// Ethernet frame, jumbo frames aside, fits.
const eagerBody = 4 << 10

// readBody reads exactly n bytes. Past eagerBody the buffer at most
// doubles per step, and only once the bytes before it have arrived, so
// a header that claims megabytes over a short stream costs what the
// stream holds, not what the header says.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, eagerBody))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for got := len(buf); got < n; got = len(buf) {
		next := make([]byte, got+min(n-got, got))
		copy(next, buf)
		buf = next
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
