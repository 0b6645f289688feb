package sniffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// DNS errors.
var (
	// ErrNotDNSQuery marks a datagram that is not a plain DNS query.
	ErrNotDNSQuery = errors.New("sniffer: not a DNS query")
	// ErrBadName marks an invalid DNS name encoding.
	ErrBadName = errors.New("sniffer: invalid DNS name")
)

// DNS record constants.
const (
	dnsTypeA    = 1
	dnsTypeAAAA = 28
	dnsClassIN  = 1
	// maxDNSName is the longest name DNS carries, counted as it is
	// encoded (RFC 1035 Section 2.3.4): 253 characters written out.
	maxDNSName = 255
)

// ErrNotDNSResponse marks a datagram that is not a DNS response.
var ErrNotDNSResponse = errors.New("sniffer: not a DNS response")

// BuildDNSQuery renders a standard A-record query for host with the given
// transaction ID — what a stub resolver emits on port 53 before every new
// connection (paper Section 7.2: DNS providers see hostnames too).
func BuildDNSQuery(host string, txid uint16) ([]byte, error) {
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, txid)
	buf = binary.BigEndian.AppendUint16(buf, 0x0100) // RD
	buf = binary.BigEndian.AppendUint16(buf, 1)      // QDCOUNT
	buf = append(buf, 0, 0, 0, 0, 0, 0)              // AN/NS/AR counts
	name, err := appendDNSName(nil, host)
	if err != nil {
		return nil, err
	}
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint16(buf, dnsTypeA)
	buf = binary.BigEndian.AppendUint16(buf, dnsClassIN)
	return buf, nil
}

// appendDNSName encodes host as DNS labels.
func appendDNSName(buf []byte, host string) ([]byte, error) {
	if host == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadName)
	}
	if len(host)+2 > maxDNSName { // a length byte per label, and the root's
		return nil, fmt.Errorf("%w: name of %d bytes", ErrBadName, len(host))
	}
	for _, label := range strings.Split(host, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// ParseDNSQueryName extracts the first question name from a DNS query
// datagram. Responses (QR=1) are rejected: the observer keys on queries.
func ParseDNSQueryName(datagram []byte) (string, error) {
	if len(datagram) < 12 {
		return "", fmt.Errorf("%w: short header", ErrNotDNSQuery)
	}
	flags := binary.BigEndian.Uint16(datagram[2:4])
	if flags&0x8000 != 0 {
		return "", fmt.Errorf("%w: response bit set", ErrNotDNSQuery)
	}
	qd := binary.BigEndian.Uint16(datagram[4:6])
	if qd == 0 {
		return "", fmt.Errorf("%w: no questions", ErrNotDNSQuery)
	}
	name, _, err := readDNSName(datagram[12:])
	if err != nil {
		return "", err
	}
	return name, nil
}

// BuildDNSResponse renders an answer to an A query for host: the
// question section echoed, one A record pointing at addr, standard TTL.
func BuildDNSResponse(host string, txid uint16, addr [4]byte) ([]byte, error) {
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, txid)
	buf = binary.BigEndian.AppendUint16(buf, 0x8180) // QR, RD, RA
	buf = binary.BigEndian.AppendUint16(buf, 1)      // QDCOUNT
	buf = binary.BigEndian.AppendUint16(buf, 1)      // ANCOUNT
	buf = append(buf, 0, 0, 0, 0)                    // NS/AR counts
	name, err := appendDNSName(nil, host)
	if err != nil {
		return nil, err
	}
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint16(buf, dnsTypeA)
	buf = binary.BigEndian.AppendUint16(buf, dnsClassIN)
	// Answer: compression pointer to the question name at offset 12.
	buf = append(buf, 0xc0, 12)
	buf = binary.BigEndian.AppendUint16(buf, dnsTypeA)
	buf = binary.BigEndian.AppendUint16(buf, dnsClassIN)
	buf = binary.BigEndian.AppendUint32(buf, 300) // TTL
	buf = binary.BigEndian.AppendUint16(buf, 4)   // RDLENGTH
	buf = append(buf, addr[:]...)
	return buf, nil
}

// ParseDNSResponse extracts the question name and every A/AAAA answer
// address (in Packet 16-byte encoding) from a DNS response datagram.
func ParseDNSResponse(datagram []byte) (string, [][16]byte, error) {
	if len(datagram) < 12 {
		return "", nil, fmt.Errorf("%w: short header", ErrNotDNSResponse)
	}
	flags := binary.BigEndian.Uint16(datagram[2:4])
	if flags&0x8000 == 0 {
		return "", nil, fmt.Errorf("%w: response bit clear", ErrNotDNSResponse)
	}
	qd := int(binary.BigEndian.Uint16(datagram[4:6]))
	an := int(binary.BigEndian.Uint16(datagram[6:8]))
	if qd != 1 || an == 0 {
		return "", nil, fmt.Errorf("%w: qd=%d an=%d", ErrNotDNSResponse, qd, an)
	}
	host, n, err := readDNSName(datagram[12:])
	if err != nil {
		return "", nil, err
	}
	off := 12 + n + 4 // skip QTYPE/QCLASS
	var addrs [][16]byte
	for i := 0; i < an; i++ {
		var used int
		used, err = skipDNSName(datagram, off)
		if err != nil {
			return "", nil, err
		}
		off += used
		if off+10 > len(datagram) {
			return "", nil, fmt.Errorf("%w: truncated answer", ErrNotDNSResponse)
		}
		typ := binary.BigEndian.Uint16(datagram[off : off+2])
		rdlen := int(binary.BigEndian.Uint16(datagram[off+8 : off+10]))
		off += 10
		if off+rdlen > len(datagram) {
			return "", nil, fmt.Errorf("%w: truncated rdata", ErrNotDNSResponse)
		}
		switch {
		case typ == dnsTypeA && rdlen == 4:
			var a [16]byte
			copy(a[:4], datagram[off:off+4])
			a[15] = 4
			addrs = append(addrs, a)
		case typ == dnsTypeAAAA && rdlen == 16:
			var a [16]byte
			copy(a[:], datagram[off:off+16])
			addrs = append(addrs, a)
		}
		off += rdlen
	}
	return host, addrs, nil
}

// skipDNSName advances past a (possibly compressed) name at off,
// returning the bytes consumed.
func skipDNSName(msg []byte, off int) (int, error) {
	n := 0
	for {
		if off+n >= len(msg) {
			return 0, fmt.Errorf("%w: unterminated answer name", ErrBadName)
		}
		l := int(msg[off+n])
		switch {
		case l == 0:
			return n + 1, nil
		case l&0xc0 == 0xc0:
			return n + 2, nil // compression pointer terminates the name
		default:
			n += 1 + l
		}
	}
}

// readDNSName decodes an uncompressed DNS name, returning it and the
// bytes consumed. Compression pointers are rejected (queries never need
// them).
func readDNSName(b []byte) (string, int, error) {
	var labels []string
	off := 0
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("%w: unterminated", ErrBadName)
		}
		l := int(b[off])
		if l == 0 {
			off++
			break
		}
		if l&0xc0 != 0 {
			return "", 0, fmt.Errorf("%w: compression in query", ErrBadName)
		}
		if off+1+l > len(b) {
			return "", 0, fmt.Errorf("%w: label overflow", ErrBadName)
		}
		if off+1+l >= maxDNSName {
			return "", 0, fmt.Errorf("%w: name longer than %d bytes", ErrBadName, maxDNSName)
		}
		labels = append(labels, string(b[off+1:off+1+l]))
		off += 1 + l
	}
	if len(labels) == 0 {
		return "", 0, fmt.Errorf("%w: root-only name", ErrBadName)
	}
	return strings.Join(labels, "."), off, nil
}
