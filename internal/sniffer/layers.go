// Package sniffer implements the passive network observer of the paper:
// byte-level decoding of Ethernet/IPv4/IPv6/TCP/UDP frames, extraction of
// requested hostnames from TLS ClientHello SNI, QUIC v1 Initial packets
// (RFC 9001 initial protection included) and DNS queries, and a flow
// tracker that turns raw packets into per-user hostname request streams.
//
// It also contains the matching builders, so the synthetic population's
// browsing can be rendered to real packet bytes: the observer sees exactly
// what an on-path eavesdropper sees, nothing more.
package sniffer

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Common decode errors.
var (
	// ErrTruncated marks a packet shorter than its headers claim.
	ErrTruncated = errors.New("sniffer: truncated packet")
	// ErrUnsupported marks a link/network/transport type the decoder
	// does not handle.
	ErrUnsupported = errors.New("sniffer: unsupported protocol")
)

// EtherType values used by the decoder.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86dd
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst, Src  [6]byte
	EtherType uint16
}

// Decode parses an Ethernet frame, returning the payload.
func (e *Ethernet) Decode(data []byte) ([]byte, error) {
	if len(data) < 14 {
		return nil, fmt.Errorf("%w: ethernet header", ErrTruncated)
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return data[14:], nil
}

// Append serializes the header followed by payload onto buf.
func (e *Ethernet) Append(buf, payload []byte) []byte {
	buf = append(buf, e.Dst[:]...)
	buf = append(buf, e.Src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, e.EtherType)
	return append(buf, payload...)
}

// IPv4 is a decoded IPv4 header (options are skipped, not retained).
type IPv4 struct {
	TTL      byte
	Protocol byte
	Src, Dst [4]byte
	// HeaderLen is the decoded header length in bytes.
	HeaderLen int
	// TotalLen is the datagram length from the header.
	TotalLen int
}

// Decode parses an IPv4 header, returning the transport payload
// (truncated to TotalLen when the capture includes padding).
func (ip *IPv4) Decode(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: ipv4 header", ErrTruncated)
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("%w: ip version %d in ipv4 decoder", ErrUnsupported, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, fmt.Errorf("%w: ipv4 options", ErrTruncated)
	}
	ip.HeaderLen = ihl
	ip.TotalLen = int(binary.BigEndian.Uint16(data[2:4]))
	ip.TTL = data[8]
	ip.Protocol = data[9]
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	end := ip.TotalLen
	if end > len(data) || end < ihl {
		end = len(data)
	}
	return data[ihl:end], nil
}

// Append serializes the header (fixed 20 bytes, checksum filled in)
// followed by payload onto buf.
func (ip *IPv4) Append(buf, payload []byte) []byte {
	start := len(buf)
	total := 20 + len(payload)
	buf = append(buf,
		0x45, 0, // version+IHL, DSCP
		byte(total>>8), byte(total),
		0, 0, 0x40, 0, // ID, flags (DF), fragment offset
		ip.TTL, ip.Protocol,
		0, 0, // checksum placeholder
	)
	buf = append(buf, ip.Src[:]...)
	buf = append(buf, ip.Dst[:]...)
	cs := headerChecksum(buf[start : start+20])
	binary.BigEndian.PutUint16(buf[start+10:start+12], cs)
	return append(buf, payload...)
}

// IPv6 is a decoded IPv6 fixed header (extension headers other than
// hop-by-hop are not traversed; NextHeader reports what follows).
type IPv6 struct {
	NextHeader byte
	HopLimit   byte
	Src, Dst   [16]byte
	PayloadLen int
}

// Decode parses an IPv6 fixed header, returning the payload.
func (ip *IPv6) Decode(data []byte) ([]byte, error) {
	if len(data) < 40 {
		return nil, fmt.Errorf("%w: ipv6 header", ErrTruncated)
	}
	if v := data[0] >> 4; v != 6 {
		return nil, fmt.Errorf("%w: ip version %d in ipv6 decoder", ErrUnsupported, v)
	}
	ip.PayloadLen = int(binary.BigEndian.Uint16(data[4:6]))
	ip.NextHeader = data[6]
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	end := 40 + ip.PayloadLen
	if end > len(data) {
		end = len(data)
	}
	return data[40:end], nil
}

// Append serializes the fixed header followed by payload onto buf.
func (ip *IPv6) Append(buf, payload []byte) []byte {
	buf = append(buf, 0x60, 0, 0, 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(payload)))
	buf = append(buf, ip.NextHeader, ip.HopLimit)
	buf = append(buf, ip.Src[:]...)
	buf = append(buf, ip.Dst[:]...)
	return append(buf, payload...)
}

// TCP flag bits.
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	HeaderLen        int
}

// Decode parses a TCP header, returning the segment payload.
func (t *TCP) Decode(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: tcp header", ErrTruncated)
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	doff := int(data[12]>>4) * 4
	if doff < 20 || len(data) < doff {
		return nil, fmt.Errorf("%w: tcp options", ErrTruncated)
	}
	t.HeaderLen = doff
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return data[doff:], nil
}

// Append serializes a 20-byte TCP header plus payload onto buf, computing
// the transport checksum over the given IPv4 pseudo-header addresses.
func (t *TCP) Append(buf []byte, src, dst [4]byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Ack)
	buf = append(buf, 0x50, t.Flags) // data offset 5 words
	win := t.Window
	if win == 0 {
		win = 65535
	}
	buf = binary.BigEndian.AppendUint16(buf, win)
	buf = append(buf, 0, 0, 0, 0) // checksum, urgent
	buf = append(buf, payload...)
	cs := transportChecksum(src, dst, ProtoTCP, buf[start:])
	binary.BigEndian.PutUint16(buf[start+16:start+18], cs)
	return buf
}

// Append6 serializes a 20-byte TCP header plus payload onto buf with the
// checksum computed over the given IPv6 pseudo-header addresses.
func (t *TCP) Append6(buf []byte, src, dst [16]byte, payload []byte) []byte {
	start := len(buf)
	buf = t.Append(buf, [4]byte{}, [4]byte{}, payload)
	cs := transportChecksum6(src, dst, ProtoTCP, zeroChecksum(buf[start:], 16))
	binary.BigEndian.PutUint16(buf[start+16:start+18], cs)
	return buf
}

// zeroChecksum returns segment with the 2-byte checksum at off cleared;
// it mutates segment in place and returns it for convenience.
func zeroChecksum(segment []byte, off int) []byte {
	segment[off] = 0
	segment[off+1] = 0
	return segment
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           int
}

// Decode parses a UDP header, returning the datagram payload.
func (u *UDP) Decode(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: udp header", ErrTruncated)
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = int(binary.BigEndian.Uint16(data[4:6]))
	end := u.Length
	if end > len(data) || end < 8 {
		end = len(data)
	}
	return data[8:end], nil
}

// Append serializes a UDP header plus payload onto buf, computing the
// checksum over the given IPv4 pseudo-header addresses.
func (u *UDP) Append(buf []byte, src, dst [4]byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, uint16(8+len(payload)))
	buf = append(buf, 0, 0)
	buf = append(buf, payload...)
	cs := transportChecksum(src, dst, ProtoUDP, buf[start:])
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(buf[start+6:start+8], cs)
	return buf
}

// Append6 serializes a UDP header plus payload onto buf with the checksum
// computed over the given IPv6 pseudo-header addresses (mandatory for
// IPv6; RFC 8200).
func (u *UDP) Append6(buf []byte, src, dst [16]byte, payload []byte) []byte {
	start := len(buf)
	buf = u.Append(buf, [4]byte{}, [4]byte{}, payload)
	cs := transportChecksum6(src, dst, ProtoUDP, zeroChecksum(buf[start:], 6))
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(buf[start+6:start+8], cs)
	return buf
}

// headerChecksum computes the RFC 791 ones-complement checksum of an IPv4
// header whose checksum field is zeroed.
func headerChecksum(hdr []byte) uint16 {
	return onesComplement(sum16(hdr, 0))
}

// transportChecksum computes the TCP/UDP checksum including the IPv4
// pseudo-header.
func transportChecksum(src, dst [4]byte, proto byte, segment []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	s := sum16(pseudo[:], 0)
	s = sum16(segment, s)
	return onesComplement(s)
}

// transportChecksum6 computes the TCP/UDP checksum over the IPv6
// pseudo-header (RFC 8200 Section 8.1).
func transportChecksum6(src, dst [16]byte, proto byte, segment []byte) uint16 {
	var pseudo [40]byte
	copy(pseudo[0:16], src[:])
	copy(pseudo[16:32], dst[:])
	binary.BigEndian.PutUint32(pseudo[32:36], uint32(len(segment)))
	pseudo[39] = proto
	s := sum16(pseudo[:], 0)
	s = sum16(segment, s)
	return onesComplement(s)
}

// sum16 accumulates 16-bit big-endian words of data into s, padding odd
// lengths with a zero byte.
func sum16(data []byte, s uint32) uint32 {
	for len(data) >= 2 {
		s += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		s += uint32(data[0]) << 8
	}
	return s
}

func onesComplement(s uint32) uint16 {
	for s>>16 != 0 {
		s = (s & 0xffff) + (s >> 16)
	}
	return ^uint16(s)
}

// Packet is the zero-allocation decode target, in the spirit of
// gopacket's DecodingLayerParser: one Packet is reused across calls and
// the slices returned alias the input buffer.
type Packet struct {
	Eth  Ethernet
	IP4  IPv4
	IP6  IPv6
	TCP  TCP
	UDP  UDP
	IsV6 bool
	// Transport is ProtoTCP or ProtoUDP.
	Transport byte
	// Payload is the transport payload.
	Payload []byte
}

// SrcAddr returns the packet's source IP as a 16-byte value (IPv4 mapped
// into the first 4 bytes with a version tag in byte 15).
func (p *Packet) SrcAddr() (a [16]byte) {
	if p.IsV6 {
		return p.IP6.Src
	}
	copy(a[:4], p.IP4.Src[:])
	a[15] = 4
	return a
}

// DstAddr returns the packet's destination IP in the same encoding as
// SrcAddr.
func (p *Packet) DstAddr() (a [16]byte) {
	if p.IsV6 {
		return p.IP6.Dst
	}
	copy(a[:4], p.IP4.Dst[:])
	a[15] = 4
	return a
}

// DecodePacket parses an Ethernet frame down to its TCP/UDP payload into
// p without allocating. Unsupported stacks return ErrUnsupported.
func DecodePacket(data []byte, p *Packet) error {
	rest, err := p.Eth.Decode(data)
	if err != nil {
		return err
	}
	switch p.Eth.EtherType {
	case EtherTypeIPv4:
		p.IsV6 = false
		rest, err = p.IP4.Decode(rest)
		if err != nil {
			return err
		}
		p.Transport = p.IP4.Protocol
	case EtherTypeIPv6:
		p.IsV6 = true
		rest, err = p.IP6.Decode(rest)
		if err != nil {
			return err
		}
		p.Transport = p.IP6.NextHeader
	default:
		return fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, p.Eth.EtherType)
	}
	switch p.Transport {
	case ProtoTCP:
		p.Payload, err = p.TCP.Decode(rest)
	case ProtoUDP:
		p.Payload, err = p.UDP.Decode(rest)
	default:
		return fmt.Errorf("%w: ip protocol %d", ErrUnsupported, p.Transport)
	}
	return err
}
