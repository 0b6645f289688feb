package sniffer

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       [6]byte{1, 2, 3, 4, 5, 6},
		Src:       [6]byte{7, 8, 9, 10, 11, 12},
		EtherType: EtherTypeIPv4,
	}
	payload := []byte("hello")
	wire := e.Append(nil, payload)
	var d Ethernet
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d != e {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload %q", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	if _, err := d.Decode(make([]byte, 13)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{93, 1, 2, 3}}
	payload := []byte("data!")
	wire := ip.Append(nil, payload)
	if !VerifyIPv4Checksum(wire) {
		t.Fatal("bad header checksum")
	}
	var d IPv4
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.Protocol != ProtoTCP || d.TTL != 64 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload %q", rest)
	}
	if d.TotalLen != 25 {
		t.Fatalf("TotalLen = %d", d.TotalLen)
	}
}

func TestIPv4RejectsWrongVersion(t *testing.T) {
	wire := make([]byte, 20)
	wire[0] = 0x65 // version 6
	var d IPv4
	if _, err := d.Decode(wire); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestIPv4TrailingPaddingTrimmed(t *testing.T) {
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: [4]byte{1, 1, 1, 1}, Dst: [4]byte{2, 2, 2, 2}}
	wire := ip.Append(nil, []byte("abc"))
	wire = append(wire, 0, 0, 0) // Ethernet padding
	var d IPv4
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "abc" {
		t.Fatalf("payload %q, want trimmed to TotalLen", rest)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	var src, dst [16]byte
	src[0], dst[0] = 0x20, 0x20
	src[15], dst[15] = 1, 2
	ip := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	wire := ip.Append(nil, []byte("six"))
	var d IPv6
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.Src != src || d.Dst != dst || d.NextHeader != ProtoUDP {
		t.Fatalf("decoded %+v", d)
	}
	if string(rest) != "six" {
		t.Fatalf("payload %q", rest)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{SrcPort: 40000, DstPort: 443, Seq: 7, Ack: 9, Flags: TCPFlagACK | TCPFlagPSH}
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{9, 9, 9, 9}
	wire := tc.Append(nil, src, dst, []byte("tls bytes"))
	var d TCP
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 40000 || d.DstPort != 443 || d.Seq != 7 || d.Ack != 9 || d.Flags != tc.Flags {
		t.Fatalf("decoded %+v", d)
	}
	if string(rest) != "tls bytes" {
		t.Fatalf("payload %q", rest)
	}
	// Verify transport checksum: recomputing over segment with the
	// checksum field in place must give 0 (complement sums to 0xffff).
	if cs := transportChecksum(src, dst, ProtoTCP, wire); cs != 0 {
		t.Fatalf("checksum verify = %#04x, want 0", cs)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5353, DstPort: 53}
	src, dst := [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 53}
	wire := u.Append(nil, src, dst, []byte("query"))
	var d UDP
	rest, err := d.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 5353 || d.DstPort != 53 || d.Length != 13 {
		t.Fatalf("decoded %+v", d)
	}
	if string(rest) != "query" {
		t.Fatalf("payload %q", rest)
	}
	if cs := transportChecksum(src, dst, ProtoUDP, wire); cs != 0 {
		t.Fatalf("checksum verify = %#04x", cs)
	}
}

func TestDecodePacketFullStack(t *testing.T) {
	payload := []byte("application data")
	pkt := tcpFrame([4]byte{10, 1, 2, 1}, [4]byte{93, 0, 0, 1}, 50000, 443, 1, 2, TCPFlagACK, payload)
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		t.Fatal(err)
	}
	if p.IsV6 || p.Transport != ProtoTCP {
		t.Fatalf("stack: v6=%v proto=%d", p.IsV6, p.Transport)
	}
	if p.TCP.SrcPort != 50000 || p.TCP.DstPort != 443 {
		t.Fatalf("ports %d→%d", p.TCP.SrcPort, p.TCP.DstPort)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload %q", p.Payload)
	}
	src := p.SrcAddr()
	if src[0] != 10 || src[1] != 1 || src[2] != 2 || src[15] != 4 {
		t.Fatalf("src addr %v", src)
	}
}

func TestDecodePacketIPv6UDP(t *testing.T) {
	var src6, dst6 [16]byte
	src6[0] = 0xfd
	dst6[0] = 0xfd
	dst6[15] = 9
	u := UDP{SrcPort: 1234, DstPort: 53}
	// IPv6 has no pseudo-header helper here; craft a zero-checksum UDP
	// header manually.
	seg := []byte{0x04, 0xd2, 0x00, 0x35, 0x00, 0x0b, 0x00, 0x00, 'h', 'i', '!'}
	_ = u
	ip := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src6, Dst: dst6}
	eth := Ethernet{EtherType: EtherTypeIPv6}
	wire := eth.Append(nil, ip.Append(nil, seg))
	var p Packet
	if err := DecodePacket(wire, &p); err != nil {
		t.Fatal(err)
	}
	if !p.IsV6 || p.Transport != ProtoUDP || p.UDP.DstPort != 53 {
		t.Fatalf("decoded %+v", p)
	}
	if string(p.Payload) != "hi!" {
		t.Fatalf("payload %q", p.Payload)
	}
	if p.SrcAddr() != src6 || p.DstAddr() != dst6 {
		t.Fatal("v6 addresses wrong")
	}
}

func TestDecodePacketUnsupported(t *testing.T) {
	eth := Ethernet{EtherType: 0x0806} // ARP
	wire := eth.Append(nil, make([]byte, 28))
	var p Packet
	if err := DecodePacket(wire, &p); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	// Unknown IP protocol.
	ip := IPv4{TTL: 1, Protocol: 47, Src: [4]byte{1, 0, 0, 1}, Dst: [4]byte{1, 0, 0, 2}}
	wire2 := frame(ip.Append(nil, []byte{1, 2, 3, 4}))
	if err := DecodePacket(wire2, &p); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 style example: header from Wikipedia's IPv4 checksum
	// article; checksum field (bytes 10-11) zeroed gives 0xb861.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if cs := headerChecksum(hdr); cs != 0xb861 {
		t.Fatalf("checksum = %#04x, want 0xb861", cs)
	}
}

// Property: decode(encode(x)) == x for TCP across arbitrary ports, seqs
// and payloads.
func TestTCPRoundTripQuick(t *testing.T) {
	f := func(sport, dport uint16, seq, ack uint32, payload []byte) bool {
		tc := TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: TCPFlagACK}
		wire := tc.Append(nil, [4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, payload)
		var d TCP
		rest, err := d.Decode(wire)
		if err != nil {
			return false
		}
		return d.SrcPort == sport && d.DstPort == dport && d.Seq == seq &&
			d.Ack == ack && bytes.Equal(rest, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// VerifyIPv4Checksum recomputes an IPv4 header checksum and reports
// whether it matches.
func VerifyIPv4Checksum(hdr []byte) bool {
	if len(hdr) < 20 {
		return false
	}
	return onesComplement(sum16(hdr[:20], 0)) == 0
}
