package sniffer

import (
	"fmt"

	"hostprof/internal/stats"
	"hostprof/internal/trace"
)

// Channel selects how a synthesized visit reaches the wire.
type Channel int

// Channels.
const (
	// ChannelTLS renders a TCP handshake plus a ClientHello over port
	// 443, occasionally split across two segments.
	ChannelTLS Channel = iota
	// ChannelQUIC renders a protected QUIC v1 Initial datagram.
	ChannelQUIC
	// ChannelDNS renders a UDP DNS A query.
	ChannelDNS
	// ChannelMixed draws one of the above per visit (70% TLS, 20%
	// QUIC, 10% DNS-only), approximating real client mixes.
	ChannelMixed
	// ChannelECH renders TLS with an encrypted ClientHello and no SNI:
	// the observer can only fall back to destination IPs (paper §7.2).
	ChannelECH
)

// WireConfig controls packet synthesis.
type WireConfig struct {
	// Channel selects the leak channel. Default ChannelTLS.
	Channel Channel
	// SplitProb is the probability a ClientHello is split across two
	// TCP segments, exercising stream reassembly. Default 0.2.
	SplitProb float64
	// ReorderProb delivers a split ClientHello's segments out of order
	// with this probability, exercising sequence-based reassembly.
	ReorderProb float64
	// NATSize groups consecutive users behind one shared client
	// address, modelling households behind a domestic router: with
	// NATSize = 4, users 0-3 share user 0's address, and the observer
	// cannot tell them apart (paper §7.2, "Multiple Users").
	// 0 or 1 disables NAT.
	NATSize int
	// ECHProb upgrades each TLS hello to encrypted ClientHello (no
	// readable SNI) with this probability, modelling partial ECH
	// deployment (paper §7.2: the destination IP still leaks).
	ECHProb float64
	// IPv6Prob carries each visit over IPv6 instead of IPv4 with this
	// probability. The observer decodes both families.
	IPv6Prob float64
	// DNSLookupProb emits a resolver round trip (A query plus response)
	// ahead of the visit with this probability, as real clients do
	// before new connections. The response is what teaches an on-path
	// observer the address→hostname mapping it needs once SNI is
	// encrypted (paper §7.2 on DNS providers).
	DNSLookupProb float64
	// CoHostIPs, when positive, collapses all server addresses onto
	// this many shared front IPs (CDN co-hosting / domain fronting):
	// destination addresses stop identifying sites, defeating
	// IP-fallback profiling. CoHostIPs = 1 models a Tor-style tunnel
	// where every flow targets one relay (paper §7.4).
	CoHostIPs int
	// Seed drives randomness (connection IDs, randoms, ports).
	Seed uint64
}

func (c WireConfig) withDefaults() WireConfig {
	if c.SplitProb == 0 {
		c.SplitProb = 0.2
	}
	return c
}

// Capture is a synthesized packet capture: frames plus capture times.
type Capture struct {
	Packets [][]byte
	Times   []int64
}

// Append adds a frame at time ts.
func (c *Capture) Append(frame []byte, ts int64) {
	c.Packets = append(c.Packets, frame)
	c.Times = append(c.Times, ts)
}

// Len returns the number of captured frames.
func (c *Capture) Len() int { return len(c.Packets) }

// userAddr derives the deterministic client IPv4 address for a user:
// 10.(u>>8).(u&0xff).1 — the layout ObserverConfig's default UserOf
// reverses.
func userAddr(user int) [4]byte {
	return [4]byte{10, byte(user >> 8), byte(user), 1}
}

// serverAddr derives a stable pseudo-server IPv4 address for a hostname.
func serverAddr(host string) [4]byte {
	var h uint32 = 2166136261
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= 16777619
	}
	return [4]byte{93, byte(h >> 16), byte(h >> 8), byte(h)}
}

// Synthesizer renders trace visits to Ethernet frames.
type Synthesizer struct {
	cfg WireConfig
	rng *stats.RNG
	// ephemeral port counter per user keeps flows distinct.
	nextPort map[int]uint16
}

// NewSynthesizer returns a synthesizer for cfg.
func NewSynthesizer(cfg WireConfig) *Synthesizer {
	return &Synthesizer{
		cfg:      cfg.withDefaults(),
		rng:      stats.NewRNG(cfg.Seed ^ 0x5151e7),
		nextPort: make(map[int]uint16),
	}
}

// SynthesizeTrace renders every visit of tr onto the wire.
func (s *Synthesizer) SynthesizeTrace(tr *trace.Trace) (*Capture, error) {
	cap := &Capture{}
	for _, v := range tr.Visits() {
		if err := s.AppendVisit(cap, v); err != nil {
			return nil, err
		}
	}
	return cap, nil
}

// AppendVisit renders one visit onto the capture.
func (s *Synthesizer) AppendVisit(cap *Capture, v trace.Visit) error {
	ch := s.cfg.Channel
	if ch == ChannelMixed {
		switch r := s.rng.Float64(); {
		case r < 0.7:
			ch = ChannelTLS
		case r < 0.9:
			ch = ChannelQUIC
		default:
			ch = ChannelDNS
		}
	}
	v6 := s.cfg.IPv6Prob > 0 && s.rng.Float64() < s.cfg.IPv6Prob
	if ch != ChannelDNS && s.cfg.DNSLookupProb > 0 && s.rng.Float64() < s.cfg.DNSLookupProb {
		if err := s.appendDNSLookup(cap, v); err != nil {
			return err
		}
	}
	switch ch {
	case ChannelTLS:
		if v6 {
			return s.appendTLS6(cap, v, false)
		}
		return s.appendTLS(cap, v, false)
	case ChannelECH:
		if v6 {
			return s.appendTLS6(cap, v, true)
		}
		return s.appendTLS(cap, v, true)
	case ChannelQUIC:
		return s.appendQUIC(cap, v, v6)
	case ChannelDNS:
		return s.appendDNS(cap, v, v6)
	default:
		return fmt.Errorf("sniffer: unknown channel %d", ch)
	}
}

// wireUser maps a trace user to the client identity on the wire,
// collapsing NAT households onto their first member.
func (s *Synthesizer) wireUser(user int) int {
	if s.cfg.NATSize > 1 {
		return user - user%s.cfg.NATSize
	}
	return user
}

// FrontAddr returns the address host resolves to when servers sit behind
// coHostIPs shared front addresses (0 = every host has its own address).
// Both the synthesizer and experiments modelling observer-side resolution
// use this single mapping.
func FrontAddr(host string, coHostIPs int) [4]byte {
	if coHostIPs > 0 {
		base := serverAddr(host)
		slot := int(base[1])<<16 | int(base[2])<<8 | int(base[3])
		slot %= coHostIPs
		return [4]byte{198, 18, byte(slot >> 8), byte(slot)}
	}
	return serverAddr(host)
}

// dstFor returns the server address a visit's flow targets, honouring
// CDN co-hosting.
func (s *Synthesizer) dstFor(host string) [4]byte {
	return FrontAddr(host, s.cfg.CoHostIPs)
}

// dstFor6 is the IPv6 variant of dstFor.
func (s *Synthesizer) dstFor6(host string) [16]byte {
	if s.cfg.CoHostIPs > 0 {
		v4 := s.dstFor(host)
		var a [16]byte
		a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
		copy(a[12:16], v4[:])
		return a
	}
	return serverAddr6(host)
}

// ephemeralPort hands out client ports 32768..60999 per user.
func (s *Synthesizer) ephemeralPort(user int) uint16 {
	p := s.nextPort[user]
	if p < 32768 || p >= 61000 {
		p = 32768
	}
	s.nextPort[user] = p + 1
	return p
}

// frame wraps an IPv4 packet in Ethernet.
func frame(ipPayload []byte) []byte {
	eth := Ethernet{
		Dst:       [6]byte{0x02, 0, 0, 0, 0, 0x01},
		Src:       [6]byte{0x02, 0, 0, 0, 0, 0x02},
		EtherType: EtherTypeIPv4,
	}
	return eth.Append(nil, ipPayload)
}

// frame6 wraps an IPv6 packet in Ethernet.
func frame6(ipPayload []byte) []byte {
	eth := Ethernet{
		Dst:       [6]byte{0x02, 0, 0, 0, 0, 0x01},
		Src:       [6]byte{0x02, 0, 0, 0, 0, 0x02},
		EtherType: EtherTypeIPv6,
	}
	return eth.Append(nil, ipPayload)
}

// userAddr6 derives the deterministic client IPv6 address for a user,
// placing the user ID in bytes 1-2 so the observer's default UserOf
// recovers it for either family.
func userAddr6(user int) [16]byte {
	var a [16]byte
	a[0] = 0xfd
	a[1], a[2] = byte(user>>8), byte(user)
	a[15] = 1
	return a
}

// serverAddr6 derives a stable pseudo-server IPv6 address for a hostname
// under the 2001:db8::/32 documentation prefix.
func serverAddr6(host string) [16]byte {
	v4 := serverAddr(host)
	var a [16]byte
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
	copy(a[12:16], v4[:])
	return a
}

// tcpFrame6 builds Ethernet+IPv6+TCP with payload.
func tcpFrame6(src, dst [16]byte, sport, dport uint16, seq, ack uint32, flags byte, payload []byte) []byte {
	t := TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags}
	seg := t.Append6(nil, src, dst, payload)
	ip := IPv6{NextHeader: ProtoTCP, HopLimit: 64, Src: src, Dst: dst}
	return frame6(ip.Append(nil, seg))
}

// udpFrame6 builds Ethernet+IPv6+UDP with payload.
func udpFrame6(src, dst [16]byte, sport, dport uint16, payload []byte) []byte {
	u := UDP{SrcPort: sport, DstPort: dport}
	seg := u.Append6(nil, src, dst, payload)
	ip := IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	return frame6(ip.Append(nil, seg))
}

// tcpFrame builds Ethernet+IPv4+TCP with payload.
func tcpFrame(src, dst [4]byte, sport, dport uint16, seq, ack uint32, flags byte, payload []byte) []byte {
	t := TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags}
	seg := t.Append(nil, src, dst, payload)
	ip := IPv4{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
	return frame(ip.Append(nil, seg))
}

// udpFrame builds Ethernet+IPv4+UDP with payload.
func udpFrame(src, dst [4]byte, sport, dport uint16, payload []byte) []byte {
	u := UDP{SrcPort: sport, DstPort: dport}
	seg := u.Append(nil, src, dst, payload)
	ip := IPv4{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst}
	return frame(ip.Append(nil, seg))
}

// appendTLS emits SYN / SYN-ACK / ACK / ClientHello (possibly split).
// With ech set, the hello carries no SNI.
func (s *Synthesizer) appendTLS(cap *Capture, v trace.Visit, ech bool) error {
	src := userAddr(s.wireUser(v.User))
	dst := s.dstFor(v.Host)
	sport := s.ephemeralPort(v.User)
	isn := uint32(s.rng.Uint64())
	sisn := uint32(s.rng.Uint64())

	cap.Append(tcpFrame(src, dst, sport, 443, isn, 0, TCPFlagSYN, nil), v.Time)
	cap.Append(tcpFrame(dst, src, 443, sport, sisn, isn+1, TCPFlagSYN|TCPFlagACK, nil), v.Time)
	cap.Append(tcpFrame(src, dst, sport, 443, isn+1, sisn+1, TCPFlagACK, nil), v.Time)

	if !ech && s.cfg.ECHProb > 0 && s.rng.Float64() < s.cfg.ECHProb {
		ech = true
	}
	var hello []byte
	if ech {
		hello = BuildClientHelloECH(s.rng)
	} else {
		hello = BuildClientHello(v.Host, s.rng)
	}
	if s.rng.Float64() < s.cfg.SplitProb && len(hello) > 16 {
		cut := 8 + s.rng.Intn(len(hello)-16)
		first := tcpFrame(src, dst, sport, 443, isn+1, sisn+1, TCPFlagACK|TCPFlagPSH, hello[:cut])
		second := tcpFrame(src, dst, sport, 443, isn+1+uint32(cut), sisn+1, TCPFlagACK|TCPFlagPSH, hello[cut:])
		if s.cfg.ReorderProb > 0 && s.rng.Float64() < s.cfg.ReorderProb {
			first, second = second, first
		}
		cap.Append(first, v.Time)
		cap.Append(second, v.Time)
	} else {
		cap.Append(tcpFrame(src, dst, sport, 443, isn+1, sisn+1, TCPFlagACK|TCPFlagPSH, hello), v.Time)
	}
	return nil
}

// appendTLS6 is the IPv6 variant of appendTLS.
func (s *Synthesizer) appendTLS6(cap *Capture, v trace.Visit, ech bool) error {
	src := userAddr6(s.wireUser(v.User))
	dst := s.dstFor6(v.Host)
	sport := s.ephemeralPort(v.User)
	isn := uint32(s.rng.Uint64())
	sisn := uint32(s.rng.Uint64())

	cap.Append(tcpFrame6(src, dst, sport, 443, isn, 0, TCPFlagSYN, nil), v.Time)
	cap.Append(tcpFrame6(dst, src, 443, sport, sisn, isn+1, TCPFlagSYN|TCPFlagACK, nil), v.Time)
	cap.Append(tcpFrame6(src, dst, sport, 443, isn+1, sisn+1, TCPFlagACK, nil), v.Time)

	if !ech && s.cfg.ECHProb > 0 && s.rng.Float64() < s.cfg.ECHProb {
		ech = true
	}
	var hello []byte
	if ech {
		hello = BuildClientHelloECH(s.rng)
	} else {
		hello = BuildClientHello(v.Host, s.rng)
	}
	cap.Append(tcpFrame6(src, dst, sport, 443, isn+1, sisn+1, TCPFlagACK|TCPFlagPSH, hello), v.Time)
	return nil
}

// appendQUIC emits a single protected Initial datagram.
func (s *Synthesizer) appendQUIC(cap *Capture, v trace.Visit, v6 bool) error {
	initial, err := BuildQUICInitial(v.Host, s.rng)
	if err != nil {
		return err
	}
	sport := s.ephemeralPort(v.User)
	if v6 {
		cap.Append(udpFrame6(userAddr6(s.wireUser(v.User)), s.dstFor6(v.Host), sport, 443, initial), v.Time)
		return nil
	}
	cap.Append(udpFrame(userAddr(s.wireUser(v.User)), s.dstFor(v.Host), sport, 443, initial), v.Time)
	return nil
}

// appendDNSLookup emits the resolver round trip preceding a connection:
// the client's A query and the resolver's answer carrying the server
// address the subsequent flow will target.
func (s *Synthesizer) appendDNSLookup(cap *Capture, v trace.Visit) error {
	txid := uint16(s.rng.Uint64())
	q, err := BuildDNSQuery(v.Host, txid)
	if err != nil {
		return err
	}
	resp, err := BuildDNSResponse(v.Host, txid, s.dstFor(v.Host))
	if err != nil {
		return err
	}
	src := userAddr(s.wireUser(v.User))
	resolver := [4]byte{10, 0, 0, 53}
	sport := s.ephemeralPort(v.User)
	cap.Append(udpFrame(src, resolver, sport, 53, q), v.Time)
	cap.Append(udpFrame(resolver, src, 53, sport, resp), v.Time)
	return nil
}

// appendDNS emits an A query.
func (s *Synthesizer) appendDNS(cap *Capture, v trace.Visit, v6 bool) error {
	q, err := BuildDNSQuery(v.Host, uint16(s.rng.Uint64()))
	if err != nil {
		return err
	}
	sport := s.ephemeralPort(v.User)
	if v6 {
		var resolver [16]byte
		resolver[0], resolver[15] = 0xfd, 53
		cap.Append(udpFrame6(userAddr6(s.wireUser(v.User)), resolver, sport, 53, q), v.Time)
		return nil
	}
	resolver := [4]byte{10, 0, 0, 53}
	cap.Append(udpFrame(userAddr(s.wireUser(v.User)), resolver, sport, 53, q), v.Time)
	return nil
}
