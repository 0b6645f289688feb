package sniffer

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"hostprof/internal/trace"
)

// The extraction path as it stood before it was rebuilt for speed, kept
// as the oracle the differential and fuzz tests hold the product code to:
// HKDF over crypto/hmac, a copy of every datagram, a sorted chunk list for
// every CRYPTO stream, every TCP segment buffered before it is parsed and
// every handshake copied out of its records.

func refHKDFExtract(salt, ikm []byte) []byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

func refHKDFExpand(prk, info []byte, length int) []byte {
	out := make([]byte, 0, length)
	var t []byte
	for counter := byte(1); len(out) < length; counter++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(t)
		mac.Write(info)
		mac.Write([]byte{counter})
		t = mac.Sum(nil)
		out = append(out, t...)
	}
	return out[:length]
}

func refHKDFExpandLabel(secret []byte, label string, context []byte, length int) []byte {
	full := "tls13 " + label
	info := make([]byte, 0, 4+len(full)+len(context))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(len(full)))
	info = append(info, full...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	return refHKDFExpand(secret, info, length)
}

type refInitialKeys struct {
	key, iv, hp []byte
}

func refDeriveClientInitialKeys(dcid []byte) refInitialKeys {
	initial := refHKDFExtract(quicV1InitialSalt, dcid)
	client := refHKDFExpandLabel(initial, "client in", nil, 32)
	return refInitialKeys{
		key: refHKDFExpandLabel(client, "quic key", nil, 16),
		iv:  refHKDFExpandLabel(client, "quic iv", nil, 12),
		hp:  refHKDFExpandLabel(client, "quic hp", nil, 16),
	}
}

func (k refInitialKeys) aead() (cipher.AEAD, error) {
	block, err := aes.NewCipher(k.key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func (k refInitialKeys) nonce(pn uint64) []byte {
	nonce := append([]byte(nil), k.iv...)
	var pnb [8]byte
	binary.BigEndian.PutUint64(pnb[:], pn)
	for i := 0; i < 8; i++ {
		nonce[len(nonce)-8+i] ^= pnb[i]
	}
	return nonce
}

func (k refInitialKeys) hpMask(sample []byte) ([5]byte, error) {
	var mask [5]byte
	block, err := aes.NewCipher(k.hp)
	if err != nil {
		return mask, err
	}
	var out [16]byte
	block.Encrypt(out[:], sample[:16])
	copy(mask[:], out[:5])
	return mask, nil
}

func refParseQUICInitialSNI(datagram []byte) (string, error) {
	if len(datagram) < 7 {
		return "", fmt.Errorf("%w: short datagram", ErrNotQUICInitial)
	}
	first := datagram[0]
	if first&0x80 == 0 {
		return "", fmt.Errorf("%w: short header", ErrNotQUICInitial)
	}
	if v := binary.BigEndian.Uint32(datagram[1:5]); v != quicVersion1 {
		return "", fmt.Errorf("%w: version %#08x", ErrNotQUICInitial, v)
	}
	if (first>>4)&0x03 != 0 {
		return "", fmt.Errorf("%w: long header type %d", ErrNotQUICInitial, (first>>4)&0x03)
	}
	off := 5
	if off >= len(datagram) {
		return "", fmt.Errorf("%w: dcid", ErrTruncated)
	}
	dcidLen := int(datagram[off])
	off++
	if off+dcidLen > len(datagram) {
		return "", fmt.Errorf("%w: dcid", ErrTruncated)
	}
	dcid := datagram[off : off+dcidLen]
	off += dcidLen
	if off >= len(datagram) {
		return "", fmt.Errorf("%w: scid", ErrTruncated)
	}
	scidLen := int(datagram[off])
	off++
	if off+scidLen > len(datagram) {
		return "", fmt.Errorf("%w: scid", ErrTruncated)
	}
	off += scidLen
	tokenLen, n, err := readVarint(datagram[off:])
	if err != nil {
		return "", err
	}
	off += n + int(tokenLen)
	if off > len(datagram) {
		return "", fmt.Errorf("%w: token", ErrTruncated)
	}
	length, n, err := readVarint(datagram[off:])
	if err != nil {
		return "", err
	}
	off += n
	pnOffset := off
	if pnOffset+20 > len(datagram) {
		return "", fmt.Errorf("%w: too short for header protection sample", ErrTruncated)
	}

	keys := refDeriveClientInitialKeys(dcid)
	sample := datagram[pnOffset+4 : pnOffset+20]
	mask, err := keys.hpMask(sample)
	if err != nil {
		return "", err
	}
	pkt := append([]byte(nil), datagram...)
	pkt[0] ^= mask[0] & 0x0f
	pnLen := int(pkt[0]&0x03) + 1
	var pn uint64
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
		pn = pn<<8 | uint64(pkt[pnOffset+i])
	}
	payloadStart := pnOffset + pnLen
	payloadEnd := pnOffset + int(length)
	if payloadEnd > len(pkt) || payloadStart >= payloadEnd {
		return "", fmt.Errorf("%w: length field", ErrTruncated)
	}
	aead, err := keys.aead()
	if err != nil {
		return "", err
	}
	plaintext, err := aead.Open(nil, keys.nonce(pn), pkt[payloadStart:payloadEnd], pkt[:payloadStart])
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrQUICDecrypt, err)
	}
	crypto, err := refReassembleCrypto(plaintext)
	if err != nil {
		return "", err
	}
	return parseClientHelloSNI(crypto)
}

func refReassembleCrypto(payload []byte) ([]byte, error) {
	var chunks []cryptoChunk
	for len(payload) > 0 {
		switch payload[0] {
		case frameTypePadding, frameTypePing:
			payload = payload[1:]
		case frameTypeCrypto:
			payload = payload[1:]
			off, n, err := readVarint(payload)
			if err != nil {
				return nil, err
			}
			payload = payload[n:]
			l, n, err := readVarint(payload)
			if err != nil {
				return nil, err
			}
			payload = payload[n:]
			if uint64(len(payload)) < l {
				return nil, fmt.Errorf("%w: crypto frame", ErrTruncated)
			}
			chunks = append(chunks, cryptoChunk{off: off, data: payload[:l]})
			payload = payload[l:]
		default:
			return nil, fmt.Errorf("%w: frame type %#02x", ErrNotQUICInitial, payload[0])
		}
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("%w: no CRYPTO frames", ErrNotQUICInitial)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].off < chunks[j].off })
	var out []byte
	for _, c := range chunks {
		if uint64(len(out)) != c.off {
			return nil, fmt.Errorf("%w: CRYPTO stream gap at %d", ErrTruncated, c.off)
		}
		out = append(out, c.data...)
	}
	return out, nil
}

func refParseSNI(stream []byte) (string, error) {
	hs, err := refReassembleHandshake(stream)
	if err != nil {
		return "", err
	}
	return parseClientHelloSNI(hs)
}

func refReassembleHandshake(stream []byte) ([]byte, error) {
	var hs []byte
	rest := stream
	for {
		if len(rest) < 5 {
			if hsComplete(hs) {
				return hs, nil
			}
			return nil, ErrNeedMore
		}
		if rest[0] != tlsRecordHandshake {
			if len(hs) == 0 {
				return nil, ErrNotClientHello
			}
			if hsComplete(hs) {
				return hs, nil
			}
			return nil, ErrNotClientHello
		}
		if rest[1] != 0x03 {
			return nil, fmt.Errorf("%w: record version %#02x", ErrNotClientHello, rest[1])
		}
		rl := int(binary.BigEndian.Uint16(rest[3:5]))
		if rl == 0 || rl > 1<<14+256 {
			return nil, fmt.Errorf("%w: record length %d", ErrNotClientHello, rl)
		}
		if len(rest) < 5+rl {
			hs = append(hs, rest[5:]...)
			if hsComplete(hs) {
				return hs, nil
			}
			return nil, ErrNeedMore
		}
		hs = append(hs, rest[5:5+rl]...)
		rest = rest[5+rl:]
		if hsComplete(hs) {
			return hs, nil
		}
	}
}

// newStreamAssembler returns an empty assembler with its pending map
// already made; the Observer's are zero values that make it on demand.
func newStreamAssembler() *streamAssembler {
	return &streamAssembler{pending: make(map[uint32][]byte)}
}

type refFlowState struct {
	asm      *streamAssembler
	done     bool
	lastSeen int64
}

// refObserver is the Observer with every segment buffered before it is
// parsed, counting into a plain ObserverStats.
type refObserver struct {
	cfg      ObserverConfig
	flows    map[FlowKey]*refFlowState
	pkt      Packet
	ipToHost map[[16]byte]string
	stats    ObserverStats
}

func newRefObserver(cfg ObserverConfig) *refObserver {
	return &refObserver{
		cfg:      cfg.withDefaults(),
		flows:    make(map[FlowKey]*refFlowState),
		ipToHost: make(map[[16]byte]string),
	}
}

func (o *refObserver) ProcessPacket(data []byte, ts int64) (v trace.Visit, ok bool) {
	o.stats.Packets++
	if err := DecodePacket(data, &o.pkt); err != nil {
		o.stats.Undecodable++
		return trace.Visit{}, false
	}
	p := &o.pkt
	switch p.Transport {
	case ProtoUDP:
		switch {
		case portIn(p.UDP.SrcPort, o.cfg.DNSPorts):
			host, addrs, err := ParseDNSResponse(p.Payload)
			if err != nil {
				return trace.Visit{}, false
			}
			for _, a := range addrs {
				o.ipToHost[a] = host
				o.stats.DNSMappings++
			}
			return trace.Visit{}, false
		case portIn(p.UDP.DstPort, o.cfg.DNSPorts):
			host, err := ParseDNSQueryName(p.Payload)
			if err != nil {
				return trace.Visit{}, false
			}
			o.stats.DNSVisits++
			return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
		case portIn(p.UDP.DstPort, o.cfg.QUICPorts):
			host, err := refParseQUICInitialSNI(p.Payload)
			if err != nil {
				return trace.Visit{}, false
			}
			o.stats.QUICVisits++
			return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
		}
	case ProtoTCP:
		if !portIn(p.TCP.DstPort, o.cfg.TLSPorts) {
			return trace.Visit{}, false
		}
		return o.processTCP(ts)
	}
	return trace.Visit{}, false
}

func (o *refObserver) processTCP(ts int64) (trace.Visit, bool) {
	p := &o.pkt
	key := FlowKey{
		Src: p.SrcAddr(), Dst: p.DstAddr(),
		SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort,
		Proto: ProtoTCP,
	}
	st := o.flows[key]
	if st == nil {
		st = &refFlowState{asm: newStreamAssembler(), lastSeen: ts}
		o.flows[key] = st
		o.stats.FlowsTracked++
		if len(o.flows)%1024 == 0 {
			for k, f := range o.flows {
				if ts-f.lastSeen > o.cfg.FlowTimeout {
					delete(o.flows, k)
					o.stats.FlowsEvicted++
				}
			}
		}
	}
	st.lastSeen = ts
	if st.done {
		return trace.Visit{}, false
	}
	if p.TCP.Flags&TCPFlagSYN != 0 {
		st.asm.SYN(p.TCP.Seq)
	}
	if len(p.Payload) == 0 {
		return trace.Visit{}, false
	}
	if !st.asm.Add(p.TCP.Seq, p.Payload) {
		st.done = true
		st.asm.Release()
		return trace.Visit{}, false
	}
	host, err := refParseSNI(st.asm.Bytes())
	switch {
	case err == nil:
		st.done = true
		st.asm.Release()
		o.stats.TLSVisits++
		return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
	case errors.Is(err, ErrNeedMore):
		return trace.Visit{}, false
	case errors.Is(err, ErrNoSNI):
		st.done = true
		st.asm.Release()
		if o.cfg.IPFallback {
			o.stats.IPFallbacks++
			host := IPToken(p.DstAddr())
			if h, ok := o.ipToHost[p.DstAddr()]; ok {
				o.stats.ResolvedFallbacks++
				host = h
			}
			return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
		}
		return trace.Visit{}, false
	default:
		st.done = true
		st.asm.Release()
		return trace.Visit{}, false
	}
}
