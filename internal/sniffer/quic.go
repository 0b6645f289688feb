package sniffer

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hostprof/internal/stats"
)

// QUIC v1 constants (RFC 9000 / RFC 9001).
var quicV1InitialSalt = []byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3,
	0x4d, 0x17, 0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad,
	0xcc, 0xbb, 0x7f, 0x0a,
}

const (
	quicVersion1      = 0x00000001
	quicMinInitialUDP = 1200
	frameTypePadding  = 0x00
	frameTypePing     = 0x01
	frameTypeCrypto   = 0x06
)

// QUIC errors.
var (
	// ErrNotQUICInitial marks a datagram that is not a QUIC v1 client
	// Initial packet.
	ErrNotQUICInitial = errors.New("sniffer: not a QUIC v1 Initial packet")
	// ErrQUICDecrypt marks an Initial whose payload failed AEAD
	// verification.
	ErrQUICDecrypt = errors.New("sniffer: QUIC Initial decryption failed")
)

// appendVarint encodes v as a QUIC variable-length integer (RFC 9000 §16).
func appendVarint(buf []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(buf, byte(v))
	case v < 1<<14:
		return append(buf, byte(v>>8)|0x40, byte(v))
	case v < 1<<30:
		return append(buf, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	default:
		return append(buf,
			byte(v>>56)|0xc0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// readVarint decodes a QUIC varint, returning the value and bytes used.
func readVarint(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	n := 1 << (b[0] >> 6)
	if len(b) < n {
		return 0, 0, ErrTruncated
	}
	v := uint64(b[0] & 0x3f)
	for i := 1; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, n, nil
}

// Header rejections an observer meets on almost every UDP/443 datagram
// (1-RTT packets have short headers), preallocated so turning one away
// costs no more than reading its first bytes.
var (
	errQUICShortDatagram = fmt.Errorf("%w: short datagram", ErrNotQUICInitial)
	errQUICShortHeader   = fmt.Errorf("%w: short header", ErrNotQUICInitial)
	errQUICVersion       = fmt.Errorf("%w: version is not 1", ErrNotQUICInitial)
	errQUICLongType      = fmt.Errorf("%w: long header type is not Initial", ErrNotQUICInitial)
	errQUICAuth          = fmt.Errorf("%w: message authentication failed", ErrQUICDecrypt)
)

// Inputs to the client Initial key schedule (RFC 9001 Section 5.2) that
// no packet changes: the salt already keyed into HKDF-Extract's MAC, and
// each HKDF-Expand-Label's info.
var (
	quicV1SaltHMAC = newKeyedHMAC(quicV1InitialSalt)
	infoClientIn   = expandLabelInfo("client in", sha256.Size)
	infoQUICKey    = expandLabelInfo("quic key", 16)
	infoQUICIV     = expandLabelInfo("quic iv", 12)
	infoQUICHP     = expandLabelInfo("quic hp", 16)
)

// initialOpener derives client Initial keys and opens (or, for the
// synthesizer, seals) Initial packets. It owns every buffer a packet
// needs, so a caller that keeps one — the Observer does — pays for the
// arithmetic and the two AES key schedules and little else. One goroutine
// at a time; captured bytes are only ever read.
type initialOpener struct {
	mac    hmacSHA256
	secret [sha256.Size]byte
	key    [16]byte
	hp     [16]byte
	iv     [12]byte
	nonce  [12]byte
	mask   [aes.BlockSize]byte
	// hdr is the header with its protection removed (the AEAD's
	// additional data), plain the decrypted frames, chunks and crypto
	// the CRYPTO stream when more than one frame carries it.
	hdr    []byte
	plain  []byte
	chunks []cryptoChunk
	crypto []byte
}

func newInitialOpener() *initialOpener {
	return &initialOpener{mac: newHMACSHA256()}
}

// openerPool serves the callers that have no opener of their own.
var openerPool = sync.Pool{New: func() any { return newInitialOpener() }}

// deriveKeys sets key, iv and hp to the client Initial protection
// material for the Destination Connection ID (RFC 9001 Section 5.2).
func (o *initialOpener) deriveKeys(dcid []byte) {
	m := &o.mac
	m.restore(quicV1SaltHMAC)
	copy(o.secret[:], m.finish(dcid)) // initial_secret
	m.setKey(o.secret[:])
	copy(o.secret[:], m.finish(infoClientIn)) // client_initial_secret
	m.setKey(o.secret[:])
	copy(o.key[:], m.finish(infoQUICKey))
	m.setKey(o.secret[:])
	copy(o.iv[:], m.finish(infoQUICIV))
	m.setKey(o.secret[:])
	copy(o.hp[:], m.finish(infoQUICHP))
}

// aead returns AES-128-GCM under the derived key and sets the nonce for
// packet number pn (iv XOR pn).
func (o *initialOpener) aead(pn uint64) (cipher.AEAD, error) {
	block, err := aes.NewCipher(o.key[:])
	if err != nil {
		return nil, err
	}
	o.nonce = o.iv
	for i := 0; i < 8; i++ {
		o.nonce[len(o.nonce)-1-i] ^= byte(pn >> (8 * i))
	}
	return cipher.NewGCM(block)
}

// setMask computes the header-protection mask from a 16-byte ciphertext
// sample (RFC 9001 Section 5.4.3, AES-based); its first five bytes apply.
func (o *initialOpener) setMask(sample []byte) error {
	block, err := aes.NewCipher(o.hp[:])
	if err != nil {
		return err
	}
	block.Encrypt(o.mask[:], sample[:aes.BlockSize])
	return nil
}

// BuildQUICInitial renders a protected QUIC v1 client Initial datagram
// whose CRYPTO frames carry the TLS ClientHello for sni. The datagram is
// padded to the 1200-byte minimum. rng supplies connection IDs and the
// client random.
func BuildQUICInitial(sni string, rng *stats.RNG) ([]byte, error) {
	// Connection IDs.
	dcid := make([]byte, 8)
	scid := make([]byte, 8)
	binary.BigEndian.PutUint64(dcid, rng.Uint64())
	binary.BigEndian.PutUint64(scid, rng.Uint64())

	// ClientHello as a raw handshake message (QUIC carries no TLS
	// record layer): strip the 5-byte record header.
	rec := BuildClientHello(sni, rng)
	hello := rec[5:]

	// CRYPTO frame.
	payload := make([]byte, 0, quicMinInitialUDP)
	payload = append(payload, frameTypeCrypto)
	payload = appendVarint(payload, 0)
	payload = appendVarint(payload, uint64(len(hello)))
	payload = append(payload, hello...)

	const pnLen = 2
	pn := uint64(rng.Intn(1 << 15))

	// Compute header size to pad the plaintext so the final datagram
	// reaches the UDP minimum.
	headerLen := func(plainLen int) int {
		h := 1 + 4 + 1 + len(dcid) + 1 + len(scid) + 1 // first, version, cids, token len
		lenField := len(appendVarint(nil, uint64(pnLen+plainLen+16)))
		return h + lenField + pnLen
	}
	for headerLen(len(payload))+len(payload)+16 < quicMinInitialUDP {
		payload = append(payload, frameTypePadding)
	}

	// Unprotected header.
	hdr := make([]byte, 0, 64)
	first := byte(0xc0 | (pnLen - 1)) // long header, Initial, pn length bits
	hdr = append(hdr, first)
	hdr = binary.BigEndian.AppendUint32(hdr, quicVersion1)
	hdr = append(hdr, byte(len(dcid)))
	hdr = append(hdr, dcid...)
	hdr = append(hdr, byte(len(scid)))
	hdr = append(hdr, scid...)
	hdr = appendVarint(hdr, 0) // token length
	hdr = appendVarint(hdr, uint64(pnLen+len(payload)+16))
	pnOffset := len(hdr)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(pn))

	o := openerPool.Get().(*initialOpener)
	defer openerPool.Put(o)
	o.deriveKeys(dcid)
	aead, err := o.aead(pn)
	if err != nil {
		return nil, fmt.Errorf("sniffer: sealing Initial: %w", err)
	}
	pkt := append(hdr, aead.Seal(nil, o.nonce[:], payload, hdr)...)

	// Header protection.
	if err := o.setMask(pkt[pnOffset+4 : pnOffset+20]); err != nil {
		return nil, err
	}
	pkt[0] ^= o.mask[0] & 0x0f
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= o.mask[1+i]
	}
	return pkt, nil
}

// ParseQUICInitialSNI recovers the SNI from a protected QUIC v1 client
// Initial datagram: it derives the Initial keys from the DCID, removes
// header protection, decrypts the payload, reassembles the CRYPTO stream
// and parses the ClientHello — exactly what an on-path observer does.
// The datagram is not modified.
func ParseQUICInitialSNI(datagram []byte) (string, error) {
	o := openerPool.Get().(*initialOpener)
	host, err := o.sni(datagram)
	openerPool.Put(o)
	return host, err
}

// initialHeader is what a protected Initial shows before its keys are
// known: the connection ID they derive from, where the packet number
// starts, and the Length field covering it and the sealed payload.
type initialHeader struct {
	dcid     []byte
	pnOffset int
	length   uint64
}

func parseInitialHeader(datagram []byte) (initialHeader, error) {
	var h initialHeader
	if len(datagram) < 7 {
		return h, errQUICShortDatagram
	}
	first := datagram[0]
	if first&0x80 == 0 {
		return h, errQUICShortHeader
	}
	if binary.BigEndian.Uint32(datagram[1:5]) != quicVersion1 {
		return h, errQUICVersion
	}
	if (first>>4)&0x03 != 0 { // long packet type must be Initial (00)
		return h, errQUICLongType
	}
	off := 5
	dcidLen := int(datagram[off])
	off++
	if off+dcidLen > len(datagram) {
		return h, fmt.Errorf("%w: dcid", ErrTruncated)
	}
	h.dcid = datagram[off : off+dcidLen]
	off += dcidLen
	if off >= len(datagram) {
		return h, fmt.Errorf("%w: scid", ErrTruncated)
	}
	scidLen := int(datagram[off])
	off++
	if off+scidLen > len(datagram) {
		return h, fmt.Errorf("%w: scid", ErrTruncated)
	}
	off += scidLen
	tokenLen, n, err := readVarint(datagram[off:])
	if err != nil {
		return h, err
	}
	if tokenLen > uint64(len(datagram)-off-n) {
		return h, fmt.Errorf("%w: token", ErrTruncated)
	}
	off += n + int(tokenLen)
	h.length, n, err = readVarint(datagram[off:])
	if err != nil {
		return h, err
	}
	h.pnOffset = off + n
	if h.pnOffset+20 > len(datagram) {
		return h, fmt.Errorf("%w: too short for header protection sample", ErrTruncated)
	}
	return h, nil
}

// sni is ParseQUICInitialSNI on o's buffers.
func (o *initialOpener) sni(datagram []byte) (string, error) {
	h, err := parseInitialHeader(datagram)
	if err != nil {
		return "", err
	}
	o.deriveKeys(h.dcid)
	if err := o.setMask(datagram[h.pnOffset+4 : h.pnOffset+20]); err != nil {
		return "", err
	}
	first := datagram[0] ^ o.mask[0]&0x0f
	pnLen := int(first&0x03) + 1
	if h.length <= uint64(pnLen) || h.length > uint64(len(datagram)-h.pnOffset) {
		return "", fmt.Errorf("%w: length field", ErrTruncated)
	}
	payloadStart := h.pnOffset + pnLen
	payloadEnd := h.pnOffset + int(h.length)
	// The observer must not write to captured bytes, and only the header
	// has any to change: unmask a copy of it, decrypt straight from the
	// datagram.
	o.hdr = append(o.hdr[:0], datagram[:payloadStart]...)
	o.hdr[0] = first
	var pn uint64
	for i := h.pnOffset; i < payloadStart; i++ {
		o.hdr[i] ^= o.mask[1+i-h.pnOffset]
		pn = pn<<8 | uint64(o.hdr[i])
	}
	aead, err := o.aead(pn)
	if err != nil {
		return "", err
	}
	plain, err := aead.Open(o.plain[:0], o.nonce[:], datagram[payloadStart:payloadEnd], o.hdr)
	if err != nil {
		return "", errQUICAuth
	}
	o.plain = plain
	crypto, err := o.reassembleCrypto(plain)
	if err != nil {
		return "", err
	}
	return parseClientHelloSNI(crypto)
}

// cryptoChunk is one CRYPTO frame's data at its stream offset.
type cryptoChunk struct {
	off  uint64
	data []byte
}

// skipPadding returns payload past its leading PADDING frames. An Initial
// is padded to 1200 bytes around a ClientHello a quarter that size, so
// the run is taken a word at a time.
func skipPadding(payload []byte) []byte {
	for len(payload) >= 8 && binary.LittleEndian.Uint64(payload) == 0 {
		payload = payload[8:]
	}
	for len(payload) > 0 && payload[0] == frameTypePadding {
		payload = payload[1:]
	}
	return payload
}

// reassembleCrypto walks the frames of a decrypted Initial payload and
// returns the CRYPTO stream: the frame's own bytes when one frame carries
// it, a concatenation in o otherwise. Either way the result is only good
// until o opens its next packet.
func (o *initialOpener) reassembleCrypto(payload []byte) ([]byte, error) {
	chunks := o.chunks[:0]
	for len(payload) > 0 {
		switch payload[0] {
		case frameTypePadding:
			payload = skipPadding(payload)
		case frameTypePing:
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
			// Unknown frame type in an Initial we synthesized —
			// treat as corrupt rather than guessing lengths.
			return nil, fmt.Errorf("%w: frame type %#02x", ErrNotQUICInitial, payload[0])
		}
	}
	o.chunks = chunks
	if len(chunks) == 0 {
		return nil, fmt.Errorf("%w: no CRYPTO frames", ErrNotQUICInitial)
	}
	if len(chunks) == 1 {
		if chunks[0].off != 0 {
			return nil, fmt.Errorf("%w: CRYPTO stream gap at %d", ErrTruncated, chunks[0].off)
		}
		return chunks[0].data, nil
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].off < chunks[j].off })
	out := o.crypto[:0]
	for _, c := range chunks {
		if uint64(len(out)) != c.off {
			return nil, fmt.Errorf("%w: CRYPTO stream gap at %d", ErrTruncated, c.off)
		}
		out = append(out, c.data...)
	}
	o.crypto = out
	return out, nil
}
