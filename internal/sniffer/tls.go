package sniffer

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hostprof/internal/stats"
)

// TLS constants relevant to ClientHello/SNI handling.
const (
	tlsRecordHandshake    = 0x16
	tlsHandshakeClientHi  = 0x01
	tlsExtServerName      = 0x0000
	tlsExtSupportedGroups = 0x000a
	tlsExtALPN            = 0x0010
	tlsExtSupportedVers   = 0x002b
	tlsSNIHostName        = 0x00
)

// TLS parse errors.
var (
	// ErrNeedMore signals that the byte stream does not yet contain a
	// complete ClientHello; callers buffer more segments and retry.
	ErrNeedMore = errors.New("sniffer: need more data")
	// ErrNotClientHello marks a stream that cannot begin with a TLS
	// ClientHello, so buffering more data is pointless.
	ErrNotClientHello = errors.New("sniffer: not a TLS ClientHello")
	// ErrNoSNI marks a well-formed ClientHello without a server_name
	// extension (the observer falls back to IP addresses, paper §7.2).
	ErrNoSNI = errors.New("sniffer: ClientHello carries no SNI")
)

// BuildClientHelloECH renders a ClientHello with an encrypted_client_hello
// extension and *no* server_name — what a TLS-1.3+ECH client sends. The
// inner (encrypted) hello is opaque random bytes: an observer cannot read
// the hostname from it, which is exactly the failure mode paper Section
// 7.2 discusses (the destination IP still leaks).
func BuildClientHelloECH(rng *stats.RNG) []byte {
	return buildClientHello("", true, rng)
}

// BuildClientHello renders a TLS 1.2/1.3-style ClientHello record carrying
// the server_name extension for sni, with plausible cipher suites and
// companion extensions. rng randomizes the client random and session ID.
func BuildClientHello(sni string, rng *stats.RNG) []byte {
	return buildClientHello(sni, false, rng)
}

// tlsExtECH is the encrypted_client_hello extension codepoint (draft-ietf-
// tls-esni).
const tlsExtECH = 0xfe0d

func buildClientHello(sni string, ech bool, rng *stats.RNG) []byte {
	body := make([]byte, 0, 256+len(sni))

	// legacy_version TLS 1.2.
	body = append(body, 0x03, 0x03)
	// random (32 bytes).
	for i := 0; i < 4; i++ {
		body = binary.BigEndian.AppendUint64(body, rng.Uint64())
	}
	// legacy_session_id (32 bytes).
	body = append(body, 32)
	for i := 0; i < 4; i++ {
		body = binary.BigEndian.AppendUint64(body, rng.Uint64())
	}
	// cipher_suites.
	suites := []uint16{0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0x009e}
	body = binary.BigEndian.AppendUint16(body, uint16(2*len(suites)))
	for _, s := range suites {
		body = binary.BigEndian.AppendUint16(body, s)
	}
	// legacy_compression_methods: null only.
	body = append(body, 1, 0)

	// Extensions.
	ext := make([]byte, 0, 128+len(sni))
	if ech {
		// encrypted_client_hello: opaque payload standing in for the
		// HPKE-sealed inner hello.
		payload := make([]byte, 64)
		for i := 0; i+8 <= len(payload); i += 8 {
			binary.BigEndian.PutUint64(payload[i:], rng.Uint64())
		}
		ext = binary.BigEndian.AppendUint16(ext, tlsExtECH)
		ext = binary.BigEndian.AppendUint16(ext, uint16(len(payload)))
		ext = append(ext, payload...)
	} else {
		ext = appendSNIExtension(ext, sni)
	}
	// supported_groups: x25519, secp256r1.
	ext = binary.BigEndian.AppendUint16(ext, tlsExtSupportedGroups)
	ext = binary.BigEndian.AppendUint16(ext, 6)
	ext = binary.BigEndian.AppendUint16(ext, 4)
	ext = binary.BigEndian.AppendUint16(ext, 0x001d)
	ext = binary.BigEndian.AppendUint16(ext, 0x0017)
	// ALPN: h2, http/1.1.
	alpn := []byte{0x02, 'h', '2', 0x08, 'h', 't', 't', 'p', '/', '1', '.', '1'}
	ext = binary.BigEndian.AppendUint16(ext, tlsExtALPN)
	ext = binary.BigEndian.AppendUint16(ext, uint16(2+len(alpn)))
	ext = binary.BigEndian.AppendUint16(ext, uint16(len(alpn)))
	ext = append(ext, alpn...)
	// supported_versions: 1.3, 1.2.
	ext = binary.BigEndian.AppendUint16(ext, tlsExtSupportedVers)
	ext = binary.BigEndian.AppendUint16(ext, 5)
	ext = append(ext, 4, 0x03, 0x04, 0x03, 0x03)

	body = binary.BigEndian.AppendUint16(body, uint16(len(ext)))
	body = append(body, ext...)

	// Handshake header.
	hs := make([]byte, 0, 4+len(body))
	hs = append(hs, tlsHandshakeClientHi, byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	hs = append(hs, body...)

	// Record header.
	rec := make([]byte, 0, 5+len(hs))
	rec = append(rec, tlsRecordHandshake, 0x03, 0x01)
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(hs)))
	return append(rec, hs...)
}

// appendSNIExtension appends a server_name extension for host.
func appendSNIExtension(ext []byte, host string) []byte {
	ext = binary.BigEndian.AppendUint16(ext, tlsExtServerName)
	ext = binary.BigEndian.AppendUint16(ext, uint16(5+len(host)))
	ext = binary.BigEndian.AppendUint16(ext, uint16(3+len(host))) // server_name_list
	ext = append(ext, tlsSNIHostName)
	ext = binary.BigEndian.AppendUint16(ext, uint16(len(host)))
	return append(ext, host...)
}

// ParseSNI extracts the server_name from the beginning of a TLS stream.
// The stream may be incomplete (ErrNeedMore) or split across multiple
// records; handshake fragments are reassembled. It returns the hostname
// on success.
func ParseSNI(stream []byte) (string, error) {
	hs, err := reassembleHandshake(stream)
	if err != nil {
		return "", err
	}
	return parseClientHelloSNI(hs)
}

// reassembleHandshake concatenates the payloads of leading handshake
// records until a complete ClientHello message is available. A message
// that one record holds — nearly every hello — is returned where it lies
// in stream; the first record's payload is taken with no spare capacity,
// so joining a second to it copies and stream is never written.
func reassembleHandshake(stream []byte) ([]byte, error) {
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
			// Partial record: keep what we have; if the handshake
			// message is already complete we are done.
			hs = joinFragment(hs, rest[5:])
			if hsComplete(hs) {
				return hs, nil
			}
			return nil, ErrNeedMore
		}
		hs = joinFragment(hs, rest[5:5+rl])
		rest = rest[5+rl:]
		if hsComplete(hs) {
			return hs, nil
		}
	}
}

// joinFragment appends a record's payload to the handshake bytes before
// it, aliasing the record while it is the only one.
func joinFragment(hs, frag []byte) []byte {
	if hs == nil {
		return frag[:len(frag):len(frag)]
	}
	return append(hs, frag...)
}

// hsComplete reports whether hs holds a full handshake message.
func hsComplete(hs []byte) bool {
	if len(hs) < 4 {
		return false
	}
	l := int(hs[1])<<16 | int(hs[2])<<8 | int(hs[3])
	return len(hs) >= 4+l
}

// parseClientHelloSNI walks a complete handshake message and pulls the
// server_name extension.
func parseClientHelloSNI(hs []byte) (string, error) {
	if len(hs) < 4 {
		return "", ErrNeedMore
	}
	if hs[0] != tlsHandshakeClientHi {
		return "", fmt.Errorf("%w: handshake type %d", ErrNotClientHello, hs[0])
	}
	l := int(hs[1])<<16 | int(hs[2])<<8 | int(hs[3])
	body := hs[4:]
	if len(body) < l {
		return "", ErrNeedMore
	}
	body = body[:l]

	// client_version(2) random(32).
	if len(body) < 34 {
		return "", fmt.Errorf("%w: short body", ErrNotClientHello)
	}
	off := 34
	// session_id.
	if off+1 > len(body) {
		return "", fmt.Errorf("%w: session id", ErrNotClientHello)
	}
	off += 1 + int(body[off])
	// cipher_suites.
	if off+2 > len(body) {
		return "", fmt.Errorf("%w: cipher suites", ErrNotClientHello)
	}
	off += 2 + int(binary.BigEndian.Uint16(body[off:]))
	// compression_methods.
	if off+1 > len(body) {
		return "", fmt.Errorf("%w: compression", ErrNotClientHello)
	}
	off += 1 + int(body[off])
	// extensions.
	if off+2 > len(body) {
		return "", ErrNoSNI // legal pre-extension ClientHello
	}
	extLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+extLen > len(body) {
		return "", fmt.Errorf("%w: extensions overflow", ErrNotClientHello)
	}
	ext := body[off : off+extLen]
	for len(ext) >= 4 {
		typ := binary.BigEndian.Uint16(ext[0:2])
		el := int(binary.BigEndian.Uint16(ext[2:4]))
		if 4+el > len(ext) {
			return "", fmt.Errorf("%w: extension overflow", ErrNotClientHello)
		}
		if typ == tlsExtServerName {
			return parseSNIExtension(ext[4 : 4+el])
		}
		ext = ext[4+el:]
	}
	return "", ErrNoSNI
}

// parseSNIExtension decodes the server_name extension payload.
func parseSNIExtension(p []byte) (string, error) {
	if len(p) < 2 {
		return "", fmt.Errorf("%w: sni list", ErrNotClientHello)
	}
	listLen := int(binary.BigEndian.Uint16(p[0:2]))
	p = p[2:]
	if listLen > len(p) {
		return "", fmt.Errorf("%w: sni list overflow", ErrNotClientHello)
	}
	p = p[:listLen]
	for len(p) >= 3 {
		typ := p[0]
		nl := int(binary.BigEndian.Uint16(p[1:3]))
		if 3+nl > len(p) {
			return "", fmt.Errorf("%w: sni name overflow", ErrNotClientHello)
		}
		if typ == tlsSNIHostName {
			if nl == 0 {
				return "", ErrNoSNI
			}
			return string(p[3 : 3+nl]), nil
		}
		p = p[3+nl:]
	}
	return "", ErrNoSNI
}
