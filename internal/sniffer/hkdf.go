package sniffer

import (
	"crypto/sha256"
	"encoding"
	"hash"
)

// hmacSHA256 is HMAC-SHA256 (RFC 2104) over two digests that are re-keyed
// in place. Opening a QUIC Initial takes five MACs under four keys that
// change with every packet, so a new crypto/hmac per key — two fresh
// digests, two pads, a marshalled state — costs more than the hashing it
// sets up. Nothing here allocates; one value serves one goroutine.
type hmacSHA256 struct {
	inner, outer hash.Hash
	pad          [sha256.BlockSize]byte
	sum, out     [sha256.Size]byte
}

func newHMACSHA256() hmacSHA256 {
	return hmacSHA256{inner: sha256.New(), outer: sha256.New()}
}

// setKey leaves both digests holding key's padded block, ready for finish.
func (h *hmacSHA256) setKey(key []byte) {
	h.inner.Reset()
	if len(key) > sha256.BlockSize {
		h.inner.Write(key)
		key = h.inner.Sum(h.sum[:0])
		h.inner.Reset()
	}
	h.pad = [sha256.BlockSize]byte{}
	copy(h.pad[:], key)
	for i := range h.pad {
		h.pad[i] ^= 0x36
	}
	h.inner.Write(h.pad[:])
	for i := range h.pad {
		h.pad[i] ^= 0x36 ^ 0x5c
	}
	h.outer.Reset()
	h.outer.Write(h.pad[:])
}

// finish returns the MAC of msg under the key last set or restored. The
// result lives in h until the next finish, and the key is spent.
func (h *hmacSHA256) finish(msg []byte) []byte {
	h.inner.Write(msg)
	h.outer.Write(h.inner.Sum(h.sum[:0]))
	return h.outer.Sum(h.out[:0])
}

// keyedHMAC is the pair of digest states setKey leaves behind, saved so a
// key that never changes costs no compression to set again.
type keyedHMAC struct{ inner, outer []byte }

func newKeyedHMAC(key []byte) keyedHMAC {
	h := newHMACSHA256()
	h.setKey(key)
	// sha256.New documents that its hashes marshal their state.
	inner, err := h.inner.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err)
	}
	outer, err := h.outer.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err)
	}
	return keyedHMAC{inner, outer}
}

// restore is setKey for a saved key.
func (h *hmacSHA256) restore(k keyedHMAC) {
	if err := h.inner.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.inner); err != nil {
		panic(err)
	}
	if err := h.outer.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.outer); err != nil {
		panic(err)
	}
}

// expandLabelInfo is what HKDF-Expand (RFC 5869) feeds the MAC to expand
// a TLS 1.3 label (RFC 8446 Section 7.1) with an empty context, as all of
// QUIC's Initial labels have, into at most one hash length of output:
// T(1) = HMAC(prk, HkdfLabel | 0x01).
func expandLabelInfo(label string, length int) []byte {
	full := "tls13 " + label
	info := make([]byte, 0, 4+len(full)+2)
	info = append(info, byte(length>>8), byte(length), byte(len(full)))
	info = append(info, full...)
	return append(info, 0, 1)
}
