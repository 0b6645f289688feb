package sniffer

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hostprof/internal/stats"
)

// HKDF (RFC 5869) in full over the package's own HMAC, which derives
// only QUIC's four short outputs in product code: the RFC's vectors pin
// the MAC across key and message lengths the opener never meets.

func hkdfExtract(salt, ikm []byte) []byte {
	h := newHMACSHA256()
	h.setKey(salt)
	return append([]byte(nil), h.finish(ikm)...)
}

func hkdfExpand(prk, info []byte, length int) []byte {
	h := newHMACSHA256()
	var out, t []byte
	for counter := byte(1); len(out) < length; counter++ {
		h.setKey(prk)
		t = h.finish(append(append(append([]byte(nil), t...), info...), counter))
		out = append(out, t...)
	}
	return out[:length]
}

func hkdfExpandLabel(secret []byte, label string, context []byte, length int) []byte {
	info := expandLabelInfo(label, length)
	info = info[:len(info)-2] // hkdfExpand counts blocks itself
	info = append(append(info, byte(len(context))), context...)
	return hkdfExpand(secret, info, length)
}

// The MAC against crypto/hmac over random keys and messages, both sides
// of the block size, one hmacSHA256 re-keyed throughout.
func TestHMACMatchesStdlib(t *testing.T) {
	rng := stats.NewRNG(7)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	h := newHMACSHA256()
	for i := 0; i < 1000; i++ {
		key, msg := random(rng.Intn(150)), random(rng.Intn(300))
		ref := hmac.New(sha256.New, key)
		ref.Write(msg)
		want := ref.Sum(nil)
		h.setKey(key)
		if got := h.finish(msg); !bytes.Equal(got, want) {
			t.Fatalf("case %d (key %d bytes, msg %d): %x, want %x", i, len(key), len(msg), got, want)
		}
		saved := newKeyedHMAC(key)
		h.restore(saved)
		if got := h.finish(msg); !bytes.Equal(got, want) {
			t.Fatalf("case %d restored: %x, want %x", i, got, want)
		}
	}
}

// RFC 5869 Appendix A, Test Case 1 (SHA-256).
func TestHKDFRFC5869Case1(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := mustHex(t, "000102030405060708090a0b0c")
	info := mustHex(t, "f0f1f2f3f4f5f6f7f8f9")
	prk := hkdfExtract(salt, ikm)
	wantPRK := mustHex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK = %x", prk)
	}
	okm := hkdfExpand(prk, info, 42)
	wantOKM := mustHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x", okm)
	}
}

// RFC 5869 Appendix A, Test Case 2 (longer inputs/outputs).
func TestHKDFRFC5869Case2(t *testing.T) {
	ikm := mustHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f")
	salt := mustHex(t, "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf")
	info := mustHex(t, "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
	prk := hkdfExtract(salt, ikm)
	okm := hkdfExpand(prk, info, 82)
	want := mustHex(t, "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87")
	if !bytes.Equal(okm, want) {
		t.Fatalf("OKM = %x", okm)
	}
}

// RFC 5869 Appendix A, Test Case 3 (zero-length salt/info).
func TestHKDFRFC5869Case3(t *testing.T) {
	ikm := mustHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	prk := hkdfExtract(nil, ikm)
	okm := hkdfExpand(prk, nil, 42)
	want := mustHex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	if !bytes.Equal(okm, want) {
		t.Fatalf("OKM = %x", okm)
	}
}

func TestHKDFExpandLabelStructure(t *testing.T) {
	secret := mustHex(t, "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a")
	// Different labels must give different keys; same inputs identical.
	a := hkdfExpandLabel(secret, "quic key", nil, 16)
	b := hkdfExpandLabel(secret, "quic hp", nil, 16)
	c := hkdfExpandLabel(secret, "quic key", nil, 16)
	if bytes.Equal(a, b) {
		t.Fatal("different labels gave identical output")
	}
	if !bytes.Equal(a, c) {
		t.Fatal("same label not deterministic")
	}
	if len(hkdfExpandLabel(secret, "x", nil, 57)) != 57 {
		t.Fatal("wrong output length")
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
