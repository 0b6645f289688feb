package sniffer

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"hostprof/internal/stats"
)

// deriveClientInitialKeys is the opener's key schedule, with the keys
// copied out of it.
func deriveClientInitialKeys(dcid []byte) (k struct{ key, iv, hp []byte }) {
	o := newInitialOpener()
	o.deriveKeys(dcid)
	k.key, k.iv, k.hp = o.key[:], o.iv[:], o.hp[:]
	return k
}

// reassembleCrypto runs the frame walk on a fresh opener.
func reassembleCrypto(payload []byte) ([]byte, error) {
	return newInitialOpener().reassembleCrypto(payload)
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRFC9001AppendixAKeys checks the Initial key derivation against the
// published test vectors (RFC 9001 Appendix A.1, DCID 8394c8f03e515708).
func TestRFC9001AppendixAKeys(t *testing.T) {
	dcid := unhex(t, "8394c8f03e515708")
	initial := hkdfExtract(quicV1InitialSalt, dcid)
	wantInitial := unhex(t, "7db5df06e7a69e432496adedb00851923595221596ae2ae9fb8115c1e9ed0a44")
	if !bytes.Equal(initial, wantInitial) {
		t.Fatalf("initial_secret = %x", initial)
	}
	client := hkdfExpandLabel(initial, "client in", nil, 32)
	wantClient := unhex(t, "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	if !bytes.Equal(client, wantClient) {
		t.Fatalf("client_initial_secret = %x", client)
	}
	keys := deriveClientInitialKeys(dcid)
	if !bytes.Equal(keys.key, unhex(t, "1f369613dd76d5467730efcbe3b1a22d")) {
		t.Fatalf("key = %x", keys.key)
	}
	if !bytes.Equal(keys.iv, unhex(t, "fa044b2f42a3fd3b46fb255c")) {
		t.Fatalf("iv = %x", keys.iv)
	}
	if !bytes.Equal(keys.hp, unhex(t, "9f50449e04a0e810283a1e9933adedd2")) {
		t.Fatalf("hp = %x", keys.hp)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 16383, 16384, 1 << 29, 1 << 30, 1 << 61} {
		buf := appendVarint(nil, v)
		got, n, err := readVarint(buf)
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Fatalf("v=%d: got %d (n=%d, len=%d)", v, got, n, len(buf))
		}
	}
}

func TestVarintEncodingSizes(t *testing.T) {
	cases := []struct {
		v    uint64
		size int
	}{
		{0, 1}, {63, 1}, {64, 2}, {16383, 2}, {16384, 4}, {1<<30 - 1, 4}, {1 << 30, 8},
	}
	for _, c := range cases {
		if got := len(appendVarint(nil, c.v)); got != c.size {
			t.Errorf("varint(%d) uses %d bytes, want %d", c.v, got, c.size)
		}
	}
}

func TestVarintTruncated(t *testing.T) {
	if _, _, err := readVarint(nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("empty varint should fail")
	}
	if _, _, err := readVarint([]byte{0x40}); !errors.Is(err, ErrTruncated) {
		t.Fatal("short 2-byte varint should fail")
	}
}

func TestQUICInitialRoundTrip(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, host := range []string{"quic.example", "video.cdn.example", "q.io"} {
		pkt, err := BuildQUICInitial(host, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt) < quicMinInitialUDP {
			t.Fatalf("Initial only %d bytes, must be >= %d", len(pkt), quicMinInitialUDP)
		}
		got, err := ParseQUICInitialSNI(pkt)
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		if got != host {
			t.Fatalf("got %q, want %q", got, host)
		}
	}
}

func TestQUICInitialDoesNotMutateInput(t *testing.T) {
	rng := stats.NewRNG(12)
	pkt, err := BuildQUICInitial("immutable.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]byte(nil), pkt...)
	if _, err := ParseQUICInitialSNI(pkt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp, pkt) {
		t.Fatal("parser mutated the captured datagram")
	}
}

func TestQUICInitialCorruptionDetected(t *testing.T) {
	rng := stats.NewRNG(13)
	pkt, err := BuildQUICInitial("corrupt.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext byte near the end: AEAD must fail.
	bad := append([]byte(nil), pkt...)
	bad[len(bad)-1] ^= 0xff
	if _, err := ParseQUICInitialSNI(bad); !errors.Is(err, ErrQUICDecrypt) {
		t.Fatalf("err = %v, want ErrQUICDecrypt", err)
	}
}

func TestQUICRejectsNonInitial(t *testing.T) {
	// Short header packet.
	if _, err := ParseQUICInitialSNI([]byte{0x40, 1, 2, 3, 4, 5, 6, 7}); !errors.Is(err, ErrNotQUICInitial) {
		t.Fatalf("err = %v", err)
	}
	// Wrong version.
	pkt := []byte{0xc0, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00}
	if _, err := ParseQUICInitialSNI(pkt); !errors.Is(err, ErrNotQUICInitial) {
		t.Fatalf("err = %v", err)
	}
	// Handshake long-header type (10) with v1.
	rng := stats.NewRNG(14)
	good, err := BuildQUICInitial("x.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = (bad[0] &^ 0x30) | 0x20
	if _, err := ParseQUICInitialSNI(bad); !errors.Is(err, ErrNotQUICInitial) {
		t.Fatalf("err = %v", err)
	}
}

func TestReassembleCryptoOrdersChunks(t *testing.T) {
	rng := stats.NewRNG(15)
	rec := BuildClientHello("multi.example", rng)
	hello := rec[5:]
	cut := len(hello) / 3
	// Two CRYPTO frames out of order.
	var payload []byte
	payload = append(payload, frameTypeCrypto)
	payload = appendVarint(payload, uint64(cut))
	payload = appendVarint(payload, uint64(len(hello)-cut))
	payload = append(payload, hello[cut:]...)
	payload = append(payload, frameTypeCrypto)
	payload = appendVarint(payload, 0)
	payload = appendVarint(payload, uint64(cut))
	payload = append(payload, hello[:cut]...)
	payload = append(payload, frameTypePadding, frameTypePing)

	crypto, err := reassembleCrypto(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crypto, hello) {
		t.Fatal("reassembly mismatch")
	}
	host, err := parseClientHelloSNI(crypto)
	if err != nil || host != "multi.example" {
		t.Fatalf("host %q err %v", host, err)
	}
}

func TestReassembleCryptoGap(t *testing.T) {
	var payload []byte
	payload = append(payload, frameTypeCrypto)
	payload = appendVarint(payload, 10) // gap: starts at 10
	payload = appendVarint(payload, 2)
	payload = append(payload, 0xab, 0xcd)
	if _, err := reassembleCrypto(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestReassembleCryptoUnknownFrame(t *testing.T) {
	if _, err := reassembleCrypto([]byte{0x1c, 0, 0}); !errors.Is(err, ErrNotQUICInitial) {
		t.Fatalf("err = %v", err)
	}
}
