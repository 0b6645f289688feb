package sniffer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"hostprof/internal/stats"
	"hostprof/internal/trace"
)

// errClass names the sentinel an extraction error wraps: the part of an
// error callers branch on, and so the part the rebuilt path must keep.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []error{
		ErrNotQUICInitial, ErrQUICDecrypt, ErrTruncated,
		ErrNeedMore, ErrNotClientHello, ErrNoSNI,
	} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// sealInitial wraps frames in a protected client Initial under the
// reference key schedule, so what the opener makes of hostile frames can
// be tested behind a valid AEAD tag. token may be empty.
func sealInitial(t testing.TB, frames, token []byte) []byte {
	t.Helper()
	for len(frames) < 4 { // room for the header-protection sample
		frames = append(frames, frameTypePadding)
	}
	dcid := []byte{0x83, 0x94, 0xc8, 0xf0, 0x3e, 0x51, 0x57, 0x08}
	const pnLen, pn = 2, 0x1234
	hdr := []byte{0xc0 | (pnLen - 1)}
	hdr = binary.BigEndian.AppendUint32(hdr, quicVersion1)
	hdr = append(hdr, byte(len(dcid)))
	hdr = append(hdr, dcid...)
	hdr = append(hdr, 0) // no SCID
	hdr = appendVarint(hdr, uint64(len(token)))
	hdr = append(hdr, token...)
	hdr = appendVarint(hdr, uint64(pnLen+len(frames)+16))
	pnOffset := len(hdr)
	hdr = binary.BigEndian.AppendUint16(hdr, pn)

	keys := refDeriveClientInitialKeys(dcid)
	aead, err := keys.aead()
	if err != nil {
		t.Fatal(err)
	}
	pkt := append(hdr, aead.Seal(nil, keys.nonce(pn), frames, hdr)...)
	mask, err := keys.hpMask(pkt[pnOffset+4 : pnOffset+20])
	if err != nil {
		t.Fatal(err)
	}
	pkt[0] ^= mask[0] & 0x0f
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
	}
	return pkt
}

// checkOpenersAgree holds the opener to the reference parser on one
// datagram: same hostname, same error class, input untouched.
func checkOpenersAgree(t testing.TB, datagram []byte) {
	t.Helper()
	before := append([]byte(nil), datagram...)
	got, gerr := ParseQUICInitialSNI(datagram)
	if !bytes.Equal(before, datagram) {
		t.Fatal("opener wrote to the captured datagram")
	}
	want, werr := refParseQUICInitialSNI(datagram)
	if got != want || errClass(gerr) != errClass(werr) {
		t.Fatalf("opener (%q, %v), reference (%q, %v)", got, gerr, want, werr)
	}
}

// scatteredHello is a ClientHello for host cut into CRYPTO frames that
// arrive out of order with PING and PADDING between them: the CRYPTO
// stream no single frame holds, which the opener must still put together.
func scatteredHello(host string, rng *stats.RNG) []byte {
	hello := BuildClientHello(host, rng)[5:]
	a, b := len(hello)/3, 2*len(hello)/3
	var frames []byte
	crypto := func(from, to int) {
		frames = append(frames, frameTypeCrypto)
		frames = appendVarint(frames, uint64(from))
		frames = appendVarint(frames, uint64(to-from))
		frames = append(frames, hello[from:to]...)
	}
	frames = append(frames, frameTypePing, frameTypePadding, frameTypePadding)
	crypto(b, len(hello))
	frames = append(frames, make([]byte, 13)...)
	crypto(0, a)
	frames = append(frames, frameTypePing)
	crypto(a, b)
	return append(frames, make([]byte, 700)...)
}

func TestOpenerMatchesReference(t *testing.T) {
	rng := stats.NewRNG(31)
	whole, err := BuildQUICInitial("whole.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	hello := BuildClientHello("late.example", rng)[5:]
	lateCrypto := append(append([]byte{frameTypeCrypto}, appendVarint(appendVarint(nil, 5), uint64(len(hello)))...), hello...)
	cases := map[string][]byte{
		"built":            whole,
		"scattered":        sealInitial(t, scatteredHello("multi.example", rng), nil),
		"with token":       sealInitial(t, scatteredHello("token.example", rng), bytes.Repeat([]byte{7}, 90)),
		"stream gap":       sealInitial(t, lateCrypto, nil),
		"no crypto":        sealInitial(t, []byte{frameTypePing, 0, 0, 0, 0, 0, 0, 0, 0, 0, frameTypePing}, nil),
		"unknown frame":    sealInitial(t, []byte{0, 0, 0x1c, 0, 0}, nil),
		"truncated crypto": sealInitial(t, []byte{frameTypePing, frameTypePing, frameTypeCrypto, 0x40}, nil),
		"crypto overruns":  sealInitial(t, []byte{frameTypeCrypto, 0, 9, 1, 2, 3}, nil),
		"partial hello":    sealInitial(t, append([]byte{frameTypeCrypto, 0, 20}, hello[:20]...), nil),
		"short header":     {0x40, 1, 2, 3, 4, 5, 6, 7},
		"version 2":        {0xc0, 0x6b, 0x33, 0x43, 0xcf, 0, 0, 0},
		"handshake type":   append([]byte{whole[0]&^0x30 | 0x20}, whole[1:]...),
		"tag flipped":      append(append([]byte(nil), whole[:len(whole)-1]...), whole[len(whole)-1]^1),
		"header flipped":   append(append([]byte(nil), whole[:7]...), append([]byte{whole[7] ^ 1}, whole[8:]...)...),
		"cut in header":    whole[:20],
		"cut in payload":   whole[:600],
		"empty":            nil,
	}
	for name, datagram := range cases {
		t.Run(name, func(t *testing.T) { checkOpenersAgree(t, datagram) })
	}
	for _, name := range []string{"scattered", "with token"} {
		if _, err := ParseQUICInitialSNI(cases[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Every rejection the table is meant to reach, reached.
	for name, class := range map[string]error{
		"stream gap": ErrTruncated, "no crypto": ErrNotQUICInitial, "unknown frame": ErrNotQUICInitial,
		"truncated crypto": ErrTruncated, "crypto overruns": ErrTruncated, "partial hello": ErrNeedMore,
		"tag flipped": ErrQUICDecrypt, "header flipped": ErrQUICDecrypt, "cut in payload": ErrTruncated,
	} {
		if _, err := ParseQUICInitialSNI(cases[name]); !errors.Is(err, class) {
			t.Errorf("%s: err = %v, want %v", name, err, class)
		}
	}
}

// The synthesizer's Initials are what every bench capture and experiment
// replays; the hash is of what commit 6c7bfe4 built, over crypto/hmac.
func TestBuildQUICInitialPinned(t *testing.T) {
	rng := stats.NewRNG(21)
	h := sha256.New()
	for _, host := range []string{"pinned.example", "a.io", "video.cdn.pinned.example"} {
		pkt, err := BuildQUICInitial(host, rng)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(pkt)
	}
	const want = "127ae78f23eeb320c4688b2dd7d039d7da40c5d8625b076767f6a11317b32b7a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("built Initials hash to %s, want %s", got, want)
	}
}

// diffTrace is long enough that a TLS-only rendering opens more than
// 1024 flows across more than a flow timeout, so eviction runs.
func diffTrace() *trace.Trace {
	rng := stats.NewRNG(41)
	visits := make([]trace.Visit, 1400)
	for i := range visits {
		visits[i] = trace.Visit{
			User: rng.Intn(40),
			Time: int64(i),
			Host: fmt.Sprintf("site%d.diff.example", rng.Intn(60)),
		}
	}
	return trace.New(visits)
}

// observeBoth runs one capture through the Observer and the reference
// and requires the same visits in the same order and the same counters.
func observeBoth(t *testing.T, cfg ObserverConfig, packets [][]byte, times []int64) ObserverStats {
	t.Helper()
	obs, ref := NewObserver(cfg), newRefObserver(cfg)
	for i, frame := range packets {
		before := append([]byte(nil), frame...)
		v, ok := obs.ProcessPacket(frame, times[i])
		if !bytes.Equal(before, frame) {
			t.Fatalf("frame %d: observer wrote to the captured frame", i)
		}
		rv, rok := ref.ProcessPacket(frame, times[i])
		if v != rv || ok != rok {
			t.Fatalf("frame %d: observer (%+v, %v), reference (%+v, %v)", i, v, ok, rv, rok)
		}
	}
	if obs.Stats() != ref.stats {
		t.Fatalf("stats diverge:\nobserver  %+v\nreference %+v", obs.Stats(), ref.stats)
	}
	return ref.stats
}

func TestObserverMatchesReference(t *testing.T) {
	const never = 1e-12 // a zero SplitProb means the default
	cases := []struct {
		name string
		wire WireConfig
		obs  ObserverConfig
	}{
		{"tls", WireConfig{Channel: ChannelTLS, SplitProb: never}, ObserverConfig{}},
		{"tls split 0.2", WireConfig{Channel: ChannelTLS, SplitProb: 0.2}, ObserverConfig{}},
		{"tls split 1", WireConfig{Channel: ChannelTLS, SplitProb: 1}, ObserverConfig{}},
		{"tls split 0.2 reorder 0.5", WireConfig{Channel: ChannelTLS, SplitProb: 0.2, ReorderProb: 0.5}, ObserverConfig{}},
		{"tls split 1 reorder 0.5", WireConfig{Channel: ChannelTLS, SplitProb: 1, ReorderProb: 0.5}, ObserverConfig{}},
		{"quic", WireConfig{Channel: ChannelQUIC}, ObserverConfig{}},
		{"dns", WireConfig{Channel: ChannelDNS}, ObserverConfig{}},
		{"mixed", WireConfig{Channel: ChannelMixed}, ObserverConfig{}},
		{"mixed split 1 reorder 0.5", WireConfig{Channel: ChannelMixed, SplitProb: 1, ReorderProb: 0.5}, ObserverConfig{}},
		{"ech", WireConfig{Channel: ChannelECH}, ObserverConfig{}},
		{"ech ip fallback", WireConfig{Channel: ChannelECH, SplitProb: 1, ReorderProb: 0.5}, ObserverConfig{IPFallback: true}},
		{"ech 0.3", WireConfig{Channel: ChannelMixed, ECHProb: 0.3}, ObserverConfig{}},
		{"ech 0.3 ip fallback", WireConfig{Channel: ChannelMixed, ECHProb: 0.3}, ObserverConfig{IPFallback: true}},
		{"ech 0.3 ip fallback dns lookups", WireConfig{Channel: ChannelMixed, ECHProb: 0.3, DNSLookupProb: 0.5}, ObserverConfig{IPFallback: true}},
		{"ipv6 0.5", WireConfig{Channel: ChannelMixed, IPv6Prob: 0.5, ECHProb: 0.3}, ObserverConfig{IPFallback: true}},
		{"nat 4", WireConfig{Channel: ChannelMixed, NATSize: 4}, ObserverConfig{}},
	}
	tr := diffTrace()
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.wire.Seed = uint64(100 + i)
			capt, err := NewSynthesizer(c.wire).SynthesizeTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			st := observeBoth(t, c.obs, capt.Packets, capt.Times)
			blind := c.wire.Channel == ChannelECH && !c.obs.IPFallback
			if st.TLSVisits+st.QUICVisits+st.DNSVisits+st.IPFallbacks == 0 && !blind {
				t.Fatalf("capture yielded no visits: %+v", st)
			}
			if c.wire.Channel == ChannelTLS && st.FlowsEvicted == 0 {
				t.Fatalf("no flow evicted, the table does not reach eviction: %+v", st)
			}
		})
	}
}

// overTwoRecords re-frames a one-record ClientHello as two TLS records,
// the second starting at byte cut of the first.
func overTwoRecords(hello []byte, cut int) []byte {
	var out []byte
	for _, part := range [][]byte{hello[5:cut], hello[cut:]} {
		out = append(out, tlsRecordHandshake, 0x03, 0x01, byte(len(part)>>8), byte(len(part)))
		out = append(out, part...)
	}
	return out
}

// Hand-built flows for the stream shapes the synthesizer never renders:
// where the in-place parse applies, and where it must not.
func TestObserverMatchesReferenceOnOddStreams(t *testing.T) {
	rng := stats.NewRNG(51)
	hello := BuildClientHello("odd.example", rng)
	twoRecords := overTwoRecords(hello, 60)
	src, dst := [4]byte{10, 0, 7, 1}, [4]byte{93, 1, 2, 3}
	port := uint16(40000)
	var packets [][]byte
	flow := func(segs ...func(port uint16) []byte) {
		port++
		for _, seg := range segs {
			packets = append(packets, seg(port))
		}
	}
	syn := func(isn uint32) func(uint16) []byte {
		return func(p uint16) []byte { return tcpFrame(src, dst, p, 443, isn, 0, TCPFlagSYN, nil) }
	}
	data := func(seq uint32, payload []byte) func(uint16) []byte {
		return func(p uint16) []byte { return tcpFrame(src, dst, p, 443, seq, 1, TCPFlagACK|TCPFlagPSH, payload) }
	}
	big := append(append([]byte(nil), hello...), make([]byte, assemblerLimit+1-len(hello))...) // a coalesced segment

	flow(syn(100), data(101, hello))                                                    // the common case
	flow(data(5000, hello))                                                             // mid-stream, no SYN
	flow(data(5000, hello[:40]), data(5040, hello[40:]))                                // mid-stream, split
	flow(syn(100), data(101, hello[:40]), data(101, hello[:40]), data(141, hello[40:])) // retransmitted first half
	flow(syn(100), data(101, hello[:40]), data(121, hello[20:]))                        // overlapping second half
	flow(syn(100), data(141, hello[40:]), data(101, hello[:40]))                        // reordered
	flow(syn(100), data(141, hello[40:]), data(141, hello[40:]), data(101, hello))      // gap, then all of it
	flow(syn(100), data(102, hello))                                                    // first byte never seen
	flow(syn(100), data(101, twoRecords))                                               // hello over two records
	flow(syn(100), data(101, twoRecords[:70]), data(171, twoRecords[70:]))              // … and two segments
	flow(syn(100), data(101, []byte("GET / HTTP/1.1\r\n")), data(117, hello))           // not TLS
	flow(syn(100), data(101, hello), data(101+uint32(len(hello)), hello))               // data after the hello
	flow(syn(100), data(101, big))                                                      // larger than any buffer
	flow(data(7000, big))                                                               // … mid-stream
	flow(syn(100), data(101, hello[:40]), data(141, big))                               // overflow while buffering
	flow(syn(100), data(101+assemblerLimit, hello), data(101, hello))                   // beyond the window first
	flow(syn(100), syn(900), data(101, hello))                                          // second SYN ignored
	flow(syn(100), data(101, BuildClientHelloECH(rng)))                                 // no SNI
	flow(syn(100), data(101, hello[:len(hello)-1]))                                     // never completes

	times := make([]int64, len(packets))
	for _, fallback := range []bool{false, true} {
		st := observeBoth(t, ObserverConfig{IPFallback: fallback}, packets, times)
		if st.TLSVisits < 10 {
			t.Fatalf("hand-built flows yield %d TLS visits: %+v", st.TLSVisits, st)
		}
	}
}
