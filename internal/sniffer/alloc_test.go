package sniffer

import (
	"runtime"
	"testing"

	"hostprof/internal/stats"
	"hostprof/internal/trace"
)

// What the observation path guarantees about allocation, frame by frame.
// Decoding allocates nothing (gopacket's DecodingLayerParser discipline:
// one reused Packet, slices aliasing the input). Turning a frame away —
// the fate of nearly every frame on a real wire — allocates nothing.
// Extracting a hostname is bounded: the flow's state, the cipher objects
// the standard library hands out per key, and the hostname itself.

func TestDecodePacketZeroAlloc(t *testing.T) {
	pkt := tcpFrame([4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}, 50000, 443, 1, 2, TCPFlagACK, []byte("data"))
	var p Packet
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodePacket(pkt, &p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodePacket allocates %v per packet, want 0", allocs)
	}
}

func TestDecodePacketPayloadAliasesInput(t *testing.T) {
	payload := []byte("alias-me")
	pkt := tcpFrame([4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}, 50000, 443, 1, 2, TCPFlagACK, payload)
	var p Packet
	if err := DecodePacket(pkt, &p); err != nil {
		t.Fatal(err)
	}
	// Mutating the input must show through the decoded payload: proof
	// of zero-copy.
	pkt[len(pkt)-1] ^= 0xff
	if p.Payload[len(p.Payload)-1] == 'e' {
		t.Fatal("payload was copied, not aliased")
	}
}

func TestObserverEvictsIdleFlows(t *testing.T) {
	obs := NewObserver(ObserverConfig{FlowTimeout: 10})
	// Open ~2048 abandoned flows at t=0 so the modulo-1024 eviction
	// trigger fires after the timeout has passed.
	mk := func(port uint16, ts int64) []byte {
		return tcpFrame([4]byte{10, 0, 0, 1}, [4]byte{93, 0, 0, 1}, port, 443, 1, 0, TCPFlagSYN, nil)
	}
	for i := 0; i < 2047; i++ {
		obs.ProcessPacket(mk(uint16(10000+i), 0), 0)
	}
	if len(obs.flows) != 2047 {
		t.Fatalf("flows = %d", len(obs.flows))
	}
	// A new flow far in the future triggers the sweep.
	obs.ProcessPacket(mk(60000, 1000), 1000)
	if obs.Stats().FlowsEvicted == 0 {
		t.Fatal("no flows evicted after timeout")
	}
	if len(obs.flows) >= 2048 {
		t.Fatalf("flow table did not shrink: %d", len(obs.flows))
	}
}

func TestObserverRejectsZeroAlloc(t *testing.T) {
	client, server := [4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}
	rng := stats.NewRNG(5)
	hello := BuildClientHello("done.example", rng)
	obs := NewObserver(ObserverConfig{})
	if _, ok := obs.ProcessPacket(tcpFrame(client, server, 50000, 443, 101, 1, TCPFlagACK|TCPFlagPSH, hello), 0); !ok {
		t.Fatal("hello not recognised")
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		// QUIC after the handshake: short-header 1-RTT packets.
		{"short-header datagram to :443", udpFrame(client, server, 50001, 443, append([]byte{0x40}, make([]byte, 60)...))},
		{"data on a flow already named", tcpFrame(client, server, 50000, 443, 101+uint32(len(hello)), 1, TCPFlagACK, make([]byte, 512))},
		{"server to client segment", tcpFrame(server, client, 443, 50000, 1, 102, TCPFlagACK, make([]byte, 512))},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := obs.ProcessPacket(c.frame, 1); ok {
				t.Fatal("reject produced a visit")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per frame, want 0", c.name, allocs)
		}
	}
}

func TestObserverAllocsPerFrame(t *testing.T) {
	rng := stats.NewRNG(6)
	visits := make([]trace.Visit, 3000)
	for i := range visits {
		visits[i] = trace.Visit{User: rng.Intn(50), Time: int64(i), Host: "allocs.test.example"}
	}
	capt, err := NewSynthesizer(WireConfig{Channel: ChannelMixed, Seed: 6}).SynthesizeTrace(trace.New(visits))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	obs := NewObserver(ObserverConfig{})
	for i, frame := range capt.Packets {
		obs.ProcessPacket(frame, capt.Times[i])
	}
	runtime.ReadMemStats(&m1)
	if perFrame := float64(m1.Mallocs-m0.Mallocs) / float64(capt.Len()); perFrame > 2.0 {
		t.Errorf("%.2f allocs per frame over a mixed capture, want <= 2.0", perFrame)
	}

	initial, err := BuildQUICInitial("allocs.test.example", rng)
	if err != nil {
		t.Fatal(err)
	}
	frame := udpFrame([4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}, 50001, 443, initial)
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := obs.ProcessPacket(frame, 1); !ok {
			t.Fatal("Initial not opened")
		}
	})
	// Two AES key schedules (header protection, payload), the GCM object
	// and the hostname string: 4 on go1.24, more where crypto/aes and
	// crypto/cipher build theirs in pieces.
	if allocs > 14 {
		t.Errorf("%v allocs per opened Initial, want <= 14", allocs)
	}
}
