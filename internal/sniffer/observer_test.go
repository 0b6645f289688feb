package sniffer

import (
	"testing"

	"hostprof/internal/trace"
)

func makeTrace(visits ...trace.Visit) *trace.Trace { return trace.New(visits) }

func TestObserverRecoversTLSVisits(t *testing.T) {
	tr := makeTrace(
		trace.Visit{User: 1, Time: 100, Host: "alpha.example"},
		trace.Visit{User: 2, Time: 150, Host: "beta.example"},
		trace.Visit{User: 1, Time: 200, Host: "gamma.example"},
	)
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, Seed: 1})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 3 {
		t.Fatalf("recovered %d visits, want 3", got.Len())
	}
	want := tr.Visits()
	for i, v := range got.Visits() {
		if v != want[i] {
			t.Fatalf("visit %d = %+v, want %+v", i, v, want[i])
		}
	}
	if obs.Stats().TLSVisits != 3 {
		t.Fatalf("stats: %+v", obs.Stats())
	}
}

func TestObserverRecoversSplitClientHello(t *testing.T) {
	tr := makeTrace(trace.Visit{User: 3, Time: 10, Host: "split.example"})
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, SplitProb: 1.0, Seed: 2})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 1 || got.Visits()[0].Host != "split.example" {
		t.Fatalf("recovered %v", got.Visits())
	}
}

func TestObserverRecoversQUIC(t *testing.T) {
	tr := makeTrace(
		trace.Visit{User: 4, Time: 20, Host: "quic1.example"},
		trace.Visit{User: 4, Time: 30, Host: "quic2.example"},
	)
	syn := NewSynthesizer(WireConfig{Channel: ChannelQUIC, Seed: 3})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 2 {
		t.Fatalf("recovered %d visits", got.Len())
	}
	if obs.Stats().QUICVisits != 2 {
		t.Fatalf("stats: %+v", obs.Stats())
	}
}

func TestObserverRecoversDNS(t *testing.T) {
	tr := makeTrace(trace.Visit{User: 5, Time: 40, Host: "dns.example"})
	syn := NewSynthesizer(WireConfig{Channel: ChannelDNS, Seed: 4})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 1 || got.Visits()[0].Host != "dns.example" {
		t.Fatalf("recovered %v", got.Visits())
	}
	if obs.Stats().DNSVisits != 1 {
		t.Fatalf("stats: %+v", obs.Stats())
	}
}

// The paper's key real-world claim (Section 7.2): the observer obtains the
// same hostname sequence whether the client uses HTTPS, QUIC or plain DNS.
func TestObserverChannelEquivalence(t *testing.T) {
	visits := []trace.Visit{
		{User: 7, Time: 10, Host: "one.example"},
		{User: 7, Time: 20, Host: "two.example"},
		{User: 8, Time: 30, Host: "three.example"},
	}
	var got [3][]trace.Visit
	for i, ch := range []Channel{ChannelTLS, ChannelQUIC, ChannelDNS} {
		syn := NewSynthesizer(WireConfig{Channel: ch, Seed: uint64(10 + i)})
		cap, err := syn.SynthesizeTrace(makeTrace(visits...))
		if err != nil {
			t.Fatal(err)
		}
		obs := NewObserver(ObserverConfig{})
		got[i] = obs.ObserveAll(cap.Packets, cap.Times).Visits()
	}
	for i := 1; i < 3; i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("channel %d recovered %d visits, channel 0 %d", i, len(got[i]), len(got[0]))
		}
		for j := range got[0] {
			if got[i][j] != got[0][j] {
				t.Fatalf("channel %d visit %d = %+v, want %+v", i, j, got[i][j], got[0][j])
			}
		}
	}
}

func TestObserverMixedChannel(t *testing.T) {
	var visits []trace.Visit
	for i := 0; i < 60; i++ {
		visits = append(visits, trace.Visit{User: i % 5, Time: int64(i * 10), Host: "mixed.example"})
	}
	syn := NewSynthesizer(WireConfig{Channel: ChannelMixed, Seed: 9})
	cap, err := syn.SynthesizeTrace(makeTrace(visits...))
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 60 {
		t.Fatalf("recovered %d/60 visits", got.Len())
	}
	if obs.Stats().TLSVisits == 0 || obs.Stats().QUICVisits == 0 || obs.Stats().DNSVisits == 0 {
		t.Fatalf("mixed channel skipped a transport: %+v", obs.Stats())
	}
}

func TestObserverIgnoresGarbageAndServerTraffic(t *testing.T) {
	obs := NewObserver(ObserverConfig{})
	if _, ok := obs.ProcessPacket([]byte{1, 2, 3}, 0); ok {
		t.Fatal("garbage produced a visit")
	}
	if obs.Stats().Undecodable != 1 {
		t.Fatalf("stats: %+v", obs.Stats())
	}
	// Server→client TCP (src port 443) must be ignored.
	pkt := tcpFrame([4]byte{93, 0, 0, 1}, [4]byte{10, 0, 1, 1}, 443, 50000, 1, 1, TCPFlagACK, []byte("x"))
	if _, ok := obs.ProcessPacket(pkt, 0); ok {
		t.Fatal("server-side traffic produced a visit")
	}
	// Non-TLS TCP port ignored.
	pkt = tcpFrame([4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}, 50000, 80, 1, 1, TCPFlagACK, []byte("GET /"))
	if _, ok := obs.ProcessPacket(pkt, 0); ok {
		t.Fatal("port-80 traffic produced a visit")
	}
}

func TestObserverAbandonsNonTLSFlows(t *testing.T) {
	obs := NewObserver(ObserverConfig{})
	src, dst := [4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}
	// HTTP bytes on port 443: flow should be marked done, not buffered
	// forever.
	pkt := tcpFrame(src, dst, 50000, 443, 1, 1, TCPFlagACK|TCPFlagPSH, []byte("GET / HTTP/1.1\r\n"))
	if _, ok := obs.ProcessPacket(pkt, 0); ok {
		t.Fatal("HTTP produced a visit")
	}
	if len(obs.flows) != 1 {
		t.Fatalf("flows = %d", len(obs.flows))
	}
	// More data on the same flow is ignored cheaply.
	pkt2 := tcpFrame(src, dst, 50000, 443, 17, 1, TCPFlagACK|TCPFlagPSH, []byte("Host: x\r\n\r\n"))
	if _, ok := obs.ProcessPacket(pkt2, 1); ok {
		t.Fatal("follow-up data produced a visit")
	}
}

func TestObserverCustomUserMapping(t *testing.T) {
	tr := makeTrace(trace.Visit{User: 300, Time: 5, Host: "u.example"})
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, Seed: 21})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{
		UserOf: func(a [16]byte) int { return int(a[1])<<8 | int(a[2]) },
	})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 1 || got.Visits()[0].User != 300 {
		t.Fatalf("got %v", got.Visits())
	}
}

func TestUserAddrRoundTrip(t *testing.T) {
	for _, u := range []int{0, 1, 255, 256, 4095, 65535} {
		a := userAddr(u)
		var full [16]byte
		copy(full[:4], a[:])
		full[15] = 4
		got := int(full[1])<<8 | int(full[2])
		if got != u {
			t.Fatalf("user %d round-trips to %d", u, got)
		}
	}
}
