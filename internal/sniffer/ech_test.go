package sniffer

import (
	"errors"
	"strings"
	"testing"

	"hostprof/internal/stats"
	"hostprof/internal/trace"
)

func TestBuildClientHelloECHHasNoSNI(t *testing.T) {
	rng := stats.NewRNG(1)
	rec := BuildClientHelloECH(rng)
	if _, err := ParseSNI(rec); !errors.Is(err, ErrNoSNI) {
		t.Fatalf("err = %v, want ErrNoSNI", err)
	}
}

func TestObserverIPFallbackOnECH(t *testing.T) {
	tr := trace.New([]trace.Visit{
		{User: 2, Time: 10, Host: "hidden.example"},
		{User: 2, Time: 20, Host: "hidden.example"},
		{User: 3, Time: 30, Host: "other.example"},
	})
	syn := NewSynthesizer(WireConfig{Channel: ChannelECH, Seed: 5})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{IPFallback: true})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 3 {
		t.Fatalf("recovered %d visits, want 3", got.Len())
	}
	if obs.Stats().IPFallbacks != 3 || obs.Stats().TLSVisits != 0 {
		t.Fatalf("stats %+v", obs.Stats())
	}
	vs := got.Visits()
	// Same hidden hostname → same IP token, different hostname → other.
	if !strings.HasPrefix(vs[0].Host, "ip-") {
		t.Fatalf("host %q not an IP token", vs[0].Host)
	}
	if vs[0].Host != vs[1].Host {
		t.Fatal("same server produced different IP tokens")
	}
	if vs[0].Host == vs[2].Host {
		t.Fatal("different servers collided on one IP token")
	}
	// Token matches the deterministic resolver view.
	want := IPToken(addr16(serverAddr("hidden.example")))
	if vs[0].Host != want {
		t.Fatalf("token %q, want %q", vs[0].Host, want)
	}
}

func addr16(v4 [4]byte) [16]byte {
	var a [16]byte
	copy(a[:4], v4[:])
	a[15] = 4
	return a
}

func TestObserverECHIgnoredWithoutFallback(t *testing.T) {
	tr := trace.New([]trace.Visit{{User: 1, Time: 5, Host: "hidden.example"}})
	syn := NewSynthesizer(WireConfig{Channel: ChannelECH, Seed: 7})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	if got := obs.ObserveAll(cap.Packets, cap.Times); got.Len() != 0 {
		t.Fatalf("recovered %d visits without fallback", got.Len())
	}
}

func TestECHProbMixes(t *testing.T) {
	var visits []trace.Visit
	for i := 0; i < 120; i++ {
		visits = append(visits, trace.Visit{User: 1, Time: int64(i), Host: "p.example"})
	}
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, ECHProb: 0.5, Seed: 9})
	cap, err := syn.SynthesizeTrace(trace.New(visits))
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{IPFallback: true})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 120 {
		t.Fatalf("recovered %d visits", got.Len())
	}
	if obs.Stats().TLSVisits == 0 || obs.Stats().IPFallbacks == 0 {
		t.Fatalf("mix degenerate: %+v", obs.Stats())
	}
	frac := float64(obs.Stats().IPFallbacks) / 120
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("ECH fraction %.2f, want ~0.5", frac)
	}
}

func TestNATCollapsesUsers(t *testing.T) {
	tr := trace.New([]trace.Visit{
		{User: 0, Time: 1, Host: "a.example"},
		{User: 1, Time: 2, Host: "b.example"},
		{User: 2, Time: 3, Host: "c.example"},
		{User: 3, Time: 4, Host: "d.example"},
		{User: 4, Time: 5, Host: "e.example"},
	})
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, NATSize: 2, Seed: 11})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	got := obs.ObserveAll(cap.Packets, cap.Times)
	if got.Len() != 5 {
		t.Fatalf("recovered %d visits", got.Len())
	}
	users := got.Users()
	// Users {0,1}→0, {2,3}→2, {4}→4.
	if len(users) != 3 || users[0] != 0 || users[1] != 2 || users[2] != 4 {
		t.Fatalf("wire users = %v", users)
	}
}

func TestIPToken(t *testing.T) {
	var v4 [16]byte
	v4[0], v4[1], v4[2], v4[3], v4[15] = 93, 1, 2, 3, 4
	if got := IPToken(v4); got != "ip-93.1.2.3" {
		t.Fatalf("v4 token %q", got)
	}
	var v6 [16]byte
	v6[0] = 0xfd
	if got := IPToken(v6); !strings.HasPrefix(got, "ip6-") {
		t.Fatalf("v6 token %q", got)
	}
}
