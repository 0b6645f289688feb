package sniffer

import (
	"strings"
	"sync"
	"testing"

	obspkg "hostprof/internal/obs"
	"hostprof/internal/trace"
)

// An observer wired to a registry must export its counters under
// hostprof_sniffer_* names, matching the Stats snapshot.
func TestObserverExportsMetrics(t *testing.T) {
	tr := makeTrace(
		trace.Visit{User: 1, Time: 100, Host: "alpha.example"},
		trace.Visit{User: 2, Time: 150, Host: "beta.example"},
	)
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, Seed: 4})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	reg := obspkg.NewRegistry()
	obs := NewObserver(ObserverConfig{Metrics: reg})
	obs.ObserveAll(cap.Packets, cap.Times)

	st := obs.Stats()
	if got := reg.Counter("hostprof_sniffer_visits_total", obspkg.L("channel", "tls")).Value(); got != st.TLSVisits || got != 2 {
		t.Fatalf("tls visits counter = %d, stats = %d, want 2", got, st.TLSVisits)
	}
	if got := reg.Counter("hostprof_sniffer_packets_total").Value(); got != st.Packets || got == 0 {
		t.Fatalf("packets counter = %d, stats = %d", got, st.Packets)
	}
	if got := reg.Gauge("hostprof_sniffer_flows_active").Value(); got != float64(len(obs.flows)) {
		t.Fatalf("flows gauge = %v, active = %d", got, len(obs.flows))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `hostprof_sniffer_visits_total{channel="tls"} 2`) {
		t.Fatalf("exposition missing sniffer counters:\n%s", sb.String())
	}
}

// Stats must be safe to call while another goroutine is processing
// packets (the serve path scrapes /metrics concurrently with ingest);
// run under -race.
func TestObserverStatsConcurrentWithProcessing(t *testing.T) {
	tr := makeTrace(
		trace.Visit{User: 1, Time: 100, Host: "alpha.example"},
		trace.Visit{User: 2, Time: 150, Host: "beta.example"},
	)
	syn := NewSynthesizer(WireConfig{Channel: ChannelTLS, Seed: 5})
	cap, err := syn.SynthesizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(ObserverConfig{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = obs.Stats()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for j, pkt := range cap.Packets {
			obs.ProcessPacket(pkt, cap.Times[j])
		}
	}
	close(done)
	wg.Wait()
	if obs.Stats().TLSVisits == 0 {
		t.Fatal("no visits observed")
	}
}

// TestObserverFlowAndResolutionCounters reads the flow and resolution
// families at exact values off one capture: 1022 TLS flows at t=0; at
// t=1000 a resolver round trip (one A answer) and an encrypted hello to
// the answered address; one more TLS flow, whose creation makes 1024
// tracked flows and so runs the idle sweep; and one frame too short to
// decode. A new flow is created seen at its first segment, so the sweep
// evicts only the 1022 idle ones: opened = 1022 + 2, evicted = 1022,
// and the two left are the encrypted hello's and the sweeping one.
func TestObserverFlowAndResolutionCounters(t *testing.T) {
	var visits []trace.Visit
	for u := range 1022 {
		visits = append(visits, trace.Visit{User: u, Time: 0, Host: "alpha.example"})
	}
	tls := NewSynthesizer(WireConfig{Channel: ChannelTLS, Seed: 6})
	cap, err := tls.SynthesizeTrace(makeTrace(visits...))
	if err != nil {
		t.Fatal(err)
	}
	ech := NewSynthesizer(WireConfig{Channel: ChannelECH, DNSLookupProb: 1, Seed: 7})
	if err := ech.AppendVisit(cap, trace.Visit{User: 2000, Time: 1000, Host: "beta.example"}); err != nil {
		t.Fatal(err)
	}
	if err := tls.AppendVisit(cap, trace.Visit{User: 2001, Time: 1000, Host: "gamma.example"}); err != nil {
		t.Fatal(err)
	}
	cap.Append([]byte{0xde, 0xad}, 1000)

	reg := obspkg.NewRegistry()
	obs := NewObserver(ObserverConfig{IPFallback: true, Metrics: reg})
	tr := obs.ObserveAll(cap.Packets, cap.Times)
	want := map[string]int64{
		"hostprof_sniffer_undecodable_total":        1,
		"hostprof_sniffer_dns_mappings_total":       1,
		"hostprof_sniffer_resolved_fallbacks_total": 1,
		"hostprof_sniffer_flows_opened_total":       1024,
		"hostprof_sniffer_flows_evicted_total":      1022,
	}
	for name, n := range want {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if got := reg.Gauge("hostprof_sniffer_flows_active").Value(); got != 2 || len(obs.flows) != 2 {
		t.Errorf("flows_active = %v over %d tracked flows, want 2", got, len(obs.flows))
	}
	resolved := 0
	for _, v := range tr.Visits() {
		if v.User == 2000 && v.Host == "beta.example" {
			resolved++
		}
	}
	if resolved != 2 { // the resolver query, then the hello named by its answer
		t.Errorf("user 2000 has %d beta.example visits, want the query's and the hello's", resolved)
	}
}
