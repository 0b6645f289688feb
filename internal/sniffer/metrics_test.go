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
