package sniffer

import (
	"errors"
	"fmt"

	"hostprof/internal/obs"
	"hostprof/internal/trace"
)

// FlowKey identifies a unidirectional transport flow.
type FlowKey struct {
	Src, Dst         [16]byte
	SrcPort, DstPort uint16
	Proto            byte
}

// flowState buffers the beginning of a TCP client stream until an SNI has
// been extracted or the flow is declared uninteresting.
type flowState struct {
	asm      streamAssembler
	done     bool
	lastSeen int64
}

// maxFlowBuffer bounds per-flow buffering: a ClientHello that has not
// completed within this many bytes never will.
const maxFlowBuffer = 16 * 1024

// ObserverConfig tunes the passive observer.
type ObserverConfig struct {
	// UserOf maps a client source address to a user ID; the default
	// uses the low bytes of the address, matching the synthesizer's
	// 10.(u>>8).(u&0xff).1 layout. Real observers key on MAC, IMSI or
	// subscriber line (paper Section 7.2).
	UserOf func(addr [16]byte) int
	// FlowTimeout evicts idle flows after this many seconds. Default 60.
	FlowTimeout int64
	// Ports considered TLS; default {443}.
	TLSPorts []uint16
	// Ports considered QUIC; default {443}.
	QUICPorts []uint16
	// Ports considered DNS; default {53}.
	DNSPorts []uint16
	// IPFallback, when true, emits a pseudo-hostname ("ip-a.b.c.d")
	// derived from the destination address for TLS flows whose
	// ClientHello carries no readable SNI (encrypted ClientHello).
	// Paper Section 7.2: "encrypted SNI ... do not hide the IP address
	// that may be used by the profiling algorithm".
	IPFallback bool
	// Metrics, when non-nil, is the registry the observer exports its
	// counters into under hostprof_sniffer_* names (see internal/obs).
	// Nil keeps the counters private to the observer; they remain
	// readable through Stats either way.
	Metrics *obs.Registry
}

func (c ObserverConfig) withDefaults() ObserverConfig {
	if c.UserOf == nil {
		c.UserOf = func(a [16]byte) int {
			return int(a[1])<<8 | int(a[2])
		}
	}
	if c.FlowTimeout <= 0 {
		c.FlowTimeout = 60
	}
	if len(c.TLSPorts) == 0 {
		c.TLSPorts = []uint16{443}
	}
	if len(c.QUICPorts) == 0 {
		c.QUICPorts = []uint16{443}
	}
	if len(c.DNSPorts) == 0 {
		c.DNSPorts = []uint16{53}
	}
	return c
}

// Observer is the passive network eavesdropper: packets in, hostname
// visits out. It understands TLS-over-TCP (SNI), QUIC v1 Initials and DNS
// queries — every channel that leaks the hostname despite encryption
// (paper Section 7.2).
type Observer struct {
	cfg   ObserverConfig
	flows map[FlowKey]*flowState
	pkt   Packet
	// quic holds the scratch QUIC Initials are opened in. Like pkt it is
	// why ProcessPacket belongs to one goroutine.
	quic *initialOpener
	// ipToHost maps server addresses to hostnames learned from DNS
	// responses flowing past the observer; used to resolve SNI-less
	// (ECH) flows to real hostnames instead of raw IP tokens.
	ipToHost map[[16]byte]string

	met observerMetrics
}

// ObserverStats is a point-in-time snapshot of the observer's counters,
// as returned by Stats.
type ObserverStats struct {
	Packets           int64
	Undecodable       int64
	TLSVisits         int64
	QUICVisits        int64
	DNSVisits         int64
	IPFallbacks       int64
	ResolvedFallbacks int64
	DNSMappings       int64
	FlowsTracked      int64
	FlowsEvicted      int64
}

// observerMetrics holds the observer's registry handles, resolved once
// at construction so the per-packet path pays exactly one atomic add.
type observerMetrics struct {
	packets           *obs.Counter
	undecodable       *obs.Counter
	tlsVisits         *obs.Counter
	quicVisits        *obs.Counter
	dnsVisits         *obs.Counter
	ipFallbacks       *obs.Counter
	resolvedFallbacks *obs.Counter
	dnsMappings       *obs.Counter
	flowsTracked      *obs.Counter
	flowsEvicted      *obs.Counter
	flowsActive       *obs.Gauge
}

func newObserverMetrics(reg *obs.Registry) observerMetrics {
	visits := func(channel string) *obs.Counter {
		return reg.Counter("hostprof_sniffer_visits_total", obs.L("channel", channel))
	}
	reg.Describe("hostprof_sniffer_visits_total", "hostname visits extracted, by leak channel")
	reg.Describe("hostprof_sniffer_packets_total", "Ethernet frames offered to the observer")
	reg.Describe("hostprof_sniffer_flows_active", "TCP flows currently buffered awaiting an SNI")
	reg.Describe("hostprof_sniffer_undecodable_total", "frames the layer decoder rejected")
	reg.Describe("hostprof_sniffer_resolved_fallbacks_total", "SNI-less flows named from an observed DNS answer instead of a raw IP token")
	reg.Describe("hostprof_sniffer_dns_mappings_total", "address-to-hostname mappings learned from DNS responses")
	reg.Describe("hostprof_sniffer_flows_opened_total", "TCP flows the observer started tracking")
	reg.Describe("hostprof_sniffer_flows_evicted_total", "tracked flows dropped after the idle timeout")
	return observerMetrics{
		packets:           reg.Counter("hostprof_sniffer_packets_total"),
		undecodable:       reg.Counter("hostprof_sniffer_undecodable_total"),
		tlsVisits:         visits("tls"),
		quicVisits:        visits("quic"),
		dnsVisits:         visits("dns"),
		ipFallbacks:       visits("ip_fallback"),
		resolvedFallbacks: reg.Counter("hostprof_sniffer_resolved_fallbacks_total"),
		dnsMappings:       reg.Counter("hostprof_sniffer_dns_mappings_total"),
		flowsTracked:      reg.Counter("hostprof_sniffer_flows_opened_total"),
		flowsEvicted:      reg.Counter("hostprof_sniffer_flows_evicted_total"),
		flowsActive:       reg.Gauge("hostprof_sniffer_flows_active"),
	}
}

// NewObserver returns an observer with the given configuration.
func NewObserver(cfg ObserverConfig) *Observer {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		// A private registry keeps the counters atomic (and Stats safe)
		// without exporting anything.
		reg = obs.NewRegistry()
	}
	return &Observer{
		cfg:      cfg,
		flows:    make(map[FlowKey]*flowState),
		quic:     newInitialOpener(),
		ipToHost: make(map[[16]byte]string),
		met:      newObserverMetrics(reg),
	}
}

// Stats snapshots the observer's counters. Unlike ProcessPacket — which
// must stay on a single goroutine — Stats is safe to call concurrently
// with packet processing: every counter is read atomically. The snapshot
// is per-counter consistent, not globally consistent (a visit counted
// mid-snapshot may show in one field and not another).
func (o *Observer) Stats() ObserverStats {
	return ObserverStats{
		Packets:           o.met.packets.Value(),
		Undecodable:       o.met.undecodable.Value(),
		TLSVisits:         o.met.tlsVisits.Value(),
		QUICVisits:        o.met.quicVisits.Value(),
		DNSVisits:         o.met.dnsVisits.Value(),
		IPFallbacks:       o.met.ipFallbacks.Value(),
		ResolvedFallbacks: o.met.resolvedFallbacks.Value(),
		DNSMappings:       o.met.dnsMappings.Value(),
		FlowsTracked:      o.met.flowsTracked.Value(),
		FlowsEvicted:      o.met.flowsEvicted.Value(),
	}
}

// portIn reports whether p is in ports.
func portIn(p uint16, ports []uint16) bool {
	for _, q := range ports {
		if p == q {
			return true
		}
	}
	return false
}

// ProcessPacket inspects one captured Ethernet frame taken at time ts
// (seconds). When the packet completes a hostname observation, the
// corresponding visit is returned with ok = true.
func (o *Observer) ProcessPacket(data []byte, ts int64) (v trace.Visit, ok bool) {
	o.met.packets.Inc()
	if err := DecodePacket(data, &o.pkt); err != nil {
		o.met.undecodable.Inc()
		return trace.Visit{}, false
	}
	p := &o.pkt
	switch p.Transport {
	case ProtoUDP:
		switch {
		case portIn(p.UDP.SrcPort, o.cfg.DNSPorts):
			// Resolver → client: learn address→hostname mappings from
			// A/AAAA answers for later ECH resolution.
			o.learnDNSResponse(p.Payload)
			return trace.Visit{}, false
		case portIn(p.UDP.DstPort, o.cfg.DNSPorts):
			host, err := ParseDNSQueryName(p.Payload)
			if err != nil {
				return trace.Visit{}, false
			}
			o.met.dnsVisits.Inc()
			return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
		case portIn(p.UDP.DstPort, o.cfg.QUICPorts):
			host, err := o.quic.sni(p.Payload)
			if err != nil {
				return trace.Visit{}, false
			}
			o.met.quicVisits.Inc()
			return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
		}
	case ProtoTCP:
		if !portIn(p.TCP.DstPort, o.cfg.TLSPorts) {
			return trace.Visit{}, false // only client→server direction
		}
		return o.processTCP(ts)
	}
	return trace.Visit{}, false
}

// processTCP handles client→server TCP segments, buffering stream bytes
// until a ClientHello SNI parses.
func (o *Observer) processTCP(ts int64) (trace.Visit, bool) {
	p := &o.pkt
	key := FlowKey{
		Src: p.SrcAddr(), Dst: p.DstAddr(),
		SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort,
		Proto: ProtoTCP,
	}
	st := o.flows[key]
	if st == nil {
		st = &flowState{lastSeen: ts}
		o.flows[key] = st
		o.met.flowsTracked.Inc()
		o.maybeEvict(ts)
		o.met.flowsActive.Set(float64(len(o.flows)))
	}
	st.lastSeen = ts
	if st.done {
		return trace.Visit{}, false
	}
	if p.TCP.Flags&TCPFlagSYN != 0 {
		st.asm.SYN(p.TCP.Seq)
	}
	if len(p.Payload) == 0 {
		return trace.Visit{}, false
	}
	// A hello usually arrives whole in the stream's first segment: parse
	// it where it lies, and buffer only if more of it is still to come.
	// Otherwise reassemble by sequence number: reordered, duplicated or
	// overlapping segments are spliced back into the in-order prefix.
	stream := p.Payload
	inPlace := len(stream) <= assemblerLimit && st.asm.startsStream(p.TCP.Seq)
	if !inPlace {
		if !st.asm.Add(p.TCP.Seq, p.Payload) {
			st.done = true
			st.asm.Release()
			return trace.Visit{}, false
		}
		stream = st.asm.Bytes()
	}
	host, err := ParseSNI(stream)
	if errors.Is(err, ErrNeedMore) {
		if inPlace {
			st.asm.Add(p.TCP.Seq, p.Payload)
		}
		return trace.Visit{}, false
	}
	return o.finishFlow(st, ts, host, err)
}

// finishFlow stops buffering a flow whose stream prefix has been decided
// — a hostname, a hello without one, or not a hello at all — and returns
// the visit it yields, if any.
func (o *Observer) finishFlow(st *flowState, ts int64, host string, err error) (trace.Visit, bool) {
	p := &o.pkt
	st.done = true
	st.asm.Release()
	switch {
	case err == nil:
		o.met.tlsVisits.Inc()
		return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: host}, true
	case errors.Is(err, ErrNoSNI) && o.cfg.IPFallback:
		// ECH or SNI-less hello: fall back to the destination
		// address, or a hostname learned from DNS responses.
		o.met.ipFallbacks.Inc()
		return trace.Visit{User: o.cfg.UserOf(p.SrcAddr()), Time: ts, Host: o.hostForAddr(p.DstAddr())}, true
	}
	return trace.Visit{}, false
}

// hostForAddr resolves a destination address to a hostname learned from
// observed DNS responses, falling back to the raw IP token.
func (o *Observer) hostForAddr(addr [16]byte) string {
	if h, ok := o.ipToHost[addr]; ok {
		o.met.resolvedFallbacks.Inc()
		return h
	}
	return IPToken(addr)
}

// IPToken renders an address (in Packet encoding) as the pseudo-hostname
// used when no SNI is readable.
func IPToken(a [16]byte) string {
	if a[15] == 4 {
		return fmt.Sprintf("ip-%d.%d.%d.%d", a[0], a[1], a[2], a[3])
	}
	return fmt.Sprintf("ip6-%x", a)
}

// learnDNSResponse records the answer addresses of a DNS response.
func (o *Observer) learnDNSResponse(datagram []byte) {
	host, addrs, err := ParseDNSResponse(datagram)
	if err != nil {
		return
	}
	for _, a := range addrs {
		o.ipToHost[a] = host
		o.met.dnsMappings.Inc()
	}
}

// maybeEvict drops flows idle longer than the timeout, sweeping on every
// 1 024th flow creation. The map is not bounded by the number of
// concurrent flows: between sweeps it holds every flow opened, idle or
// not.
func (o *Observer) maybeEvict(now int64) {
	if len(o.flows)%1024 != 0 {
		return
	}
	for k, st := range o.flows {
		if now-st.lastSeen > o.cfg.FlowTimeout {
			delete(o.flows, k)
			o.met.flowsEvicted.Inc()
		}
	}
}

// ObserveAll runs every (packet, timestamp) pair through the observer and
// collects the extracted visits into a trace.
func (o *Observer) ObserveAll(packets [][]byte, times []int64) *trace.Trace {
	tr := trace.New(nil)
	for i, pkt := range packets {
		var ts int64
		if i < len(times) {
			ts = times[i]
		}
		if v, ok := o.ProcessPacket(pkt, ts); ok {
			tr.Append(v)
		}
	}
	return tr
}
