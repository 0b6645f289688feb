package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, one
// # HELP / # TYPE header per family, histogram buckets cumulative with
// a trailing +Inf. Callback gauges are evaluated without the registry
// lock held.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in OpenMetrics-flavoured text:
// the same families as WritePrometheus plus per-bucket trace-ID
// exemplars (`# {trace_id="..."} value ts`) and a terminating # EOF.
// Scrapers that negotiate application/openmetrics-text get this format
// from MetricsHandler.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	ms, help := r.collect()
	bw := bufio.NewWriter(w)
	prev := ""
	for _, m := range ms {
		if m.name != prev {
			prev = m.name
			if h := help[m.name]; h != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(m.name)
				bw.WriteByte(' ')
				bw.WriteString(escapeHelp(h))
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(m.name)
			bw.WriteByte(' ')
			bw.WriteString(m.kind.String())
			bw.WriteByte('\n')
		}
		switch m.kind {
		case kindCounter:
			writeSample(bw, m.name, "", m.labels, "", formatInt(m.counter.Value()))
			bw.WriteByte('\n')
		case kindGauge:
			writeSample(bw, m.name, "", m.labels, "", formatFloat(m.gauge.Value()))
			bw.WriteByte('\n')
		case kindGaugeFunc:
			writeSample(bw, m.name, "", m.labels, "", formatFloat(m.fn()))
			bw.WriteByte('\n')
		case kindHistogram:
			h := m.hist
			var cum int64
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				writeSample(bw, m.name, "_bucket", m.labels, formatFloat(ub), formatInt(cum))
				if openMetrics {
					writeExemplar(bw, h.exemplar(i))
				}
				bw.WriteByte('\n')
			}
			// The +Inf bucket equals the total count by construction.
			writeSample(bw, m.name, "_bucket", m.labels, "+Inf", formatInt(h.Count()))
			if openMetrics {
				writeExemplar(bw, h.exemplar(len(h.upper)))
			}
			bw.WriteByte('\n')
			writeSample(bw, m.name, "_sum", m.labels, "", formatFloat(h.Sum()))
			bw.WriteByte('\n')
			writeSample(bw, m.name, "_count", m.labels, "", formatInt(h.Count()))
			bw.WriteByte('\n')
		}
	}
	if openMetrics {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// writeExemplar appends an OpenMetrics exemplar clause to the current
// bucket line: ` # {trace_id="..."} value timestamp`.
func writeExemplar(bw *bufio.Writer, e *Exemplar) {
	if e == nil {
		return
	}
	bw.WriteString(` # {trace_id="`)
	bw.WriteString(escapeLabel(e.TraceID))
	bw.WriteString(`"} `)
	bw.WriteString(formatFloat(e.Value))
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(float64(e.UnixNano) / 1e9))
}

// writeSample emits one exposition line: name+suffix{labels[,le=le]} value.
func writeSample(bw *bufio.Writer, name, suffix string, labels []Label, le, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes HELP text (backslash and newline only).
func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// BucketSnapshot is one cumulative histogram bucket in a snapshot. The
// implicit +Inf bucket is omitted; Count covers all observations.
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
	// Exemplar is the bucket's most recent trace-linked observation,
	// when one has been recorded.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// MetricSnapshot is one metric series in a point-in-time snapshot.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value float64 `json:"value"`
	// Count, Sum and Buckets are set for histograms.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric with its current value, in
// the same deterministic order as WritePrometheus. Callback gauges are
// evaluated without the registry lock held.
func (r *Registry) Snapshot() []MetricSnapshot {
	ms, _ := r.collect()
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Name] = l.Value
			}
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.counter.Value())
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindGaugeFunc:
			s.Value = m.fn()
		case kindHistogram:
			h := m.hist
			s.Count = h.Count()
			s.Sum = h.Sum()
			s.Buckets = make([]BucketSnapshot, len(h.upper))
			var cum int64
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				s.Buckets[i] = BucketSnapshot{LE: ub, Count: cum, Exemplar: h.exemplar(i)}
			}
		}
		out = append(out, s)
	}
	return out
}
