package obs

import "time"

// A Span measures the wall-clock duration of one operation and records
// it, in seconds, into a Histogram when ended. The zero Span and spans
// over nil histograms are valid no-ops, so callers can time
// unconditionally.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing an operation whose duration will be observed
// into h.
func StartSpan(h *Histogram) Span {
	return Span{h: h, start: time.Now()}
}

// End stops the span, records its duration into the histogram and
// returns the elapsed time. End may be called at most once per span;
// calling it on the zero Span is a no-op returning 0.
func (s Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d.Seconds())
	return d
}
