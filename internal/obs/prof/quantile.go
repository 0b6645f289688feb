// Package prof is the repo's third observability pillar, after metrics
// (internal/obs) and traces (internal/obs/tracer): latency SLOs, the
// slow-request log and the statusz page, dependency-free like its
// siblings. (CPU, heap, mutex and block profiles are served by
// net/http/pprof under `-pprof`; this package captures none.)
//
//   - Per-endpoint SLOs (latency target + objective) read the request
//     latency histogram over a sliding window and export their burn
//     rates and quantile estimates as hostprof_slo_* gauges.
//   - A SlowLog retains the most recent slow requests, each with its
//     trace ID, for /debug/statusz.
//   - A Statusz page aggregates build info, SLO state and whatever
//     sections the server registers into one operational view at
//     /debug/statusz.
//
// Cost contract (mirrors obs and tracer): every method is safe on a
// nil receiver, so instrumentation is wired unconditionally and a
// disabled SLO or slow log is a nil check — no allocation on the
// request path.
package prof

import "math"

// EstimateQuantile computes the q-quantile (q in [0,1]) from
// non-cumulative bucket counts over the given upper bounds (the final
// count is the +Inf bucket), interpolating linearly within the winning
// bucket — the trade-off Prometheus histogram_quantile makes. The +Inf
// bucket reports its lower bound, the largest finite upper bound. It
// returns NaN when total is zero or q is out of range. This is the
// merge primitive: quantiles over any union of windows or endpoints
// come from adding count vectors, never from averaging quantiles.
func EstimateQuantile(upper []float64, counts []int64, total int64, q float64) float64 {
	if total <= 0 || q < 0 || q > 1 || len(counts) != len(upper)+1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			if i == len(upper) {
				// +Inf bucket: no finite upper bound to interpolate
				// toward; report its lower edge.
				return lo
			}
			hi := upper[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	// rank == total with rounding; the last non-empty bucket wins.
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			if i == len(upper) {
				return upper[len(upper)-1]
			}
			return upper[i]
		}
	}
	return math.NaN()
}
