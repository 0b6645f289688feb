// Package prof is the repo's third observability pillar, after metrics
// (internal/obs) and traces (internal/obs/tracer): latency SLOs, the
// slow-request log and the statusz page, dependency-free like its
// siblings. (CPU, heap, mutex and block profiles are served by
// net/http/pprof under `-pprof`; this package captures none.)
//
//   - Windowed fixed-bucket quantile estimators feed per-endpoint SLOs
//     (latency target + objective) whose burn rates are exported as
//     hostprof_slo_* gauges.
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

import (
	"math"
	"sort"
	"sync"
	"time"
)

// A Windowed estimates latency quantiles over a sliding time window
// using fixed cumulative buckets — the same histogram model as
// internal/obs, time-sliced so old observations age out. The window is
// divided into slices; each observation lands in the slice of its
// arrival time, and a quantile query merges only the slices still
// inside the window. Resolution is bucket-bounded (quantiles are
// linearly interpolated within a bucket), which is exactly the
// trade-off Prometheus histogram_quantile makes, and window expiry is
// slice-granular.
//
// All methods are safe for concurrent use and on a nil receiver.
type Windowed struct {
	mu     sync.Mutex
	upper  []float64 // sorted bucket upper bounds; +Inf implicit
	counts [][]int64 // [slice][bucket]; bucket len(upper) is +Inf
	epochs []int64   // which epoch each slice currently holds; -1 empty
	step   int64     // slice width in nanoseconds
	now    func() int64
}

// NewWindowed builds an estimator covering roughly window, divided into
// slices time slices (the expiry granularity). Bucket bounds follow
// obs conventions: nil selects obs.DefBuckets-like latency bounds;
// duplicates and non-finite bounds are dropped. window must be
// positive; slices below 1 is coerced to 1.
func NewWindowed(window time.Duration, slices int, buckets []float64) *Windowed {
	if window <= 0 {
		window = time.Minute
	}
	if slices < 1 {
		slices = 1
	}
	if len(buckets) == 0 {
		buckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
	}
	upper := dedupBounds(buckets)
	w := &Windowed{
		upper:  upper,
		counts: make([][]int64, slices),
		epochs: make([]int64, slices),
		step:   int64(window) / int64(slices),
		now:    func() int64 { return time.Now().UnixNano() },
	}
	if w.step <= 0 {
		w.step = 1
	}
	for i := range w.counts {
		w.counts[i] = make([]int64, len(upper)+1)
		w.epochs[i] = -1
	}
	return w
}

// dedupBounds sorts bounds ascending, dropping duplicates and
// non-finite entries.
func dedupBounds(bounds []float64) []float64 {
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsInf(b, 0) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	n := 0
	for i, b := range out {
		if i == 0 || b != out[n-1] {
			out[n] = b
			n++
		}
	}
	return out[:n]
}

// setNow fixes the estimator's clock for tests.
func (w *Windowed) setNow(now func() int64) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// Observe records one sample (seconds, by the repo's latency
// convention, though any unit works as long as buckets match). Safe on
// a nil receiver.
func (w *Windowed) Observe(v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	epoch := w.now() / w.step
	idx := int(epoch % int64(len(w.counts)))
	if w.epochs[idx] != epoch {
		// The slice last held data from a full window ago; recycle it.
		c := w.counts[idx]
		for i := range c {
			c[i] = 0
		}
		w.epochs[idx] = epoch
	}
	i := sort.SearchFloat64s(w.upper, v)
	w.counts[idx][i]++
	w.mu.Unlock()
}

// Snapshot merges the live slices into one non-cumulative bucket-count
// vector (aligned with Buckets(); the final entry is the +Inf bucket)
// plus the total observation count. Safe on a nil receiver (returns
// nil, 0).
func (w *Windowed) Snapshot() ([]int64, int64) {
	if w == nil {
		return nil, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	epoch := w.now() / w.step
	oldest := epoch - int64(len(w.counts)) + 1
	merged := make([]int64, len(w.upper)+1)
	var total int64
	for s, e := range w.epochs {
		if e < oldest || e < 0 {
			continue
		}
		for i, c := range w.counts[s] {
			merged[i] += c
			total += c
		}
	}
	return merged, total
}

// Buckets returns the estimator's upper bounds (the +Inf bucket is
// implicit). The slice is shared; do not mutate. Safe on nil.
func (w *Windowed) Buckets() []float64 {
	if w == nil {
		return nil
	}
	return w.upper
}

// Count returns the number of observations inside the window. Safe on
// nil.
func (w *Windowed) Count() int64 {
	_, total := w.Snapshot()
	return total
}

// Quantile estimates the q-quantile (q in [0,1]) of the windowed
// distribution, interpolating linearly within the winning bucket. The
// +Inf bucket reports its lower bound (the largest finite upper
// bound). Returns NaN when the window is empty or q is out of range.
// Safe on a nil receiver.
func (w *Windowed) Quantile(q float64) float64 {
	counts, total := w.Snapshot()
	return EstimateQuantile(w.Buckets(), counts, total, q)
}

// CountAbove returns how many windowed observations exceeded bound.
// Exact when bound is one of the bucket bounds (the SLO tracker
// arranges this); otherwise the count is over the smallest covering
// bucket. Safe on nil.
func (w *Windowed) CountAbove(bound float64) (above, total int64) {
	counts, total := w.Snapshot()
	if w == nil || total == 0 {
		return 0, total
	}
	i := sort.SearchFloat64s(w.upper, bound)
	if i < len(w.upper) && w.upper[i] == bound {
		i++
	}
	for ; i < len(counts); i++ {
		above += counts[i]
	}
	return above, total
}

// EstimateQuantile computes the q-quantile from merged non-cumulative
// bucket counts (as produced by Windowed.Snapshot, possibly summed
// across several estimators) over the given upper bounds. This is the
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
