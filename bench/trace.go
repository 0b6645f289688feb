package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of a traced request. Spans of one request
// share Seq; Parent indexes the request's span list (-1 for its root)
// and is found by containment once the run is over.
type Span struct {
	Seq    int    `json:"seq"`
	Name   string `json:"name"`  // layer.endpoint, e.g. "gateway.report"
	Route  string `json:"route"` // which stream issued the request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	SelfNS int64  `json:"self_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// SpanRecorder collects spans in memory. The traced run keeps one
// request in flight, so the request's sequence number and route are
// process-wide state that the handler wrappers read.
type SpanRecorder struct {
	t0      time.Time
	enabled atomic.Bool
	seq     atomic.Int64
	route   atomic.Value // string

	mu    sync.Mutex
	spans []Span
}

func newSpanRecorder() *SpanRecorder {
	r := &SpanRecorder{t0: time.Now()}
	r.route.Store("")
	return r
}

// begin opens the next request on a route; the spans recorded until
// the next begin belong to it.
func (r *SpanRecorder) begin(route string) {
	r.route.Store(route)
	r.seq.Add(1)
}

// record times fn as a span of the current request.
func (r *SpanRecorder) record(name string, fn func()) {
	if !r.enabled.Load() {
		fn()
		return
	}
	// Read the request's identity before the call: a handler can return
	// after the client has moved on to the next request.
	sp := Span{Seq: int(r.seq.Load()), Name: name, Route: r.route.Load().(string), Parent: -1}
	sp.Start = int64(time.Since(r.t0))
	fn()
	sp.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// wrap mounts h behind a span-recording wrapper: the harness's view of
// a layer boundary, taken from outside the program's own code. Only the
// two serving endpoints are spanned; control traffic passes through.
func (r *SpanRecorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var endpoint string
		switch req.URL.Path {
		case "/v1/report":
			endpoint = "report"
		case "/v1/profile/batch":
			endpoint = "batch"
		default:
			h.ServeHTTP(w, req)
			return
		}
		r.record(layer+"."+endpoint, func() { h.ServeHTTP(w, req) })
	})
}

// Requests groups the recorded spans by request, resolves parents and
// computes self times.
func (r *SpanRecorder) Requests() [][]Span {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	var out [][]Span
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Seq == spans[lo].Seq {
			hi++
		}
		req := spans[lo:hi]
		resolveSpans(req)
		out = append(out, req)
		lo = hi
	}
	return out
}

// layerDepth orders the layers a request crosses, outermost first.
func layerDepth(name string) int {
	switch {
	case strings.HasPrefix(name, "client."):
		return 0
	case strings.HasPrefix(name, "gateway."):
		return 1
	}
	return 2
}

// resolveSpans fills Parent and SelfNS for the spans of one request and
// orders them outermost first. A span's parent is the deepest span of
// an outer layer that was open when it started: containment of the
// start, not of the whole interval, because a handler returns a few
// microseconds after its caller has read the complete answer. Two shard
// chunks of one batch overlap each other but are siblings, which is why
// a parent must belong to an outer layer. For self time every span is
// clipped to its ancestors: what a handler does after the answer is out
// is on nobody's critical path.
func resolveSpans(req []Span) {
	sort.SliceStable(req, func(i, j int) bool {
		if di, dj := layerDepth(req[i].Name), layerDepth(req[j].Name); di != dj {
			return di < dj
		}
		return req[i].Start < req[j].Start
	})
	for i := range req {
		req[i].Parent = -1
		for j := i - 1; j >= 0; j-- {
			if layerDepth(req[j].Name) < layerDepth(req[i].Name) && req[j].Start <= req[i].Start && req[i].Start <= req[j].End {
				req[i].Parent = j
				break
			}
		}
	}
	ends := clipEnds(req)
	for i := range req {
		req[i].SelfNS = ends[i] - req[i].Start - unionLength(childIntervals(req, ends, i))
	}
}

// clipEnds returns each span's end clipped to its ancestors' ends. req
// is ordered outermost first, so a parent is clipped before its
// children.
func clipEnds(req []Span) []int64 {
	ends := make([]int64, len(req))
	for i, sp := range req {
		ends[i] = sp.End
		if sp.Parent >= 0 {
			ends[i] = min(sp.End, ends[sp.Parent])
		}
	}
	return ends
}

// childIntervals returns the clipped intervals of span i's children.
func childIntervals(req []Span, ends []int64, i int) [][2]int64 {
	var kids [][2]int64
	for k, sp := range req {
		if sp.Parent == i {
			kids = append(kids, [2]int64{sp.Start, ends[k]})
		}
	}
	return kids
}

// unionLength is the total length covered by intervals, overlaps
// counted once: two shard chunks served in parallel hide only the
// longer one's time from the gateway's self time.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] > end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// budgetCheck verifies that the per-layer budget of every traced
// request adds up. A request passes when it has exactly one root (the
// client span) and its self times sum to that root. Children served in
// parallel (two shard chunks of one batch) overlap in time; the time
// they overlap is counted once in their parent's budget and twice in
// the sum of self times, so it is subtracted before comparing.
func budgetCheck(reqs [][]Span) (badRoots int, worstGapNS int64, parallel int) {
	for _, req := range reqs {
		ends := clipEnds(req)
		var sum, root, excess int64
		roots := 0
		for i, sp := range req {
			sum += sp.SelfNS
			if sp.Parent == -1 {
				root += sp.dur()
				roots++
			}
			kids := childIntervals(req, ends, i)
			var kidsDur int64
			for _, k := range kids {
				kidsDur += k[1] - k[0]
			}
			excess += kidsDur - unionLength(kids)
		}
		if roots != 1 || !strings.HasPrefix(req[0].Name, "client.") {
			badRoots++
		}
		if excess > 0 {
			parallel++
		}
		if gap := abs64(sum - excess - root); gap > worstGapNS {
			worstGapNS = gap
		}
	}
	return badRoots, worstGapNS, parallel
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// spanStat is the mean duration and self time of the spans of a layer
// (name prefix, e.g. "client." or "shard.report") on a route.
type spanStat struct {
	N              int
	MeanUS, SelfUS float64
}

func statOf(reqs [][]Span, name, route string) spanStat {
	var st spanStat
	var dur, self int64
	for _, req := range reqs {
		for _, sp := range req {
			if sp.Route == route && strings.HasPrefix(sp.Name, name) {
				st.N++
				dur += sp.dur()
				self += sp.SelfNS
			}
		}
	}
	if st.N > 0 {
		st.MeanUS = float64(dur) / float64(st.N) / 1e3
		st.SelfUS = float64(self) / float64(st.N) / 1e3
	}
	return st
}

// writeSpans dumps every span, resolved, to path.
func writeSpans(path string, reqs [][]Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, req := range reqs {
		if err := enc.Encode(req); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
