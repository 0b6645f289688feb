package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
)

// federator caches per-shard /varz scrapes behind a short TTL so the
// gateway can serve a whole-cluster metrics view on demand without
// hammering the shards: one scrape fan-out amortizes over every
// /v1/cluster/metrics read inside the TTL. Nothing here runs unless
// that endpoint is read, so a gateway nobody asks pays zero.
type federator struct {
	ttl time.Duration // the health-probe interval; <= 0 re-scrapes on every read

	// refresh serializes fan-outs; mu guards the cache fields and is
	// never held across I/O.
	refresh sync.Mutex
	mu      sync.Mutex
	last    time.Time
	scrapes map[string]*shardScrape
}

// fresh returns the cached scrape set while it is inside the TTL or
// was fetched after since, nil otherwise.
func (f *federator) fresh(since time.Time) map[string]*shardScrape {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.scrapes != nil && (time.Since(f.last) < f.ttl || f.last.After(since)) {
		return f.scrapes
	}
	return nil
}

// shardScrape is the newest (or last good) view of one shard's /varz.
type shardScrape struct {
	at    time.Time // when snaps was fetched successfully
	err   string    // last scrape error, "" when the last scrape worked
	snaps []obs.MetricSnapshot
}

// ShardScrapeStatus is one shard's entry in the /v1/cluster/metrics
// body: ok (fresh), stale (scrape failing, last good snapshot served)
// or missing (never scraped successfully — no data from this shard).
type ShardScrapeStatus struct {
	Backend    string  `json:"backend"`
	Status     string  `json:"status"`
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	Series     int     `json:"series,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// ClusterMetrics is the GET /v1/cluster/metrics body: the per-shard
// scrape ledger plus the merged series. Partial scrapes degrade the
// shard entry, never the endpoint.
type ClusterMetrics struct {
	Shards  []ShardScrapeStatus  `json:"shards"`
	Metrics []obs.MetricSnapshot `json:"metrics"`
}

// federate returns the per-shard scrape set, refreshing it when the
// cache is older than the TTL. A shard that fails to answer keeps its
// previous snapshot (stale) rather than disappearing; a shard that
// never answered is reported missing. Refreshes are serialized: a
// reader that arrives while another refreshes waits for it and reuses
// its result, whatever the TTL (even <= 0, where nothing is cached
// across reads).
func (g *Gateway) federate(ctx context.Context) map[string]*shardScrape {
	f := g.fed
	arrived := time.Now()
	if out := f.fresh(arrived); out != nil {
		return out
	}
	f.refresh.Lock()
	defer f.refresh.Unlock()
	if out := f.fresh(arrived); out != nil {
		return out
	}

	g.mu.Lock()
	backends := append([]string(nil), g.backends...)
	g.mu.Unlock()

	type result struct {
		name  string
		snaps []obs.MetricSnapshot
		err   error
	}
	results := make(chan result, len(backends))
	var wg sync.WaitGroup
	for _, b := range backends {
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			snaps, err := g.scrapeVarz(ctx, b)
			results <- result{name: b, snaps: snaps, err: err}
		}(b)
	}
	wg.Wait()
	close(results)

	f.mu.Lock()
	defer f.mu.Unlock()
	next := make(map[string]*shardScrape, len(backends))
	for r := range results {
		prev := f.scrapes[r.name]
		if r.err == nil {
			next[r.name] = &shardScrape{at: time.Now(), snaps: r.snaps}
		} else if prev != nil && prev.snaps != nil {
			next[r.name] = &shardScrape{at: prev.at, err: r.err.Error(), snaps: prev.snaps}
		} else {
			next[r.name] = &shardScrape{err: r.err.Error()}
		}
	}
	f.scrapes = next
	f.last = time.Now()
	return next
}

// scrapeVarz fetches one shard's /varz snapshot.
func (g *Gateway) scrapeVarz(ctx context.Context, backend string) ([]obs.MetricSnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/varz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snaps []obs.MetricSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&snaps); err != nil {
		return nil, err
	}
	return snaps, nil
}

// seriesKey is a series' identity: family name plus the sorted label
// pairs, one string so map lookups are one hash.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte('\x00')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// mergeScrapes folds every shard's snapshot into one cluster view:
//
//   - counters with the same (name, labels) sum across shards;
//   - gauges stay per-shard, distinguished by an added shard label
//     (summing a shard-local level like heap bytes would lie);
//   - histograms with the same identity merge by bucket bound: counts
//     add per LE (bounds are unioned when shards disagree), sum and
//     count add, exemplars are dropped (they are per-shard evidence).
//
// Output is sorted by (name, shard label, label signature), so the
// body is deterministic given the same scrape set.
func mergeScrapes(scrapes map[string]*shardScrape) []obs.MetricSnapshot {
	type histAcc struct {
		buckets map[float64]int64
		count   int64
		sum     float64
	}
	counters := make(map[string]*obs.MetricSnapshot)
	hists := make(map[string]*histAcc)
	histProto := make(map[string]obs.MetricSnapshot)
	var gauges []obs.MetricSnapshot

	names := make([]string, 0, len(scrapes))
	for name := range scrapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, shard := range names {
		sc := scrapes[shard]
		if sc == nil || sc.snaps == nil {
			continue
		}
		for _, s := range sc.snaps {
			key := seriesKey(s.Name, s.Labels)
			switch s.Kind {
			case "counter":
				if have, ok := counters[key]; ok {
					have.Value += s.Value
				} else {
					cp := s
					cp.Labels = copyLabels(s.Labels)
					counters[key] = &cp
				}
			case "histogram":
				acc, ok := hists[key]
				if !ok {
					acc = &histAcc{buckets: make(map[float64]int64)}
					hists[key] = acc
					proto := s
					proto.Labels = copyLabels(s.Labels)
					proto.Buckets = nil
					histProto[key] = proto
				}
				// Snapshot buckets are cumulative; de-accumulate per
				// bound so bounds union correctly, re-accumulate below.
				var prev int64
				for _, b := range s.Buckets {
					acc.buckets[b.LE] += b.Count - prev
					prev = b.Count
				}
				acc.count += s.Count
				acc.sum += s.Sum
			default: // gauge
				cp := s
				cp.Labels = copyLabels(s.Labels)
				if cp.Labels == nil {
					cp.Labels = make(map[string]string, 1)
				}
				cp.Labels["shard"] = shard
				gauges = append(gauges, cp)
			}
		}
	}

	out := make([]obs.MetricSnapshot, 0, len(counters)+len(hists)+len(gauges))
	for _, c := range counters {
		out = append(out, *c)
	}
	for key, acc := range hists {
		s := histProto[key]
		bounds := make([]float64, 0, len(acc.buckets))
		for le := range acc.buckets {
			bounds = append(bounds, le)
		}
		sort.Float64s(bounds)
		var cum int64
		s.Buckets = make([]obs.BucketSnapshot, len(bounds))
		for i, le := range bounds {
			cum += acc.buckets[le]
			s.Buckets[i] = obs.BucketSnapshot{LE: le, Count: cum}
		}
		s.Count = acc.count
		s.Sum = acc.sum
		out = append(out, s)
	}
	out = append(out, gauges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if si, sj := out[i].Labels["shard"], out[j].Labels["shard"]; si != sj {
			return si < sj
		}
		return seriesKey("", out[i].Labels) < seriesKey("", out[j].Labels)
	})
	return out
}

func copyLabels(in map[string]string) map[string]string {
	if in == nil {
		return nil
	}
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// scrapeStatuses renders the per-shard ledger, sorted by backend.
func scrapeStatuses(scrapes map[string]*shardScrape) []ShardScrapeStatus {
	out := make([]ShardScrapeStatus, 0, len(scrapes))
	for name, sc := range scrapes {
		st := ShardScrapeStatus{Backend: name, Error: sc.err}
		switch {
		case sc.snaps == nil:
			st.Status = "missing"
		case sc.err != "":
			st.Status = "stale"
		default:
			st.Status = "ok"
		}
		if sc.snaps != nil {
			st.AgeSeconds = time.Since(sc.at).Seconds()
			st.Series = len(sc.snaps)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// handleClusterMetrics serves GET /v1/cluster/metrics: the merged
// cluster view. The endpoint never fails on partial scrapes — a shard
// that does not answer degrades to stale or missing in the ledger and
// the merge covers whoever did answer.
func (g *Gateway) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := g.federate(r.Context())
	httpmw.WriteJSON(w, http.StatusOK, ClusterMetrics{
		Shards:  scrapeStatuses(scrapes),
		Metrics: mergeScrapes(scrapes),
	})
}
