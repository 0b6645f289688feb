package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"hostprof/internal/core"
	"hostprof/internal/ontology"
	"hostprof/internal/server"
	"hostprof/internal/store"
)

// reportCalls encodes reports as load-generator calls. Every answer is
// checked: HTTP 200, at most 20 ads, each an ad of the inventory built
// from the same ontology. firstAd[i] receives the ID of report i's best
// ad (-1 when the backend could not profile the session), for the
// topic check.
func reportCalls(w *World, reports []Report) (calls []Call, firstAd []int, err error) {
	calls = make([]Call, len(reports))
	firstAd = make([]int, len(reports))
	for i, r := range reports {
		body, err := json.Marshal(server.ReportRequest{User: r.User, Time: r.Time, Hosts: r.Hosts})
		if err != nil {
			return nil, nil, err
		}
		firstAd[i] = -1
		calls[i] = Call{Body: body, Check: func(status int, body []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
			}
			var resp server.ReportResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return fmt.Errorf("decoding report answer: %w", err)
			}
			if len(resp.Ads) > 20 {
				return fmt.Errorf("%d ads in one answer, limit 20", len(resp.Ads))
			}
			for _, ad := range resp.Ads {
				if ad.ID < 0 || ad.ID >= w.AdDB.Len() || w.AdDB.Ad(ad.ID).LandingHost != ad.Landing {
					return fmt.Errorf("ad %d (%s) is not in the inventory", ad.ID, ad.Landing)
				}
			}
			if len(resp.Ads) > 0 {
				firstAd[i] = resp.Ads[0].ID
			}
			return nil
		}}
	}
	return calls, firstAd, nil
}

// batchCalls encodes sessions as /v1/profile/batch calls of size
// sessions each. answers[i] receives call i's decoded profiles.
func batchCalls(sessions []BatchSession, size int) (calls []Call, answers [][]server.ProfileResult, err error) {
	n := len(sessions) / size
	calls = make([]Call, n)
	answers = make([][]server.ProfileResult, n)
	for i := 0; i < n; i++ {
		req := server.ProfileBatchRequest{Sessions: make([][]string, size)}
		for j, s := range sessions[i*size : (i+1)*size] {
			req.Sessions[j] = s.Hosts
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		calls[i] = Call{Body: body, Check: func(status int, body []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
			}
			var resp server.ProfileBatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return fmt.Errorf("decoding batch answer: %w", err)
			}
			if len(resp.Profiles) != size {
				return fmt.Errorf("%d profiles for %d sessions", len(resp.Profiles), size)
			}
			answers[i] = resp.Profiles
			return nil
		}}
	}
	return calls, answers, nil
}

// topTopic returns the heaviest top-level topic of a category vector
// (lowest index on ties), or -1 for an all-zero vector.
func topTopic(tax *ontology.Taxonomy, v ontology.Vector) int {
	best, at := 0.0, -1
	for ti, x := range v.TopLevel(tax) {
		if x > best {
			best, at = x, ti
		}
	}
	return at
}

// wireVector rebuilds the category vector of a wire profile.
func wireVector(tax *ontology.Taxonomy, cats map[string]float64) (ontology.Vector, error) {
	v := tax.NewVector()
	for name, x := range cats {
		id, ok := tax.IDByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown category %q", name)
		}
		v[id] = x
	}
	return v, nil
}

func (w *World) interested(user, topic int) bool {
	if topic < 0 {
		return false
	}
	return w.Pop.Users[user].Interests[topic] > 0
}

// reportTopicHits scores the report path against ground truth: of the
// reports answered with at least one ad, the share whose best ad's
// heaviest topic is one the reporting user is interested in.
func reportTopicHits(w *World, reports []Report, firstAd []int) (hits, scored int) {
	tax := w.Ontology.Taxonomy()
	for i, id := range firstAd {
		if id < 0 {
			continue
		}
		scored++
		if w.interested(reports[i].User, topTopic(tax, w.AdDB.Ad(id).Categories)) {
			hits++
		}
	}
	return hits, scored
}

// batchTopicHits does the same for batch answers: of the sessions that
// profiled, the share whose profile's heaviest topic is an interest of
// the user whose browsing produced the session.
func batchTopicHits(w *World, sessions []BatchSession, answers [][]server.ProfileResult, size int) (hits, scored int, err error) {
	tax := w.Ontology.Taxonomy()
	for i, profs := range answers {
		for j, p := range profs {
			if p.Error != "" {
				continue
			}
			v, err := wireVector(tax, p.Categories)
			if err != nil {
				return 0, 0, err
			}
			scored++
			if w.interested(sessions[i*size+j].User, topTopic(tax, v)) {
				hits++
			}
		}
	}
	return hits, scored, nil
}

// fetchModel GETs a shard's model artifact; its version is its content
// address.
func fetchModel(ctx context.Context, p *Proc) (data []byte, version string, err error) {
	code, data, err := httpDo(ctx, http.MethodGet, p.URL+"/v1/model", nil)
	if err != nil {
		return nil, "", err
	}
	if code != http.StatusOK {
		return nil, "", fmt.Errorf("GET /v1/model: HTTP %d", code)
	}
	return data, store.ArtifactVersion(data), nil
}

// referenceProfiler builds the harness's own profiler from a fetched
// artifact, configured as `hostprof serve` configures its own (-n 40,
// IDF aggregation).
func referenceProfiler(w *World, artifact []byte, ann bool) (*core.Profiler, error) {
	m, err := core.Load(bytes.NewReader(artifact))
	if err != nil {
		return nil, fmt.Errorf("loading fetched model: %w", err)
	}
	return core.NewProfiler(m, w.Ontology, core.ProfilerConfig{N: 40, Agg: core.AggIDF, ANN: ann}), nil
}

// compareWithReference re-profiles up to limit answered sessions with
// the reference profiler. On the exact path every category weight must
// agree within 1e-6; on the ANN path (graph search may swap a
// neighbour) the heaviest topic must agree. It returns how many
// sessions were compared and a description of the first mismatch.
func compareWithReference(w *World, ref *core.Profiler, sessions []BatchSession, answers [][]server.ProfileResult, size, limit int, ann bool) (compared int, mismatch string) {
	tax := w.Ontology.Taxonomy()
	for i, profs := range answers {
		for j, p := range profs {
			if compared == limit {
				return compared, ""
			}
			compared++
			s := sessions[i*size+j]
			want, werr := ref.ProfileSession(s.Hosts)
			if (werr != nil) != (p.Error != "") {
				return compared, fmt.Sprintf("call %d session %d: server error %q, reference error %v", i, j, p.Error, werr)
			}
			if werr != nil {
				continue
			}
			got, err := wireVector(tax, p.Categories)
			if err != nil {
				return compared, err.Error()
			}
			if ann {
				if g, r := topTopic(tax, got), topTopic(tax, want); g != r {
					return compared, fmt.Sprintf("call %d session %d: top topic %d, reference %d", i, j, g, r)
				}
				continue
			}
			for id := range want {
				if math.Abs(got[id]-want[id]) > 1e-6 {
					return compared, fmt.Sprintf("call %d session %d: category %d is %g, reference %g", i, j, id, got[id], want[id])
				}
			}
		}
	}
	return compared, ""
}
