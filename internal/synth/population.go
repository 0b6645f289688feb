package synth

import (
	"hostprof/internal/stats"
	"hostprof/internal/trace"
)

// User is a synthetic participant with a ground-truth interest profile
// over top-level topics (sparse; sums to 1). The click model and the
// profile-quality metrics evaluate against this ground truth.
type User struct {
	ID        int
	Interests []float64 // length = taxonomy.NumTops()
}

// PopulationConfig sizes the user population and its browsing behaviour.
type PopulationConfig struct {
	// Users is the number of participants. Default 100.
	Users int
	// InterestsMin/Max bound the number of topics a user cares about.
	// Defaults 2..5.
	InterestsMin, InterestsMax int
	// Days of observation. Default 7.
	Days int
	// SessionsPerDay is the Poisson mean of browsing sessions per user
	// per day. Default 3.
	SessionsPerDay float64
	// PagesMin/Max bound the number of pages per session. Defaults 4..16.
	PagesMin, PagesMax int
	// PopularBias is the probability a page visit targets a globally
	// popular site regardless of the session topic; this creates the
	// hostname "cores" of Figure 2. Default 0.35.
	PopularBias float64
	// TrackersPerPage is the Poisson mean of tracker requests fired per
	// page. Default 1.5 (≈8% of connections, paper Section 5.4).
	TrackersPerPage float64
	// LateJoinFrac is the fraction of users who install mid-study and
	// only start browsing from a uniformly random later day — the paper
	// saw installs continue after recruitment closed (1000 → 1329,
	// Section 5.2). Default 0 (everyone present from day 0).
	LateJoinFrac float64
	// Seed drives all behaviour randomness.
	Seed uint64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Users <= 0 {
		c.Users = 100
	}
	if c.InterestsMin <= 0 {
		c.InterestsMin = 2
	}
	if c.InterestsMax < c.InterestsMin {
		c.InterestsMax = c.InterestsMin + 3
	}
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.SessionsPerDay <= 0 {
		c.SessionsPerDay = 3
	}
	if c.PagesMin <= 0 {
		c.PagesMin = 4
	}
	if c.PagesMax < c.PagesMin {
		c.PagesMax = c.PagesMin + 12
	}
	if c.PopularBias <= 0 {
		c.PopularBias = 0.35
	}
	if c.TrackersPerPage <= 0 {
		c.TrackersPerPage = 1.5
	}
	return c
}

// Population is a set of users bound to a universe, able to generate
// browsing traces.
type Population struct {
	Config   PopulationConfig
	Universe *Universe
	Users    []User

	// topicSites indexes sites by dominant topic, with per-topic
	// popularity samplers.
	topicSites    [][]int
	topicSamplers []*stats.Weighted
	globalSampler *stats.Weighted
	rng           *stats.RNG
}

// NewPopulation creates users with sparse Dirichlet interest profiles.
func NewPopulation(u *Universe, cfg PopulationConfig) *Population {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed ^ 0xa5a5a5a5)
	p := &Population{
		Config:   cfg,
		Universe: u,
		rng:      rng,
	}

	nTops := u.Tax.NumTops()
	// Index sites per topic.
	p.topicSites = make([][]int, nTops)
	for _, s := range u.Sites {
		p.topicSites[s.Top] = append(p.topicSites[s.Top], s.ID)
	}
	p.topicSamplers = make([]*stats.Weighted, nTops)
	for ti, sites := range p.topicSites {
		if len(sites) == 0 {
			continue
		}
		w := make([]float64, len(sites))
		for i, sid := range sites {
			w[i] = u.Popularity[sid]
		}
		p.topicSamplers[ti] = stats.NewWeighted(rng.Split(), w)
	}
	p.globalSampler = stats.NewWeighted(rng.Split(), u.Popularity)

	// Users: pick k topics (only topics that actually have sites),
	// Dirichlet weights among them.
	var populated []int
	for ti, sites := range p.topicSites {
		if len(sites) > 0 {
			populated = append(populated, ti)
		}
	}
	for id := 0; id < cfg.Users; id++ {
		k := cfg.InterestsMin + rng.Intn(cfg.InterestsMax-cfg.InterestsMin+1)
		if k > len(populated) {
			k = len(populated)
		}
		perm := rng.Perm(len(populated))
		interests := make([]float64, nTops)
		alpha := make([]float64, k)
		for i := range alpha {
			alpha[i] = 1
		}
		weights := make([]float64, k)
		rng.Dirichlet(alpha, weights)
		for i := 0; i < k; i++ {
			interests[populated[perm[i]]] = weights[i]
		}
		p.Users = append(p.Users, User{ID: id, Interests: interests})
	}
	return p
}

// Browse simulates the configured number of days of browsing for every
// user and returns the resulting trace of hostname requests.
func (p *Population) Browse() *trace.Trace {
	tr := trace.New(nil)
	for _, user := range p.Users {
		p.browseUser(user, tr)
	}
	return tr
}

// browseUser emits all visits of one user across the observation period.
func (p *Population) browseUser(user User, tr *trace.Trace) {
	cfg := p.Config
	interest := stats.NewWeighted(p.rng.Split(), softenInterests(user.Interests))
	firstDay := 0
	if cfg.LateJoinFrac > 0 && p.rng.Float64() < cfg.LateJoinFrac && cfg.Days > 1 {
		firstDay = 1 + p.rng.Intn(cfg.Days-1)
	}
	for day := firstDay; day < cfg.Days; day++ {
		sessions := p.rng.Poisson(cfg.SessionsPerDay)
		for s := 0; s < sessions; s++ {
			// Session start between 07:00 and 23:00.
			start := int64(day)*86400 + 7*3600 + int64(p.rng.Intn(16*3600))
			p.browseSession(user, interest, start, tr)
		}
	}
}

// softenInterests mixes a little uniform mass over the user's own topics
// so the Weighted sampler never sees an all-zero vector.
func softenInterests(in []float64) []float64 {
	out := make([]float64, len(in))
	any := false
	for i, w := range in {
		out[i] = w
		if w > 0 {
			any = true
		}
	}
	if !any {
		for i := range out {
			out[i] = 1
		}
	}
	return out
}

// browseSession emits the page visits of one topic-coherent session.
func (p *Population) browseSession(user User, interest *stats.Weighted, start int64, tr *trace.Trace) {
	cfg := p.Config
	topic := interest.Draw()
	pages := cfg.PagesMin + p.rng.Intn(cfg.PagesMax-cfg.PagesMin+1)
	now := start
	for pg := 0; pg < pages; pg++ {
		var siteID int
		if p.rng.Bool(cfg.PopularBias) || p.topicSamplers[topic] == nil {
			siteID = p.globalSampler.Draw()
		} else {
			siteID = p.topicSites[topic][p.topicSamplers[topic].Draw()]
		}
		p.visitPage(user.ID, siteID, now, tr)
		// Dwell time between pages: 20–140 s.
		now += 20 + int64(p.rng.Intn(121))
	}
}

// visitPage emits the primary host plus the automatic sub-requests a real
// page load produces: per-site support hosts, shared CDN nodes and
// trackers, all within ~2 s of the page request. This is exactly the
// co-request structure SKIPGRAM exploits to label API/CDN hostnames.
func (p *Population) visitPage(userID, siteID int, at int64, tr *trace.Trace) {
	u := p.Universe
	site := &u.Sites[siteID]
	tr.Append(trace.Visit{User: userID, Time: at, Host: u.Hosts[site.Host].Name})
	t := at
	for _, hid := range site.Support {
		if p.rng.Bool(0.8) { // most, not all, support hosts fire each load
			t++
			tr.Append(trace.Visit{User: userID, Time: t, Host: u.Hosts[hid].Name})
		}
	}
	for _, hid := range site.SharedCDN {
		if p.rng.Bool(0.7) {
			t++
			tr.Append(trace.Visit{User: userID, Time: t, Host: u.Hosts[hid].Name})
		}
	}
	nTrack := p.rng.Poisson(p.Config.TrackersPerPage)
	for k := 0; k < nTrack; k++ {
		hid := u.TrackerIDs[p.rng.Intn(len(u.TrackerIDs))]
		t++
		tr.Append(trace.Visit{User: userID, Time: t, Host: u.Hosts[hid].Name})
	}
}

// AffinityTo returns the ground-truth affinity of user u to a top-level
// topic distribution (e.g. of an ad): the inner product of the user's
// interest vector with the distribution. Used by the click model.
func (u User) AffinityTo(topicWeights []float64) float64 {
	var s float64
	for ti, w := range topicWeights {
		if ti < len(u.Interests) {
			s += u.Interests[ti] * w
		}
	}
	return s
}
