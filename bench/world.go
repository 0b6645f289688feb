package main

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"hostprof/internal/ads"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
	"hostprof/internal/synth"
	"hostprof/internal/trace"
)

// WorldConfig sizes the synthetic world every workload shares. The
// values are recorded in README.md; -quick shrinks them for the smoke
// test only.
type WorldConfig struct {
	Sites, Trackers int
	Users           int
	// SeedDays of browsing form the seed corpus (imported and trained
	// on during set-up); LiveDays more form the live stream.
	SeedDays, LiveDays int
	PopularBias        float64
	Coverage           float64
	// ReportEvery is the extension's reporting period in seconds (the
	// paper's ten minutes); SessionWindow is T (twenty minutes).
	ReportEvery, SessionWindow int64
	// SniffUsers is how many users' first live day is rendered to wire
	// frames for the daily_cycle observer phase.
	SniffUsers int
}

// paperWorld is the one world configuration all four workloads use: the
// paper's user count over a universe large enough that the vocabulary
// (a few thousand hostnames) dwarfs the ~10.6% the ontology labels.
// The issue's 3+3 days were cut to 1+2 so that three set-ups and the
// measured phases fit the driver's per-run time budget.
var paperWorld = WorldConfig{
	Sites: 3000, Trackers: 200,
	Users:    1329,
	SeedDays: 1, LiveDays: 2,
	PopularBias: 0.25,
	Coverage:    0.106,
	ReportEvery: 600, SessionWindow: 1200,
	SniffUsers: 300,
}

var quickWorld = WorldConfig{
	Sites: 300, Trackers: 30,
	Users:    60,
	SeedDays: 1, LiveDays: 2,
	PopularBias: 0.25,
	Coverage:    0.106,
	ReportEvery: 600, SessionWindow: 1200,
	SniffUsers: 20,
}

// Report is one extension report of the live stream.
type Report struct {
	User  int
	Time  int64
	Hosts []string
	// Kept is how many of Hosts the blocklist lets through — what the
	// store must grow by when the report is accepted.
	Kept int
}

// BatchSession is one /v1/profile/batch session with the user whose
// browsing produced it, for the ground-truth topic check.
type BatchSession struct {
	User  int
	Hosts []string
}

// World is everything generated from the seed. The program under test
// only ever sees its serialised parts: ontology and blocklist files,
// import bodies, report and batch bodies.
type World struct {
	Cfg       WorldConfig
	Seed      uint64
	Universe  *synth.Universe
	Ontology  *ontology.Ontology
	Blocklist *ontology.Blocklist
	Pop       *synth.Population
	AdDB      *ads.DB

	// SeedVisits is the seed corpus in trace order, trackers included
	// (the server's blocklist filters them on import); SeedKept counts
	// the ones that survive the blocklist.
	SeedVisits []trace.Visit
	SeedKept   int
	// Live is the live stream in (time, user) order.
	Live []Report
	// liveKept holds the live visits that pass the blocklist, grouped
	// by user in time order: the pool batch sessions are drawn from.
	liveKept []trace.Visit
	// SniffVisits is the slice of the first live day rendered to wire
	// frames in daily_cycle.
	SniffVisits []trace.Visit
}

// subSeed derives independent generator seeds from the run seed.
func subSeed(seed uint64, stream uint64) uint64 {
	return stats.NewRNG(seed*0x9e3779b97f4a7c15 + stream).Uint64()
}

// webSeed fixes the web itself — which sites exist, how popular they
// are, which the ontology labels and which the blocklist knows. The
// run seed draws the people: who is interested in what and every visit
// they make. Holding the web still keeps vocabulary size, labelled rows
// and model size comparable from seed to seed, so the spread between
// runs reflects the program and the box, not how many hostnames one
// seed's universe happened to have.
const webSeed = 2021

// NewWorld generates the world for seed. The same seed yields the same
// world byte for byte; see StreamHash.
func NewWorld(cfg WorldConfig, seed uint64) *World {
	u := synth.NewUniverse(synth.UniverseConfig{Sites: cfg.Sites, Trackers: cfg.Trackers, Seed: subSeed(webSeed, 1)})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: cfg.Coverage, Seed: subSeed(webSeed, 2)})
	pop := synth.NewPopulation(u, synth.PopulationConfig{
		Users: cfg.Users, Days: cfg.SeedDays + cfg.LiveDays,
		PopularBias: cfg.PopularBias, Seed: subSeed(seed, 3),
	})
	w := &World{
		Cfg: cfg, Seed: seed,
		Universe: u, Ontology: ont, Pop: pop,
		Blocklist: synth.BuildBlocklist(u, 1, subSeed(webSeed, 4)),
		// The ad inventory mirrors `hostprof serve`'s default -ads-seed.
		AdDB: ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 1}),
	}
	visits := pop.Browse().Visits()
	liveFrom := int64(cfg.SeedDays) * 86400
	split := sort.Search(len(visits), func(i int) bool { return visits[i].Time >= liveFrom })
	w.SeedVisits = visits[:split]
	for _, v := range w.SeedVisits {
		if !w.Blocklist.Contains(v.Host) {
			w.SeedKept++
		}
	}
	live := visits[split:]
	w.buildReports(live)
	for _, v := range live {
		if v.Time < liveFrom+86400 && v.User < cfg.SniffUsers {
			w.SniffVisits = append(w.SniffVisits, v)
		}
		if !w.Blocklist.Contains(v.Host) {
			w.liveKept = append(w.liveKept, v)
		}
	}
	// Stable: visits of one user stay in time order.
	sort.SliceStable(w.liveKept, func(i, j int) bool { return w.liveKept[i].User < w.liveKept[j].User })
	return w
}

// buildReports folds each user's live visits into one report per
// ReportEvery-second window that saw traffic, stamped with the window's
// end — what the paper's extension sent every ten minutes.
func (w *World) buildReports(live []trace.Visit) {
	type key struct {
		user   int
		bucket int64
	}
	idx := make(map[key]int)
	for _, v := range live {
		k := key{v.User, v.Time / w.Cfg.ReportEvery}
		i, ok := idx[k]
		if !ok {
			i = len(w.Live)
			idx[k] = i
			w.Live = append(w.Live, Report{User: v.User, Time: (k.bucket + 1) * w.Cfg.ReportEvery})
		}
		r := &w.Live[i]
		r.Hosts = append(r.Hosts, v.Host)
		if !w.Blocklist.Contains(v.Host) {
			r.Kept++
		}
	}
	sort.SliceStable(w.Live, func(i, j int) bool {
		if w.Live[i].Time != w.Live[j].Time {
			return w.Live[i].Time < w.Live[j].Time
		}
		return w.Live[i].User < w.Live[j].User
	})
}

// minSessionHosts is the shortest window Sessions draws. A window that
// ends on the first page of a browsing session holds one or two hosts,
// usually popular ones, and many users produce the same one: those
// would be profile-cache hits, and the batch workloads exist to measure
// the miss path.
const minSessionHosts = 6

// Sessions returns n cold batch sessions: for n distinct live visits
// (drawn without replacement from those that pass the blocklist), the
// visiting user's SessionWindow-second window ending at that visit,
// skipping windows shorter than minSessionHosts and windows whose host
// set was already drawn (a revisited host lengthens a window without
// changing its set). The server's profile LRU is keyed on the subset of
// the host set its model knows, so distinct sets almost never hit.
// Fewer than n are returned when the live stream runs out.
func (w *World) Sessions(n int) []BatchSession {
	vs := w.liveKept
	rng := stats.NewRNG(subSeed(w.Seed, 5))
	out := make([]BatchSession, 0, n)
	drawn := make(map[string]bool, n)
	for _, i := range rng.Perm(len(vs)) {
		if len(out) == n {
			break
		}
		v := vs[i]
		lo := i
		for lo > 0 && vs[lo-1].User == v.User && vs[lo-1].Time > v.Time-w.Cfg.SessionWindow {
			lo--
		}
		if i-lo+1 < minSessionHosts {
			continue
		}
		hosts := make([]string, 0, i-lo+1)
		for _, x := range vs[lo : i+1] {
			hosts = append(hosts, x.Host)
		}
		set := append([]string(nil), hosts...)
		sort.Strings(set)
		key := strings.Join(slices.Compact(set), "\n")
		if drawn[key] {
			continue
		}
		drawn[key] = true
		out = append(out, BatchSession{User: v.User, Hosts: hosts})
	}
	return out
}

// StreamHash digests every input the program will receive: ontology
// size, seed corpus and live stream (batch sessions are windows of the
// live stream drawn by a seed-derived generator). Equal seeds give
// equal hashes; it is printed with each run so two result files can be
// checked to have measured the same inputs.
func (w *World) StreamHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	num(int64(w.Ontology.Len()))
	num(int64(w.Blocklist.Len()))
	for _, v := range w.SeedVisits {
		num(int64(v.User))
		num(v.Time)
		str(v.Host)
	}
	for _, r := range w.Live {
		num(int64(r.User))
		num(r.Time)
		for _, host := range r.Hosts {
			str(host)
		}
	}
	for _, s := range w.Sessions(64) {
		num(int64(s.User))
		for _, host := range s.Hosts {
			str(host)
		}
	}
	return h.Sum64()
}
