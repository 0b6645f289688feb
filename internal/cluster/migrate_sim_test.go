package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"slices"
	"testing"

	"hostprof/internal/server"
	"hostprof/internal/store"
	"hostprof/internal/trace"
)

// simSeeds is how many fault schedules TestChaosMigrationSchedules runs.
const simSeeds = 1000

// simShards is the migration's second shardIO: in-memory stores, with
// one seeded fault schedule drawn at every call. At each users, digests,
// export or ingest call it draws one of: a sticky death of the called
// shard, a transient error (half of them after the call took effect, as
// when an answer is lost), one report whose mirror fails, or 0–3
// reports. Reports go through the gateway's ring and Migration.route,
// exactly as routeUser sends them, and only to ranges whose gate the
// round does not hold: a report there would wait for the gate.
type simShards struct {
	rng    *rand.Rand
	g      *Gateway
	m      *Migration
	stores map[string]*store.Store // memory-only: Append cannot fail
	dead   map[string]bool
	// calm stops errors, deaths and failed mirrors (reports go on): a
	// resumed run, and the finish that resumes a failed one, run under
	// it.
	calm       bool
	population int                // reports draw users from [0, population)
	acked      map[int]userDigest // per user, the acked visits
	clock      int64              // the next visit's timestamp
	n          *simCounts         // what the schedules did, summed over seeds
}

// simCounts is what the fault schedules did, for the coverage floors.
type simCounts struct {
	deaths, errs, reports, mirrored, dirtied int
}

var errSimTransient = errors.New("sim: transient shard error")

var simHosts = []string{"a.example", "b.example", "c.example", "d.example", "e.example"}

// call runs one interface call to shard under the fault schedule; effect
// is what the call does to the stores.
func (s *simShards) call(shard string, effect func()) error {
	if s.dead[shard] {
		return fmt.Errorf("sim: %s is down", shard)
	}
	x := s.rng.IntN(1000)
	switch {
	case !s.calm && x < 3:
		s.dead[shard] = true
		s.n.deaths++
		return fmt.Errorf("sim: %s died", shard)
	case !s.calm && x < 53:
		s.n.errs++
		if x%2 == 0 {
			effect()
		}
		return errSimTransient
	case !s.calm && x < 93:
		s.report(true)
	default:
		for range s.rng.IntN(4) {
			s.report(false)
		}
	}
	effect()
	return nil
}

// report sends one report for a drawn user. It is acked when the owner
// is up, and mirrored unless failMirror or the mirror is down, in which
// case the route is marked dirty as routeUser marks it.
func (s *simShards) report(failMirror bool) {
	u := s.rng.IntN(s.population)
	n := 1 + s.rng.IntN(3)
	if r := s.m.rangeFor(userHash(u)); r != nil {
		if !r.gate.TryRLock() {
			return
		}
		r.gate.RUnlock()
	}
	owner, _ := s.g.Ring().Owner(u)
	rt := s.g.migration.Load().route(u, true)
	defer rt.release()
	if rt.owner != "" {
		owner = rt.owner
	}
	if s.dead[owner] {
		return // shed, never acked
	}
	visits := s.visits(u, n)
	s.stores[owner].Append(visits...)
	s.ack(visits)
	s.n.reports++
	switch {
	case rt.mirror == "":
	case failMirror || s.dead[rt.mirror]:
		rt.markDirty()
		s.n.dirtied++
	default:
		s.stores[rt.mirror].Append(visits...)
		s.n.mirrored++
	}
}

func (s *simShards) visits(u, n int) []trace.Visit {
	out := make([]trace.Visit, n)
	for i := range out {
		s.clock++
		out[i] = trace.Visit{User: u, Time: s.clock, Host: simHosts[s.rng.IntN(len(simHosts))]}
	}
	return out
}

func (s *simShards) ack(visits []trace.Visit) {
	for _, v := range visits {
		d := s.acked[v.User]
		d.count++
		d.sum += store.VisitHash(v)
		s.acked[v.User] = d
	}
}

func (s *simShards) users(_ context.Context, shard string) ([]int, error) {
	var out []int
	if err := s.call(shard, func() { out = s.stores[shard].Users() }); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *simShards) digests(_ context.Context, shard string, users []int) (map[int]userDigest, error) {
	out := make(map[int]userDigest, len(users))
	err := s.call(shard, func() {
		for _, u := range users {
			c, sum := s.stores[shard].UserDigest(u)
			out[u] = userDigest{count: c, sum: sum}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// export answers at most limit visits and, one call in four, a shorter
// non-empty prefix, as a shard's per-call record budget may.
func (s *simShards) export(_ context.Context, shard string, user, from, limit int) ([]server.WireVisit, error) {
	var out []server.WireVisit
	err := s.call(shard, func() {
		vs, _ := s.stores[shard].UserVisits(user, from, limit)
		if len(vs) > 1 && s.rng.IntN(4) == 0 {
			vs = vs[:1+s.rng.IntN(len(vs)-1)]
		}
		for _, v := range vs {
			out = append(out, server.WireVisit{User: v.User, Time: v.Time, Host: v.Host})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *simShards) ingest(_ context.Context, shard string, req server.ImportRequest) error {
	return s.call(shard, func() {
		s.stores[shard].DropUsers(req.Reset)
		for _, v := range req.Visits {
			s.stores[shard].Append(trace.Visit{User: v.User, Time: v.Time, Host: v.Host})
		}
	})
}

func (s *simShards) alive(shard string) bool { return !s.dead[shard] }

// runSchedule plays one seed: 2–4 shards holding a few dozen users with
// histories, a seeded grow, shrink or replace, every range's attempt
// loop under the fault schedule, a resume of a failed run with faults
// cleared and every shard up, then finish under the fault schedule
// again, resumed with faults cleared when its source purge fails. It
// checks that (a) each user's acked visits are exactly the final
// owner's history, by count and VisitHash sum, (b) no other member of
// the new ring holds the user, and (c) the run, resumed or not, reaches
// done. It reports whether the ranges or the finish were resumed, and
// adds what its schedule did to n.
func runSchedule(t *testing.T, seed uint64, n *simCounts) (resumed bool) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	shards := 2 + rng.IntN(3)
	name := func(i int) string { return fmt.Sprintf("http://s%d", i) }
	var oldNodes []string
	for i := range shards {
		oldNodes = append(oldNodes, name(i))
	}
	newNodes := slices.Clone(oldNodes)
	switch i := rng.IntN(shards); rng.IntN(3) {
	case 0: // grow
		newNodes = append(newNodes, name(shards))
	case 1: // shrink
		newNodes = slices.Delete(newNodes, i, i+1)
	default: // replace
		newNodes[i] = name(shards)
	}
	vnodes := 2 + rng.IntN(7)
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	g, err := New(Config{Backends: oldNodes, VirtualNodes: vnodes, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRing(newNodes, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	s := &simShards{
		rng:        rng,
		g:          g,
		stores:     map[string]*store.Store{},
		dead:       map[string]bool{},
		population: 24 + rng.IntN(25),
		acked:      map[int]userDigest{},
		n:          n,
	}
	for i := range shards + 1 {
		if s.stores[name(i)], err = store.Open(store.Config{Shards: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A few users stay unborn until a report reaches them.
	for u := range s.population - 4 {
		owner, _ := g.Ring().Owner(u)
		visits := s.visits(u, 1+rng.IntN(12))
		s.stores[owner].Append(visits...)
		s.ack(visits)
	}
	s.m = newMigration(g, s, g.Ring(), newRing)
	g.migration.Store(s.m)

	ctx := context.Background()
	runRanges := func() {
		for _, r := range s.m.allRanges() {
			if r.st() != rangeDone {
				s.m.runRange(ctx, r)
			}
		}
	}
	runRanges()
	s.calm, s.dead = true, map[string]bool{}
	resumed = s.m.tally()[rangeDone] < len(s.m.allRanges())
	if resumed {
		s.m.prepareResume()
		runRanges()
	}
	for _, r := range s.m.allRanges() {
		if r.st() != rangeDone {
			t.Fatalf("(c) range %x..%x %s→%s ends %s: %s", r.Lo, r.Hi, r.From, r.To, r.st(), r.lastErr)
		}
	}
	s.calm = false
	s.m.finish(ctx)
	if s.m.Status().State == "failed" {
		if g.migration.Load() != s.m || g.Ring().Equal(newNodes) {
			t.Fatalf("(c) a failed purge uninstalled the migration or swapped the ring")
		}
		resumed = true
		s.calm, s.dead = true, map[string]bool{}
		s.m.prepareResume()
		s.m.finish(ctx)
	}
	if st := s.m.Status(); st.State != "done" || g.migration.Load() != nil || !g.Ring().Equal(newNodes) {
		t.Fatalf("(c) after finish: state %s, still installed %v, ring %v", st.State, g.migration.Load() != nil, g.Ring().Nodes())
	}

	for u := range s.population {
		owner, _ := newRing.Owner(u)
		want := s.acked[u]
		if c, sum := s.stores[owner].UserDigest(u); c != want.count || sum != want.sum {
			t.Errorf("(a) user %d: owner %s holds %d visits (sum %x), %d acked (sum %x)",
				u, owner, c, sum, want.count, want.sum)
		}
		for _, member := range newNodes {
			if c, _ := s.stores[member].UserDigest(u); member != owner && c > 0 {
				t.Errorf("(b) user %d: %s holds %d visits beside its owner %s", u, member, c, owner)
			}
		}
	}
	return resumed
}

// TestChaosMigrationSchedules is the migration's exactness proof beside
// the re-exec pair (TestChaosClusterResize*): simSeeds seeded fault
// schedules, each a whole migration over in-memory shards, with no
// sleeps, sockets or goroutines. A failing seed logs its replay command.
func TestChaosMigrationSchedules(t *testing.T) {
	var n simCounts
	ran, resumed := 0, 0
	for seed := uint64(1); seed <= simSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test -run 'TestChaosMigrationSchedules/seed=%d$' ./internal/cluster", seed)
				}
			}()
			if runSchedule(t, seed, &n) {
				resumed++
			}
			ran++
		})
	}
	t.Logf("%d schedules, %d resumed: %d deaths, %d transient errors, %d acked reports, %d mirrored, %d failed mirrors",
		ran, resumed, n.deaths, n.errs, n.reports, n.mirrored, n.dirtied)
	// The floors hold only over the whole set: a replayed seed runs alone.
	if ran == simSeeds && (resumed < simSeeds/10 || resumed > simSeeds*9/10 ||
		n.deaths == 0 || n.mirrored == 0 || n.dirtied == 0) {
		t.Errorf("the schedules no longer cover both a clean and a resumed run, deaths, mirrors and failed mirrors")
	}
}
