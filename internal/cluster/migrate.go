// Keyspace migration: the machinery that makes cluster resize a
// zero-loss operation under live traffic.
//
// A resize (POST /v1/cluster/resize, or Gateway.Resize) diffs the old
// and new rings into moved key ranges (DiffRings) and drives each range
// through a small state machine:
//
//	pending → copying → draining → done (cutover)
//	                  ↘ aborted (rolled back to the old owner)
//
// The migration reaches shards only through shardIO (list users, read
// digests, export a chunk, import visits or a reset, liveness); the
// gateway's implementation is httpShards. Each attempt at a range is one
// round, whose counts and watermarks are locals. A round freezes the
// range under its write gate (an RWMutex: report traffic holds it shared
// across the whole source(+target) round trip, the round exclusively, so
// no write is in flight): it resets the target's copy, enumerates the
// range's users and captures their source record counts C0, and flips
// the range to copying before releasing the gate, so every later report
// is double-written (source first — the ack — then imported to the
// target). The copy streams exactly records [0, C0) per user in chunks
// at increasing offsets, so copied history and double-written traffic
// partition perfectly. The verify takes the gate again and compares
// per-user record counts and order-insensitive content digests
// (store.VisitHash sums); only an exact match flips the range to done,
// under the gate, after which routing serves the new owner. Any
// mismatch — a failed double-write, a target crash that resurrected a
// reset — is repaired by the next round's reset + recopy. Migration.route
// is the one copy of this routing policy; routeUser asks it.
//
// Failure semantics: a dying source aborts only its own ranges; a dying
// target rolls its ranges back to the old owner, which never stopped
// being authoritative; a failed migration stays installed and
// re-POSTing the same resize resumes it: done ranges are kept, the rest
// reset and recopied. Source data is purged only after every range has
// cut over, and before the ring swap: a failed purge fails the
// migration, and the resume purges again. TestChaosMigrationSchedules
// drives the rounds and the purge over in-memory shards through 1 000
// seeded fault schedules.
//
// The one unprotected window: the gateway process itself dying
// mid-migration loses the in-memory range states. Persisting migration
// state is future work; until then, resize from a single gateway and
// let it finish.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/server"
)

// rangeState is one moved range's position in the migration lifecycle.
type rangeState int32

const (
	rangePending  rangeState = iota // not started: route to From, no double-write
	rangeCopying                    // freeze captured, bulk copy in progress: double-write
	rangeDraining                   // copy finished, verifying: double-write continues
	rangeDone                       // cutover: route to To
	rangeAborted                    // rolled back: route to From
)

func (s rangeState) String() string {
	switch s {
	case rangeCopying:
		return "copying"
	case rangeDraining:
		return "draining"
	case rangeDone:
		return "done"
	case rangeAborted:
		return "aborted"
	default:
		return "pending"
	}
}

// migRange is one moved keyspace arc plus its migration bookkeeping.
type migRange struct {
	MovedRange

	// gate is the range's write barrier: writes hold it shared (see
	// route), a round exclusively to freeze and to verify.
	gate  sync.RWMutex
	state atomic.Int32
	// dirty flips when a double-write to the target fails after the
	// source already acked: the target is now behind, and only a reset +
	// recopy makes it exact again. Read at verify under the gate.
	dirty atomic.Bool

	// Written by the range's one worker; Status reads them under the
	// migration mutex.
	users    []int // range's users, re-enumerated at each freeze and verify
	attempts int
	lastErr  string
}

func (r *migRange) st() rangeState { return rangeState(r.state.Load()) }

// Migration is one supervised resize operation.
type Migration struct {
	g       *Gateway
	shards  shardIO
	newRing *Ring
	from    []string // old membership, sorted
	to      []string // new membership, sorted
	joiners []string // in to, not in from
	leavers []string // in from, not in to

	ranges []*migRange // non-wrapping, sorted by Lo ascending
	wrap   *migRange   // the at-most-one wrapping range, or nil

	mu       sync.Mutex
	phase    string // planning, copying, cutover, done, failed
	errMsg   string
	started  time.Time
	finished time.Time
	users    int // users enumerated at plan time (status only)
	resumes  int
	traceID  string
	done     chan struct{}

	records atomic.Int64 // visit records copied
}

// newMigration plans the move from oldRing to newRing: its joiners,
// leavers and the moved ranges DiffRings finds, all pending. It reaches
// shards through shards.
func newMigration(g *Gateway, shards shardIO, oldRing, newRing *Ring) *Migration {
	m := &Migration{
		g:       g,
		shards:  shards,
		newRing: newRing,
		from:    oldRing.Nodes(),
		to:      newRing.Nodes(),
		phase:   "planning",
		started: time.Now(),
		done:    make(chan struct{}),
	}
	for _, n := range m.to {
		if !slices.Contains(m.from, n) {
			m.joiners = append(m.joiners, n)
		}
	}
	for _, n := range m.from {
		if !slices.Contains(m.to, n) {
			m.leavers = append(m.leavers, n)
		}
	}
	for _, mr := range DiffRings(oldRing, newRing) {
		r := &migRange{MovedRange: mr}
		if mr.Lo >= mr.Hi {
			m.wrap = r
			continue
		}
		m.ranges = append(m.ranges, r)
	}
	sort.Slice(m.ranges, func(i, j int) bool { return m.ranges[i].Lo < m.ranges[j].Lo })
	return m
}

// terminalPhase reports whether a phase string is an end state.
func terminalPhase(p string) bool { return p == "done" || p == "failed" }

// allRanges returns every range including the wrapping one.
func (m *Migration) allRanges() []*migRange {
	out := m.ranges
	if m.wrap != nil {
		out = append(append([]*migRange(nil), m.ranges...), m.wrap)
	}
	return out
}

// rangeFor returns the moved range containing hash h, or nil when h is
// not migrating. Binary search over the Lo-sorted non-wrapping ranges
// plus one check of the wrapping range.
func (m *Migration) rangeFor(h uint64) *migRange {
	if m.wrap != nil && m.wrap.Contains(h) {
		return m.wrap
	}
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Hi >= h })
	if i < len(m.ranges) && m.ranges[i].Contains(h) {
		return m.ranges[i]
	}
	return nil
}

// userRoute is where one user's request goes while a migration is
// installed. The zero value leaves the ring's owner in place.
type userRoute struct {
	owner  string    // serves the request; "" when the ring's owner does
	mirror string    // also takes an accepted report, or ""
	held   *migRange // the range whose gate the request holds shared, or nil
}

// route is the migration's routing policy for one user. A moved user
// is served by the range's old owner until the range cuts over, by the
// new owner after, and by the old again once the range is rolled back.
// A write (a report: feedback mutates campaign tallies, not the visit
// store) to a range not yet done holds the range's gate shared until
// release. For a pending range this is what makes the freeze exact —
// its exclusive acquire waits for the report to land, so the C0 capture
// counts it; once the freeze has run, the write is also mirrored to the
// target. A nil m routes every user by the ring.
func (m *Migration) route(user int, write bool) userRoute {
	if m == nil {
		return userRoute{}
	}
	r := m.rangeFor(userHash(user))
	if r == nil {
		return userRoute{}
	}
	r.gate.RLock()
	switch s := r.st(); {
	case s == rangeDone:
		r.gate.RUnlock()
		return userRoute{owner: r.To}
	case s == rangeAborted || !write:
		r.gate.RUnlock()
		return userRoute{owner: r.From}
	case s == rangePending:
		return userRoute{owner: r.From, held: r}
	default: // copying, draining
		return userRoute{owner: r.From, mirror: r.To, held: r}
	}
}

// markDirty records that the mirror of an acked write failed, so the
// range cannot cut over before a reset and recopy. Call it before
// release: verify reads the flag under the exclusive gate.
func (rt userRoute) markDirty() { rt.held.dirty.Store(true) }

// release drops the gate a write route holds.
func (rt userRoute) release() {
	if rt.held != nil {
		rt.held.gate.RUnlock()
	}
}

// Done returns a channel closed when the current run reaches a terminal
// phase (done or failed).
func (m *Migration) Done() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

func (m *Migration) setPhase(p string) {
	m.mu.Lock()
	m.phase = p
	m.mu.Unlock()
	m.phaseEvent(p)
}

// tally counts the ranges in each state.
func (m *Migration) tally() (n [rangeAborted + 1]int) {
	for _, r := range m.allRanges() {
		n[r.st()]++
	}
	return n
}

// phaseEvent records one migration state-machine transition on the
// cluster timeline, with the range counts an operator needs to judge
// progress. Called from the supervisor goroutine only.
func (m *Migration) phaseEvent(p string) {
	n := m.tally()
	m.g.event(EventMigration, "", "migration "+p,
		"phase", p,
		"ranges", strconv.Itoa(len(m.allRanges())),
		"ranges_done", strconv.Itoa(n[rangeDone]),
		"ranges_aborted", strconv.Itoa(n[rangeAborted]),
		"records_copied", strconv.FormatInt(m.records.Load(), 10))
}

// RangeStatus is one range's externally visible state.
type RangeStatus struct {
	Lo       string `json:"lo"` // hex ring positions
	Hi       string `json:"hi"`
	From     string `json:"from"`
	To       string `json:"to"`
	State    string `json:"state"`
	Users    int    `json:"users"`
	Attempts int    `json:"attempts,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

// MigrationStatus is the /v1/cluster (and /readyz detail) view of a
// migration.
type MigrationStatus struct {
	State         string        `json:"state"`
	From          []string      `json:"from"`
	To            []string      `json:"to"`
	StartedAt     time.Time     `json:"started_at"`
	FinishedAt    time.Time     `json:"finished_at,omitempty"`
	Ranges        int           `json:"ranges"`
	RangesDone    int           `json:"ranges_done"`
	RangesAborted int           `json:"ranges_aborted"`
	Users         int           `json:"users"`
	RecordsCopied int64         `json:"records_copied"`
	Resumes       int           `json:"resumes,omitempty"`
	TraceID       string        `json:"trace_id,omitempty"`
	Error         string        `json:"error,omitempty"`
	RangeDetail   []RangeStatus `json:"range_detail,omitempty"`
}

// Status snapshots the migration. The overall state refines the
// supervisor's coarse phase with per-range progress: "copying" becomes
// "draining" once every active range has finished its bulk copy and is
// verifying under double-write.
func (m *Migration) Status() MigrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.tally()
	st := MigrationStatus{
		State:         m.phase,
		From:          m.from,
		To:            m.to,
		StartedAt:     m.started,
		FinishedAt:    m.finished,
		Ranges:        len(m.allRanges()),
		RangesDone:    n[rangeDone],
		RangesAborted: n[rangeAborted],
		Users:         m.users,
		RecordsCopied: m.records.Load(),
		Resumes:       m.resumes,
		TraceID:       m.traceID,
		Error:         m.errMsg,
	}
	for _, r := range m.allRanges() {
		st.RangeDetail = append(st.RangeDetail, RangeStatus{
			Lo:       strconv.FormatUint(r.Lo, 16),
			Hi:       strconv.FormatUint(r.Hi, 16),
			From:     r.From,
			To:       r.To,
			State:    r.st().String(),
			Users:    len(r.users),
			Attempts: r.attempts,
			LastErr:  r.lastErr,
		})
	}
	if st.State == "copying" && n[rangeCopying] == 0 && n[rangeDraining] > 0 {
		st.State = "draining"
	}
	return st
}

// ErrResizeConflict is returned when a resize targets a different
// membership while another migration is installed (running or failed).
var ErrResizeConflict = errors.New("cluster: another migration is installed; resume it (re-POST its backends) or wait for it to finish")

// Resize starts, joins or resumes a keyspace migration to the given
// membership. Returns the migration (nil when the resize is a no-op)
// and whether this call started or resumed a run (false = joined one
// already in flight). The heavy work happens in a supervised background
// goroutine; poll /v1/cluster or the returned Migration's Status.
func (g *Gateway) Resize(ctx context.Context, backends []string) (*Migration, bool, error) {
	backends, err := normalizeBackends(backends)
	if err != nil {
		return nil, false, err
	}
	newRing, err := NewRing(backends, g.cfg.VirtualNodes)
	if err != nil {
		return nil, false, err
	}

	g.resizeMu.Lock()
	defer g.resizeMu.Unlock()

	if existing := g.migration.Load(); existing != nil {
		if !existing.newRing.Equal(backends) {
			return nil, false, ErrResizeConflict
		}
		if !terminalPhase(existing.Status().State) {
			return existing, false, nil // join the run in flight
		}
		// Failed run to the same membership: resume it. Done runs are
		// never left installed.
		existing.prepareResume()
		g.met.migResumes.Inc()
		g.spawnMigration(ctx, existing)
		return existing, true, nil
	}

	oldRing := g.Ring()
	if oldRing.Equal(backends) {
		return nil, false, nil
	}
	m := newMigration(g, httpShards{g}, oldRing, newRing)

	// Install behind the barrier: after Unlock, every in-flight write
	// that predates the migration has drained, so no un-gated write can
	// slip between a range freeze and its count capture.
	g.migration.Store(m)
	g.migBarrier.Lock()
	g.migBarrier.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	g.met.migStarts.Inc()
	g.log.Info("cluster resize started",
		slog.Int("from", len(m.from)), slog.Int("to", len(m.to)),
		slog.Int("moved_ranges", len(m.allRanges())),
		slog.Any("joiners", m.joiners), slog.Any("leavers", m.leavers))
	g.spawnMigration(ctx, m)
	return m, true, nil
}

// prepareResume resets every non-done range for a fresh attempt. Done
// ranges keep their cutover — their source copies are stale by now.
func (m *Migration) prepareResume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.allRanges() {
		if r.st() == rangeDone {
			continue
		}
		r.state.Store(int32(rangePending))
		r.dirty.Store(false)
		r.attempts = 0
		r.lastErr = ""
	}
	m.phase = "planning"
	m.errMsg = ""
	m.finished = time.Time{}
	m.resumes++
	m.done = make(chan struct{})
}

// spawnMigration runs the supervisor in the background, detached from
// the request's cancellation but not from its trace, and tied to the
// gateway's lifecycle: Close cancels and waits for it.
func (g *Gateway) spawnMigration(ctx context.Context, m *Migration) {
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	done := m.Done()
	g.wg.Add(2)
	go func() {
		defer g.wg.Done()
		select {
		case <-g.stop:
			cancel()
		case <-done:
			cancel()
		}
	}()
	go func() {
		defer g.wg.Done()
		m.run(runCtx)
	}()
}

// run drives one migration attempt end to end: plan, copy every range,
// then finish (purge sources, swap ring). A failed step records the
// failure and the migration stays installed for resume.
func (m *Migration) run(ctx context.Context) {
	g := m.g
	defer func() {
		m.mu.Lock()
		done := m.done
		m.mu.Unlock()
		close(done)
	}()

	pctx, span := g.tr.StartSpan(ctx, "gw.migrate.plan")
	if span.Recording() {
		m.mu.Lock()
		m.traceID = span.TraceIDString()
		m.mu.Unlock()
	}
	err := m.plan(pctx)
	span.Error(err)
	span.End()
	if err != nil {
		m.fail(err)
		return
	}

	m.setPhase("copying")
	cctx, cspan := g.tr.StartSpan(ctx, "gw.migrate.copy")
	sem := make(chan struct{}, migrationWorkers)
	var wg sync.WaitGroup
	for _, r := range m.allRanges() {
		if r.st() == rangeDone { // kept from a resumed run
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(r *migRange) {
			defer func() { <-sem; wg.Done() }()
			m.runRange(cctx, r)
		}(r)
	}
	wg.Wait()
	cspan.SetAttr("records", strconv.FormatInt(m.records.Load(), 10))
	cspan.End()

	if n, all := m.tally(), len(m.allRanges()); n[rangeDone] < all {
		m.fail(fmt.Errorf("%d of %d ranges aborted", all-n[rangeDone], all))
		return
	}

	fctx, fspan := g.tr.StartSpan(ctx, "gw.migrate.cutover")
	m.finish(fctx)
	fspan.End()
}

// plan probes the migration's targets, ships the cluster's model to
// joiners (a joining shard must profile moved users immediately, not
// after the next retrain), and enumerates how many users move.
func (m *Migration) plan(ctx context.Context) error {
	g := m.g
	m.setPhase("planning")

	// Joining shards become routable state before any traffic reaches
	// them.
	g.mu.Lock()
	for _, j := range m.joiners {
		if g.shards[j] == nil {
			g.shards[j] = &shardState{name: j}
			g.wireShardGauges(j)
		}
	}
	g.mu.Unlock()

	targets := map[string]bool{}
	sources := map[string]bool{}
	for _, r := range m.allRanges() {
		targets[r.To] = true
		sources[r.From] = true
	}
	var wg sync.WaitGroup
	for t := range targets {
		wg.Add(1)
		go func(t string) {
			defer wg.Done()
			g.probeShard(ctx, t)
		}(t)
	}
	wg.Wait()
	for t := range targets {
		if !g.shardSnapshot(t).alive {
			return fmt.Errorf("cluster: resize target %s is not alive", t)
		}
	}
	for s := range sources {
		if !g.shardSnapshot(s).alive {
			return fmt.Errorf("cluster: resize source %s is not alive", s)
		}
	}

	// Model distribution to joiners: reuse the anti-entropy source
	// order (first alive old member serving a model).
	var modelSrc, want string
	g.mu.Lock()
	for _, name := range m.from {
		if s := g.shards[name]; s != nil && s.alive && s.modelVersion != "" {
			modelSrc, want = name, s.modelVersion
			break
		}
	}
	g.mu.Unlock()
	var seed []string // joiners not yet serving the source's version
	for _, j := range m.joiners {
		if modelSrc != "" && g.shardSnapshot(j).modelVersion != want {
			seed = append(seed, j)
		}
	}
	if len(seed) > 0 {
		var seedErr error
		if _, err := g.shipModel(ctx, modelSrc, seed, func(j string, err error) {
			if err == nil {
				g.probeShard(ctx, j)
			} else if seedErr == nil {
				seedErr = fmt.Errorf("cluster: seeding model on %s: %w", j, err)
			}
		}); err != nil {
			return fmt.Errorf("cluster: fetching model for joiner: %w", err)
		}
		if seedErr != nil {
			return seedErr
		}
	}

	// User enumeration (status only — each freeze re-enumerates): count
	// moving users per source.
	total := 0
	for s := range sources {
		users, err := m.shards.users(ctx, s)
		if err != nil {
			return err
		}
		for _, u := range users {
			if m.rangeFor(userHash(u)) != nil {
				total++
			}
		}
	}
	m.mu.Lock()
	m.users = total
	m.mu.Unlock()
	return nil
}

// migrationAttempts bounds the rounds per range before the range is
// rolled back to its old owner; migrationChunk is the visit records per
// export/import call; migrationWorkers bounds the ranges copying at
// once.
const (
	migrationAttempts = 3
	migrationChunk    = 4096
	migrationWorkers  = 4
)

// runRange drives one range to done or aborted: up to migrationAttempts
// rounds, aborting early when the source or target dies.
func (m *Migration) runRange(ctx context.Context, r *migRange) {
	for attempt := 1; ; attempt++ {
		err := ctx.Err()
		if err == nil {
			err = m.checkEndpoints(r)
		}
		if err == nil && attempt > migrationAttempts {
			err = fmt.Errorf("cluster: %d attempts exhausted", migrationAttempts)
		}
		if err != nil {
			m.abortRange(r, err)
			return
		}
		m.mu.Lock()
		r.attempts = attempt
		m.mu.Unlock()
		if err := m.round(ctx, r); err != nil {
			m.mu.Lock()
			r.lastErr = err.Error()
			m.mu.Unlock()
			continue
		}
		m.g.met.migRangesDone.Inc()
		return
	}
}

// checkEndpoints reports which endpoint of a range died, if any.
func (m *Migration) checkEndpoints(r *migRange) error {
	if !m.shards.alive(r.From) {
		return fmt.Errorf("cluster: source %s died", r.From)
	}
	if !m.shards.alive(r.To) {
		return fmt.Errorf("cluster: target %s died", r.To)
	}
	return nil
}

// abortRange rolls a range back to its old owner.
func (m *Migration) abortRange(r *migRange, err error) {
	r.state.Store(int32(rangeAborted))
	m.mu.Lock()
	r.lastErr = err.Error()
	m.mu.Unlock()
	m.g.met.migRangesAborted.Inc()
	m.g.event(EventMigrationRange, r.To, "migration range aborted, rolled back to old owner",
		"from", r.From, "to", r.To, "err", err.Error())
	m.g.log.Warn("migration range aborted",
		slog.String("from", r.From), slog.String("to", r.To),
		slog.String("err", err.Error()))
}

// round is one attempt at a range: freeze, copy, verify. It returns nil
// once the range has cut over; after an error the next round freezes
// afresh and recopies from record 0.
func (m *Migration) round(ctx context.Context, r *migRange) error {
	// Freeze, under the exclusive gate: no report is in flight. The flip
	// to copying before the gate is released means every later write is
	// mirrored AND lands at source offset >= C0.
	var users []int
	var c0 map[int]userDigest
	err := func() error {
		r.gate.Lock()
		defer r.gate.Unlock()
		var err error
		if users, err = m.usersIn(ctx, r); err != nil {
			return err
		}
		if err = m.reset(ctx, r.To, users); err != nil {
			return err
		}
		if c0, err = m.shards.digests(ctx, r.From, users); err != nil {
			return err
		}
		m.mu.Lock()
		r.users = users
		m.mu.Unlock()
		r.dirty.Store(false)
		r.state.Store(int32(rangeCopying))
		return nil
	}()
	if err != nil {
		return err
	}

	// Copy records [0, C0) at increasing offsets, stable on the source
	// (store.UserVisits), so no chunk is sent twice.
	for _, u := range users {
		for w := 0; w < c0[u].count; {
			if err := ctx.Err(); err != nil {
				return err
			}
			limit := min(c0[u].count-w, migrationChunk)
			visits, err := m.shards.export(ctx, r.From, u, w, limit)
			if err != nil {
				return err
			}
			if len(visits) == 0 {
				// The source has fewer records than the freeze counted —
				// it restarted and lost an unsynced WAL tail.
				return fmt.Errorf("cluster: source %s shrank under user %d (watermark %d of %d)",
					r.From, u, w, c0[u].count)
			}
			visits = visits[:min(len(visits), limit)]
			if err := m.shards.ingest(ctx, r.To, server.ImportRequest{Visits: visits}); err != nil {
				return err
			}
			w += len(visits)
			m.records.Add(int64(len(visits)))
			if err := fault.Inject(fault.MigrateCopyChunk); err != nil {
				return err
			}
		}
	}
	r.state.Store(int32(rangeDraining))

	// Verify, under the exclusive gate: re-enumerate (catching users born
	// during the copy, whose every record was double-written) and compare
	// source and target. The flip to done happens before the gate is
	// released, so the first write after it routes to the new owner.
	r.gate.Lock()
	defer r.gate.Unlock()
	if users, err = m.usersIn(ctx, r); err != nil {
		return err
	}
	src, err := m.shards.digests(ctx, r.From, users)
	if err != nil {
		return err
	}
	tgt, err := m.shards.digests(ctx, r.To, users)
	if err != nil {
		return err
	}
	if r.dirty.Load() {
		return errors.New("dirty: a double-write to the target failed")
	}
	for _, u := range users {
		if s, t := src[u], tgt[u]; s != t {
			return fmt.Errorf("digest mismatch for user %d: source %d/%x target %d/%x",
				u, s.count, s.sum, t.count, t.sum)
		}
	}
	m.mu.Lock()
	r.users = users
	r.lastErr = ""
	m.mu.Unlock()
	r.state.Store(int32(rangeDone))
	m.g.log.Info("migration range cut over",
		slog.String("from", r.From), slog.String("to", r.To),
		slog.Int("users", len(users)))
	return nil
}

// usersIn lists the range's users present on its source.
func (m *Migration) usersIn(ctx context.Context, r *migRange) ([]int, error) {
	all, err := m.shards.users(ctx, r.From)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(all, func(u int) bool { return !r.Contains(userHash(u)) }), nil
}

// reset drops users on a shard (recopy preamble, source purge).
func (m *Migration) reset(ctx context.Context, shard string, users []int) error {
	if len(users) == 0 {
		return nil
	}
	return m.shards.ingest(ctx, shard, server.ImportRequest{Reset: users})
}

// finish completes a fully cut-over migration: purge moved users from
// surviving sources, then swap the ring and membership and prune
// leavers. A failed purge fails the migration before the swap, so it
// stays installed (done ranges keep routing to their new owners) and a
// re-POST of the same resize purges again: a reset is idempotent.
func (m *Migration) finish(ctx context.Context) {
	g := m.g
	m.setPhase("cutover")

	// Purge: moved users' history still sits on surviving sources,
	// double-counting /v1/stats and wasting memory. Leavers skip the
	// purge — they are leaving.
	for _, src := range m.to {
		var users []int
		for _, r := range m.allRanges() {
			if r.From == src {
				users = append(users, r.users...)
			}
		}
		if err := m.reset(ctx, src, users); err != nil {
			m.fail(fmt.Errorf("cluster: purging moved users from %s: %w", src, err))
			return
		}
	}

	g.ringMu.Lock()
	g.ring = m.newRing
	g.ringMu.Unlock()
	g.event(EventRingRebalance, "", "ring cut over to post-migration membership",
		"backends", strconv.Itoa(len(m.to)))

	g.mu.Lock()
	g.backends = append([]string(nil), m.to...)
	g.mu.Unlock()

	g.mu.Lock()
	for _, l := range m.leavers {
		delete(g.shards, l)
	}
	g.mu.Unlock()

	m.mu.Lock()
	m.phase = "done"
	m.finished = time.Now()
	m.mu.Unlock()
	m.phaseEvent("done")
	g.met.migDone.Inc()
	// Keep the terminal status visible after uninstall.
	st := m.Status()
	g.mu.Lock()
	g.lastMigration = &st
	g.mu.Unlock()
	g.migration.Store(nil)
	g.log.Info("cluster resize complete",
		slog.Int("backends", len(m.to)),
		slog.Int("users_moved", st.Users),
		slog.Int64("records_copied", st.RecordsCopied),
		slog.Duration("took", st.FinishedAt.Sub(st.StartedAt)))
}

// fail records a terminal failure. The migration stays installed: done
// ranges keep routing to their new owners (whose copies are now the
// only current ones), everything else to the old — and a re-POST of the
// same resize resumes from here.
func (m *Migration) fail(err error) {
	m.mu.Lock()
	m.phase = "failed"
	m.errMsg = err.Error()
	m.finished = time.Now()
	m.mu.Unlock()
	m.phaseEvent("failed")
	m.g.met.migFailed.Inc()
	m.g.log.Warn("cluster resize failed (resumable)", slog.String("err", err.Error()))
}

// --- shard I/O -----------------------------------------------------------

// shardIO is all the migration asks of a shard. httpShards is the
// gateway's; migrate_sim_test.go backs it with in-memory stores.
type shardIO interface {
	// users lists every user stored on the shard.
	users(ctx context.Context, shard string) ([]int, error)
	// digests reads per-user record counts and content digests.
	digests(ctx context.Context, shard string, users []int) (map[int]userDigest, error)
	// export reads one user's visits [from, from+limit).
	export(ctx context.Context, shard string, user, from, limit int) ([]server.WireVisit, error)
	// ingest applies one import: drop the Reset users, append the Visits.
	ingest(ctx context.Context, shard string, req server.ImportRequest) error
	// alive reports whether the shard is up.
	alive(shard string) bool
}

type userDigest struct {
	count int
	sum   uint64
}

// httpShards speaks the shards' export/import API, every request
// through forwardWithRetry; liveness is the health loop's.
type httpShards struct{ g *Gateway }

func (h httpShards) get(ctx context.Context, shard, path string, out any) error {
	ans, err := h.g.forwardWithRetry(ctx, http.MethodGet, shard, path, nil, nil)
	if err != nil {
		return err
	}
	if ans.status != http.StatusOK {
		return fmt.Errorf("cluster: %s%s answered HTTP %d", shard, path, ans.status)
	}
	return json.Unmarshal(ans.body, out)
}

func (h httpShards) users(ctx context.Context, shard string) ([]int, error) {
	var resp server.ExportUsersResponse
	if err := h.get(ctx, shard, "/v1/export/users", &resp); err != nil {
		return nil, err
	}
	return resp.Users, nil
}

// digests batches the user list into bounded query strings.
func (h httpShards) digests(ctx context.Context, shard string, users []int) (map[int]userDigest, error) {
	out := make(map[int]userDigest, len(users))
	const batch = 256
	for start := 0; start < len(users); start += batch {
		end := min(start+batch, len(users))
		var resp server.DigestResponse
		path := "/v1/export/digest?users=" + joinUsers(users[start:end])
		if err := h.get(ctx, shard, path, &resp); err != nil {
			return nil, err
		}
		for k, d := range resp.Digests {
			u, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad digest key %q from %s", k, shard)
			}
			sum, err := strconv.ParseUint(d.Sum, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad digest sum %q from %s", d.Sum, shard)
			}
			out[u] = userDigest{count: d.Count, sum: sum}
		}
	}
	return out, nil
}

func (h httpShards) export(ctx context.Context, shard string, user, from, limit int) ([]server.WireVisit, error) {
	var resp server.ExportResponse
	path := fmt.Sprintf("/v1/export?users=%d&from=%d&limit=%d", user, from, limit)
	if err := h.get(ctx, shard, path, &resp); err != nil {
		return nil, err
	}
	if len(resp.Users) != 1 || resp.Users[0].User != user {
		return nil, fmt.Errorf("cluster: export from %s answered wrong user set", shard)
	}
	return resp.Users[0].Visits, nil
}

func (h httpShards) ingest(ctx context.Context, shard string, req server.ImportRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ans, err := h.g.forwardWithRetry(ctx, http.MethodPost, shard, "/v1/import",
		map[string]string{"Content-Type": "application/json"}, body)
	if err != nil {
		return err
	}
	if ans.status != http.StatusOK {
		return fmt.Errorf("cluster: import to %s answered HTTP %d", shard, ans.status)
	}
	return nil
}

func (h httpShards) alive(shard string) bool { return h.g.shardSnapshot(shard).alive }

func joinUsers(users []int) string {
	buf := make([]byte, 0, len(users)*7)
	for i, u := range users {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(u), 10)
	}
	return string(buf)
}

// --- HTTP handlers -------------------------------------------------------

// ResizeRequest is the POST /v1/cluster/resize body.
type ResizeRequest struct {
	Backends []string `json:"backends"`
}

// ResizeResponse reports how the resize request was handled.
type ResizeResponse struct {
	Status  string          `json:"status"` // started, resumed, joined, noop
	Ranges  int             `json:"ranges,omitempty"`
	Current MigrationStatus `json:"migration"`
}

func (g *Gateway) handleResize(w http.ResponseWriter, r *http.Request) {
	var req ResizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, "cluster: invalid JSON: "+err.Error())
		return
	}
	if len(req.Backends) == 0 {
		httpmw.WriteError(w, http.StatusBadRequest, "cluster: resize needs a backend list")
		return
	}
	wasInstalled := g.migration.Load() != nil
	m, started, err := g.Resize(r.Context(), req.Backends)
	switch {
	case errors.Is(err, ErrResizeConflict):
		httpmw.WriteError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		httpmw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	case m == nil:
		httpmw.WriteJSON(w, http.StatusOK, ResizeResponse{Status: "noop"})
		return
	}
	st := m.Status()
	resp := ResizeResponse{Ranges: st.Ranges, Current: st}
	switch {
	case started && wasInstalled:
		resp.Status = "resumed"
	case started:
		resp.Status = "started"
	default:
		resp.Status = "joined"
	}
	code := http.StatusAccepted
	if !started {
		code = http.StatusOK
	}
	httpmw.WriteJSON(w, code, resp)
}

// handleReadyz is the gateway's readiness: 503 only when no shard is
// alive; a migration in flight degrades readiness to 200 +
// status "degraded" — the gateway is routing fine, but orchestrators
// must not bounce it mid-copy (the migration state machine lives in
// this process).
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := g.ClusterStatus()
	body := struct {
		Status  string        `json:"status"`
		Cluster ClusterStatus `json:"cluster"`
	}{Status: "ok", Cluster: st}
	code := http.StatusOK
	switch {
	case st.AliveShards == 0:
		body.Status = "unready"
		code = http.StatusServiceUnavailable
	case st.Migration != nil && !terminalPhase(st.Migration.State):
		body.Status = "degraded"
	}
	httpmw.WriteJSON(w, code, body)
}
