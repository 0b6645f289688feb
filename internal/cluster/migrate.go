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
// The copy protocol is exact, not approximate. Each range carries a
// write gate (an RWMutex): report traffic for the range holds it shared
// across the whole source(+target) round trip, and the supervisor takes
// it exclusively to freeze the range — at which point no write is in
// flight. Under that freeze the supervisor resets the target's copy,
// enumerates the range's users and captures their source record counts
// C0; from then on every accepted report is double-written (source
// first — the ack — then imported to the target). The copy loop streams
// exactly records [0, C0) per user, in chunks at increasing offsets, so
// copied history and double-written live traffic partition perfectly:
// nothing is lost and nothing lands twice. Every round starts with a
// fresh freeze, so a retried or resumed range recopies from record 0.
// Cutover takes the gate again and compares per-user record counts and
// order-insensitive content digests (store.VisitHash sums) between
// source and target; only an exact match flips the range to done, after
// which routing serves the new owner. Any mismatch — including a target
// crash that resurrected a reset — is repaired by reset + recopy.
//
// Failure semantics: a dying source aborts only its own ranges (its
// keyspace was shed anyway); a dying target rolls its ranges back to
// the old owner, which never stopped being authoritative; a failed
// migration stays installed — done ranges keep routing to their new
// owner, everything else to the old — and re-POSTing the same resize
// resumes it idempotently: done ranges are kept, the rest are reset and
// recopied. Source data is purged only after every range has cut over.
//
// The one unprotected window: the gateway process itself dying
// mid-migration loses the in-memory range states, and post-cutover
// writes that reached only the target cannot be recovered by restarting
// the resize from scratch. Persisting migration state is future work;
// until then, resize from a single gateway and let it finish.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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

	// gate is the range's write barrier. Forwarders hold it shared for
	// the duration of a write (source forward + target import); the
	// supervisor holds it exclusively to freeze the range for count
	// capture and for the cutover verify — guaranteeing no write is in
	// flight at either decision point.
	gate  sync.RWMutex
	state atomic.Int32
	// dirty flips when a double-write to the target fails after the
	// source already acked: the target is now behind, and only a reset +
	// recopy makes it exact again. Read at verify under the gate.
	dirty atomic.Bool

	// Everything below is owned by the supervisor's single range worker;
	// Status reads it under the migration mutex via statusLocked.
	users    []int       // range's users, re-enumerated at each freeze
	frozen   map[int]int // per-user source record count C0 at freeze
	copied   map[int]int // per-user records of [0, C0) copied this round
	attempts int
	lastErr  string
}

func (r *migRange) st() rangeState { return rangeState(r.state.Load()) }

// Migration is one supervised resize operation.
type Migration struct {
	g       *Gateway
	oldRing *Ring
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

// Done returns a channel closed when the current run reaches a terminal
// phase (done or failed).
func (m *Migration) Done() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

// Wait blocks until the current run terminates or ctx expires, then
// returns nil for done and an error for failed.
func (m *Migration) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-m.Done():
	}
	st := m.Status()
	if st.State != "done" {
		return fmt.Errorf("cluster: migration %s: %s", st.State, st.Error)
	}
	return nil
}

func (m *Migration) setPhase(p string) {
	m.mu.Lock()
	m.phase = p
	m.mu.Unlock()
	m.phaseEvent(p)
}

// phaseEvent records one migration state-machine transition on the
// cluster timeline, with the range counts an operator needs to judge
// progress. Called from the supervisor goroutine only.
func (m *Migration) phaseEvent(p string) {
	total, done, aborted := 0, 0, 0
	for _, r := range m.allRanges() {
		total++
		switch r.st() {
		case rangeDone:
			done++
		case rangeAborted:
			aborted++
		}
	}
	m.g.event(EventMigration, "", "migration "+p,
		"phase", p,
		"ranges", strconv.Itoa(total),
		"ranges_done", strconv.Itoa(done),
		"ranges_aborted", strconv.Itoa(aborted),
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
	st := MigrationStatus{
		State:         m.phase,
		From:          m.from,
		To:            m.to,
		StartedAt:     m.started,
		FinishedAt:    m.finished,
		Users:         m.users,
		RecordsCopied: m.records.Load(),
		Resumes:       m.resumes,
		TraceID:       m.traceID,
		Error:         m.errMsg,
	}
	copying, draining := 0, 0
	for _, r := range m.allRanges() {
		st.Ranges++
		rs := r.st()
		switch rs {
		case rangeDone:
			st.RangesDone++
		case rangeAborted:
			st.RangesAborted++
		case rangeCopying:
			copying++
		case rangeDraining:
			draining++
		}
		st.RangeDetail = append(st.RangeDetail, RangeStatus{
			Lo:       strconv.FormatUint(r.Lo, 16),
			Hi:       strconv.FormatUint(r.Hi, 16),
			From:     r.From,
			To:       r.To,
			State:    rs.String(),
			Users:    len(r.users),
			Attempts: r.attempts,
			LastErr:  r.lastErr,
		})
	}
	if st.State == "copying" && copying == 0 && draining > 0 {
		st.State = "draining"
	}
	return st
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ErrResizeConflict is returned when a resize targets a different
// membership while another migration is installed (running or failed).
var ErrResizeConflict = errors.New("cluster: another migration is installed; resume it (re-POST its backends) or wait for it to finish")

// Resize starts, joins or resumes a keyspace migration to the given
// membership. Returns the migration (nil when the resize is a no-op)
// and whether this call started or resumed a run (false = joined one
// already in flight). The heavy work happens in a supervised background
// goroutine; poll /v1/cluster or Wait on the returned Migration.
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
		st := existing.Status()
		if !sameMembers(existing.to, backends) {
			return nil, false, ErrResizeConflict
		}
		if !terminalPhase(st.State) {
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
	moved := DiffRings(oldRing, newRing)

	m := &Migration{
		g:       g,
		oldRing: oldRing,
		newRing: newRing,
		from:    oldRing.Nodes(),
		to:      newRing.Nodes(),
		phase:   "planning",
		started: time.Now(),
		done:    make(chan struct{}),
	}
	for _, n := range m.to {
		if !contains(m.from, n) {
			m.joiners = append(m.joiners, n)
		}
	}
	for _, n := range m.from {
		if !contains(m.to, n) {
			m.leavers = append(m.leavers, n)
		}
	}
	for _, mr := range moved {
		r := &migRange{MovedRange: mr}
		if mr.Lo >= mr.Hi {
			m.wrap = r
			continue
		}
		m.ranges = append(m.ranges, r)
	}
	sort.Slice(m.ranges, func(i, j int) bool { return m.ranges[i].Lo < m.ranges[j].Lo })

	// Install behind the barrier: after Unlock, every in-flight write
	// that predates the migration has drained, so no un-gated write can
	// slip between a range freeze and its count capture.
	g.migration.Store(m)
	g.migBarrier.Lock()
	g.migBarrier.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	g.met.migStarts.Inc()
	g.log.Info("cluster resize started",
		slog.Int("from", len(m.from)), slog.Int("to", len(m.to)),
		slog.Int("moved_ranges", len(moved)),
		slog.Any("joiners", m.joiners), slog.Any("leavers", m.leavers))
	g.spawnMigration(ctx, m)
	return m, true, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
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
		r.frozen, r.copied = nil, nil
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
// then either finish (swap ring, purge sources) or record the failure
// and stay installed for resume.
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

	aborted := 0
	for _, r := range m.allRanges() {
		if r.st() != rangeDone {
			aborted++
		}
	}
	if aborted > 0 {
		m.fail(fmt.Errorf("%d of %d ranges aborted", aborted, len(m.allRanges())))
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
		users, err := m.exportUsers(ctx, s)
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

// migrationAttempts bounds the freeze → copy → verify rounds per range
// before the range is rolled back to its old owner; migrationChunk is
// the visit records per export/import call; migrationWorkers bounds the
// ranges copying at once.
const (
	migrationAttempts = 3
	migrationChunk    = 4096
	migrationWorkers  = 4
)

// runRange drives one range to done or aborted: up to
// migrationAttempts rounds of freeze → copy → verify, aborting early
// when the source or target dies.
func (m *Migration) runRange(ctx context.Context, r *migRange) {
	g := m.g
	for {
		m.mu.Lock()
		r.attempts++
		attempt := r.attempts
		m.mu.Unlock()
		if attempt > migrationAttempts {
			m.abortRange(r, fmt.Errorf("cluster: %d attempts exhausted", migrationAttempts))
			return
		}
		if ctx.Err() != nil {
			m.abortRange(r, ctx.Err())
			return
		}
		if err := m.checkEndpoints(r); err != nil {
			m.abortRange(r, err)
			return
		}

		err := m.freezeRange(ctx, r)
		if err == nil {
			err = m.copyRange(ctx, r)
		}
		if err == nil {
			r.state.Store(int32(rangeDraining))
			var ok bool
			ok, err = m.verifyRange(ctx, r)
			if ok {
				g.met.migRangesDone.Inc()
				return
			}
		}
		if err != nil {
			m.mu.Lock()
			r.lastErr = err.Error()
			m.mu.Unlock()
			if eerr := m.checkEndpoints(r); eerr != nil {
				m.abortRange(r, eerr)
				return
			}
		}
		// Mismatch or transient error with both endpoints alive: reset
		// and recopy on the next round.
		r.state.Store(int32(rangeCopying))
	}
}

// checkEndpoints reports which endpoint of a range died, if any.
func (m *Migration) checkEndpoints(r *migRange) error {
	if !m.g.shardSnapshot(r.From).alive {
		return fmt.Errorf("cluster: source %s died", r.From)
	}
	if !m.g.shardSnapshot(r.To).alive {
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

// freezeRange is the exactness pivot: under the range's exclusive write
// gate — no report in flight — it re-enumerates the range's users,
// resets the target's copy of them, and captures each user's source
// record count C0. Setting state to copying before releasing the gate
// means every subsequent write is double-written AND lands at source
// offset >= C0: the bulk copy of [0, C0) and the double-written tail
// partition the user's history exactly.
func (m *Migration) freezeRange(ctx context.Context, r *migRange) error {
	r.gate.Lock()
	defer r.gate.Unlock()
	users, err := m.exportUsersInRange(ctx, r)
	if err != nil {
		return err
	}
	if err := m.importReset(ctx, r.To, users); err != nil {
		return err
	}
	frozen, err := m.fetchDigests(ctx, r.From, users)
	if err != nil {
		return err
	}
	counts := make(map[int]int, len(frozen))
	for u, d := range frozen {
		counts[u] = d.count
	}
	m.mu.Lock()
	r.users = users
	r.frozen = counts
	r.copied = make(map[int]int, len(users))
	m.mu.Unlock()
	r.dirty.Store(false)
	r.state.Store(int32(rangeCopying))
	return nil
}

// copyRange streams each frozen user's records [0, C0) from source to
// target in migrationChunk-sized chunks at increasing offsets — offsets
// are stable on the source (store.UserVisits), so within a round no
// chunk is sent twice. An error ends the round; the next one freezes
// afresh and recopies from record 0.
func (m *Migration) copyRange(ctx context.Context, r *migRange) error {
	for _, u := range r.users {
		for r.copied[u] < r.frozen[u] {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w := r.copied[u]
			limit := r.frozen[u] - w
			if limit > migrationChunk {
				limit = migrationChunk
			}
			visits, err := m.exportChunk(ctx, r.From, u, w, limit)
			if err != nil {
				return err
			}
			if len(visits) == 0 {
				// The source has fewer records than the freeze counted —
				// it restarted and lost an unsynced WAL tail. Refreeze.
				return fmt.Errorf("cluster: source %s shrank under user %d (watermark %d of %d)",
					r.From, u, w, r.frozen[u])
			}
			if len(visits) > limit {
				visits = visits[:limit]
			}
			if err := m.importVisits(ctx, r.To, visits); err != nil {
				return err
			}
			m.mu.Lock()
			r.copied[u] = w + len(visits)
			m.mu.Unlock()
			m.records.Add(int64(len(visits)))
			if err := fault.Inject(fault.MigrateCopyChunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyRange is the cutover handshake: under the exclusive gate it
// re-enumerates the range's users on the source (catching users born
// during the copy — their every record was double-written) and compares
// per-user record counts and content digests between source and target.
// Only an exact match — and a clean dirty flag — flips the range to
// done; the flip happens before the gate is released, so the first
// write after verify already routes to the new owner.
func (m *Migration) verifyRange(ctx context.Context, r *migRange) (bool, error) {
	r.gate.Lock()
	defer r.gate.Unlock()
	users, err := m.exportUsersInRange(ctx, r)
	if err != nil {
		return false, err
	}
	src, err := m.fetchDigests(ctx, r.From, users)
	if err != nil {
		return false, err
	}
	tgt, err := m.fetchDigests(ctx, r.To, users)
	if err != nil {
		return false, err
	}
	if r.dirty.Load() {
		m.mu.Lock()
		r.lastErr = "dirty: a double-write to the target failed"
		m.mu.Unlock()
		return false, nil
	}
	for _, u := range users {
		s, t := src[u], tgt[u]
		if s.count != t.count || s.sum != t.sum {
			m.mu.Lock()
			r.lastErr = fmt.Sprintf("digest mismatch for user %d: source %d/%x target %d/%x",
				u, s.count, s.sum, t.count, t.sum)
			m.mu.Unlock()
			return false, nil
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
	return true, nil
}

// finish completes a fully cut-over migration: swap the ring and
// membership, purge moved users from surviving sources, prune leavers.
func (m *Migration) finish(ctx context.Context) {
	g := m.g
	m.setPhase("cutover")

	g.ringMu.Lock()
	g.ring = m.newRing
	g.ringMu.Unlock()
	g.event(EventRingRebalance, "", "ring cut over to post-migration membership",
		"backends", strconv.Itoa(len(m.to)))

	g.mu.Lock()
	g.backends = append([]string(nil), m.to...)
	g.mu.Unlock()

	// Purge: moved users' history still sits on surviving sources,
	// double-counting /v1/stats and wasting memory. Leavers skip the
	// purge — they are leaving. A purge failure is logged, not fatal:
	// the copy is authoritative on the target either way.
	purgeUsers := map[string][]int{}
	for _, r := range m.allRanges() {
		if contains(m.to, r.From) {
			purgeUsers[r.From] = append(purgeUsers[r.From], r.users...)
		}
	}
	for src, users := range purgeUsers {
		if len(users) == 0 {
			continue
		}
		if err := m.importReset(ctx, src, users); err != nil {
			g.log.Warn("migration source purge failed",
				slog.String("backend", src), slog.String("err", err.Error()))
		}
	}

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

// --- shard I/O helpers ---------------------------------------------------

type userDigest struct {
	count int
	sum   uint64
}

func (m *Migration) shardGet(ctx context.Context, shard, path string, out any) error {
	ans, err := m.g.forwardWithRetry(ctx, http.MethodGet, shard, path, nil, nil)
	if err != nil {
		return err
	}
	if ans.status != http.StatusOK {
		return fmt.Errorf("cluster: %s%s answered HTTP %d", shard, path, ans.status)
	}
	return json.Unmarshal(ans.body, out)
}

// exportUsers lists every user stored on a shard.
func (m *Migration) exportUsers(ctx context.Context, shard string) ([]int, error) {
	var resp server.ExportUsersResponse
	if err := m.shardGet(ctx, shard, "/v1/export/users", &resp); err != nil {
		return nil, err
	}
	return resp.Users, nil
}

// exportUsersInRange lists the range's users present on its source.
func (m *Migration) exportUsersInRange(ctx context.Context, r *migRange) ([]int, error) {
	all, err := m.exportUsers(ctx, r.From)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, u := range all {
		if r.Contains(userHash(u)) {
			out = append(out, u)
		}
	}
	return out, nil
}

// fetchDigests reads per-user digests from a shard, batching the user
// list into bounded query strings.
func (m *Migration) fetchDigests(ctx context.Context, shard string, users []int) (map[int]userDigest, error) {
	out := make(map[int]userDigest, len(users))
	const batch = 256
	for start := 0; start < len(users); start += batch {
		end := start + batch
		if end > len(users) {
			end = len(users)
		}
		var resp server.DigestResponse
		path := "/v1/export/digest?users=" + joinUsers(users[start:end])
		if err := m.shardGet(ctx, shard, path, &resp); err != nil {
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

// exportChunk reads one user's visits [from, from+limit) from a shard.
func (m *Migration) exportChunk(ctx context.Context, shard string, user, from, limit int) ([]server.WireVisit, error) {
	var resp server.ExportResponse
	path := fmt.Sprintf("/v1/export?users=%d&from=%d&limit=%d", user, from, limit)
	if err := m.shardGet(ctx, shard, path, &resp); err != nil {
		return nil, err
	}
	if len(resp.Users) != 1 || resp.Users[0].User != user {
		return nil, fmt.Errorf("cluster: export from %s answered wrong user set", shard)
	}
	return resp.Users[0].Visits, nil
}

// importVisits appends a chunk to a shard.
func (m *Migration) importVisits(ctx context.Context, shard string, visits []server.WireVisit) error {
	return m.importCall(ctx, shard, server.ImportRequest{Visits: visits})
}

// importReset drops users on a shard (recopy preamble, source purge).
func (m *Migration) importReset(ctx context.Context, shard string, users []int) error {
	if len(users) == 0 {
		return nil
	}
	return m.importCall(ctx, shard, server.ImportRequest{Reset: users})
}

func (m *Migration) importCall(ctx context.Context, shard string, req server.ImportRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ans, err := m.g.forwardWithRetry(ctx, http.MethodPost, shard, "/v1/import",
		map[string]string{"Content-Type": "application/json"}, body)
	if err != nil {
		return err
	}
	if ans.status != http.StatusOK {
		return fmt.Errorf("cluster: import to %s answered HTTP %d", shard, ans.status)
	}
	return nil
}

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
