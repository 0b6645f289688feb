// Package store is the profiling pipeline's storage engine: a
// user-sharded in-memory visit store with optional durability through a
// write-ahead log and periodic snapshots.
//
// Scale: the paper's eavesdropper accumulates months of browsing (600M
// connections over six months in Section 3; a live back-end fed by 1329
// users for a month in Section 5), so the visit store is both the
// hottest write path in the system and the one component whose loss
// destroys the observer's accumulated advantage. The design splits the
// two concerns:
//
//   - Concurrency — visits are partitioned into power-of-two shards by
//     user, each behind its own mutex, so concurrent ingestion from
//     many capture threads scales instead of serializing on one lock.
//     Within a shard every user has one arrival-ordered log of 16-byte
//     records (time, interned host), so a session read is a binary
//     search over one user's log.
//   - Durability — when a directory is configured, every appended visit
//     is framed (length + CRC-32C) into an append-only segmented WAL, and
//     snapshots (visits + trained model) are written atomically via
//     temp-file + rename. Recovery loads the newest valid snapshot and
//     replays the WAL tail, tolerating a torn final record.
//
// A Store with no directory is a purely in-memory sharded store with
// identical semantics and zero I/O.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/core"
	"hostprof/internal/obs"
	"hostprof/internal/trace"
)

// FsyncPolicy selects when WAL writes are forced to stable storage.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) fsyncs from a background ticker every
	// Config.FsyncEvery: bounded data loss on power failure, near-zero
	// per-append cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs once per acknowledged Append call (a report,
	// or an import chunk) before it returns: zero-loss, slowest.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache: complete records
	// still survive process crashes, but not power loss.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsync parses a flag spelling ("always", "interval", "never").
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

// Config assembles a Store.
type Config struct {
	// Dir enables durability: WAL segments and snapshots live here.
	// Empty selects a purely in-memory store.
	Dir string
	// Shards is the shard count, rounded up to a power of two.
	// Default 16.
	Shards int
	// Fsync is the WAL flush policy. Default FsyncInterval.
	Fsync FsyncPolicy
	// FsyncEvery is the background flush cadence under FsyncInterval.
	// Default 100ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates WAL segments past this size. Default 64 MiB.
	SegmentBytes int64
	// SnapshotEvery, when positive, snapshots on a background ticker in
	// addition to explicit Snapshot calls.
	SnapshotEvery time.Duration
	// ReprobeMin and ReprobeMax bound the exponential backoff between
	// WAL re-attach probes while the store is degraded (see Append).
	// Defaults 500ms and 30s.
	ReprobeMin, ReprobeMax time.Duration
	// Metrics, when non-nil, is the registry the store exports into
	// (hostprof_store_* names; see internal/obs).
	Metrics *obs.Registry
	// Logger receives the store's structured logs (recovery summary,
	// degraded-mode transitions). Nil selects slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards&(c.Shards-1) != 0 {
		c.Shards = 1 << bits.Len(uint(c.Shards))
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.ReprobeMin <= 0 {
		c.ReprobeMin = 500 * time.Millisecond
	}
	if c.ReprobeMax < c.ReprobeMin {
		c.ReprobeMax = 30 * time.Second
		if c.ReprobeMax < c.ReprobeMin {
			c.ReprobeMax = c.ReprobeMin
		}
	}
	return c
}

// shard is one visit partition: one arrival-ordered log per user, with
// hostnames interned per shard so a stored visit is a 16-byte record that
// holds no pointer. The table never shrinks; it is bounded by the
// distinct hostnames the shard has seen. The padding keeps independently
// locked shards on separate cache lines.
type shard struct {
	mu    sync.Mutex
	logs  map[int]*userLog
	order []int // users in first-append order, the order snapshots use
	n     int   // visits held
	ids   map[string]uint32
	names []string // names[id] is the hostname interned as id
	_     [48]byte
}

// userLog is one user's visits in arrival order. sorted stays true while
// every record's time is at least its predecessor's; a late report clears
// it for good, and reads of this user then sort a copy.
type userLog struct {
	recs   []visitRec
	sorted bool
}

// visitRec is one stored visit of a known user.
type visitRec struct {
	Time int64
	Host uint32 // index into the shard's names
}

// add appends v to its user's log. The caller holds sh.mu (or owns the
// store, during recovery).
func (sh *shard) add(v trace.Visit) {
	lg := sh.logs[v.User]
	if lg == nil {
		lg = &userLog{sorted: true}
		sh.logs[v.User] = lg
		sh.order = append(sh.order, v.User)
	}
	if n := len(lg.recs); n > 0 && v.Time < lg.recs[n-1].Time {
		lg.sorted = false
	}
	id, ok := sh.ids[v.Host]
	if !ok {
		// A clone, so the table never pins the buffer a host was cut from.
		host := strings.Clone(v.Host)
		id = uint32(len(sh.names))
		sh.names = append(sh.names, host)
		sh.ids[host] = id
	}
	lg.recs = append(lg.recs, visitRec{Time: v.Time, Host: id})
	sh.n++
}

// visit rebuilds the trace.Visit of user's record r.
func (sh *shard) visit(user int, r visitRec) trace.Visit {
	return trace.Visit{User: user, Time: r.Time, Host: sh.names[r.Host]}
}

// byTime returns the log's records in time order, equal times in arrival
// order: the log itself while it is sorted, else a sorted copy.
func (lg *userLog) byTime() []visitRec {
	if lg.sorted {
		return lg.recs
	}
	recs := slices.Clone(lg.recs)
	slices.SortStableFunc(recs, func(a, b visitRec) int { return cmp.Compare(a.Time, b.Time) })
	return recs
}

// RecoveryStats reports what startup recovery found.
type RecoveryStats struct {
	// SnapshotVisits is the visit count loaded from the snapshot.
	SnapshotVisits int
	// ReplayedRecords is the count of complete WAL records replayed.
	ReplayedRecords int
	// TornTail reports whether the newest segment ended in a torn
	// record (the expected artefact of a crash mid-append).
	TornTail bool
	// ModelRestored reports whether the snapshot carried a trained
	// model.
	ModelRestored bool
	// SkippedSnapshots counts snapshots newer than the one loaded (or
	// than none) that could not be read. Non-zero means recovery fell
	// back, and visits only the skipped files held are missing.
	SkippedSnapshots int
}

// Store is the sharded visit store. All methods are safe for concurrent
// use.
type Store struct {
	cfg Config
	met storeMetrics

	// gate serializes snapshot cuts against appends: Append holds it
	// shared (appenders never block each other here), Snapshot holds it
	// exclusively while copying visits and cutting the WAL, so the
	// snapshot plus the post-cut segments always equal the store
	// exactly — no lost and no duplicated visit.
	gate   sync.RWMutex
	shards []shard
	mask   uint64

	wal *walWriter // nil when in-memory

	// degraded flips when a WAL append fails: the store keeps accepting
	// visits memory-only while a background prober re-attaches the WAL
	// with exponential backoff. degradeMu serializes the transition (and
	// prober spawn) against Close.
	degraded  atomic.Bool
	degradeMu sync.Mutex
	closing   bool

	modelMu  sync.Mutex
	model    *core.Model
	artifact *ModelArtifact // cached serialized form; nil until first export

	snapMu sync.Mutex // serializes Snapshot calls
	rec    RecoveryStats

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Open builds a store, recovering durable state from cfg.Dir when set:
// the newest valid snapshot is loaded, then every WAL segment after its
// cut point is replayed in order. A torn final record — the signature of
// a crash mid-append — is truncated away and reported in RecoveryStats;
// corruption anywhere else fails the open.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:    cfg,
		shards: make([]shard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
		stop:   make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].logs = make(map[int]*userLog)
		s.shards[i].ids = make(map[string]uint32)
	}
	s.met = newStoreMetrics(cfg.Metrics, s)
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	cfg.Logger.Info("store recovered",
		slog.String("dir", cfg.Dir),
		slog.String("fsync", cfg.Fsync.String()),
		slog.Int("snapshot_visits", s.rec.SnapshotVisits),
		slog.Int("wal_records", s.rec.ReplayedRecords),
		slog.Bool("torn_tail", s.rec.TornTail),
		slog.Bool("model_restored", s.rec.ModelRestored),
		slog.Int("skipped_snapshots", s.rec.SkippedSnapshots))
	if cfg.Fsync == FsyncInterval {
		s.wg.Add(1)
		go s.fsyncLoop()
	}
	if cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// recover loads the newest snapshot, replays the WAL tail and opens a
// fresh segment for new appends.
func (s *Store) recover() error {
	wire, model, haveSnap, err := s.newestSnapshot()
	if err != nil {
		return err
	}
	var snapSeq uint64
	if haveSnap {
		snapSeq = wire.Seq
		s.applyVisits(wire.Visits)
		if model != nil {
			// The snapshot's bytes are the model's artifact: the version
			// served after a restart is the hash of what is on disk, and
			// the first /readyz does not encode the model to learn it.
			s.model = model
			s.artifact = &ModelArtifact{Version: ArtifactVersion(wire.Model), Data: wire.Model}
		}
		s.rec.SnapshotVisits = len(wire.Visits)
		s.rec.ModelRestored = model != nil
	}
	segs, err := listSegments(s.cfg.Dir)
	if err != nil {
		return err
	}
	maxSeq := snapSeq
	for i, seg := range segs {
		if seg.seq > maxSeq {
			maxSeq = seg.seq
		}
		if seg.seq <= snapSeq {
			// Covered by the snapshot; left over from a crash between
			// snapshot publish and segment removal.
			continue
		}
		n, torn, err := replaySegment(seg.path, i == len(segs)-1, s.applyVisit)
		if err != nil {
			return err
		}
		s.rec.ReplayedRecords += n
		if torn {
			s.rec.TornTail = true
			s.met.recoveryTorn.Inc()
		}
	}
	s.met.recoveryRecords.Add(int64(s.rec.ReplayedRecords))
	s.wal, err = openWAL(s.cfg.Dir, maxSeq+1, s.cfg.Fsync, s.cfg.SegmentBytes, &s.met)
	return err
}

// applyVisit inserts v without WAL traffic (recovery path).
func (s *Store) applyVisit(v trace.Visit) {
	s.shards[s.shardOf(v.User)].add(v)
}

// applyVisits inserts a snapshot's visits without WAL traffic, each
// shard's in slice order. Interning a host is a map lookup per visit, so
// the shards are split across GOMAXPROCS workers: the store is not yet
// shared and each worker owns the shards it fills.
func (s *Store) applyVisits(vs []trace.Visit) {
	workers := min(runtime.GOMAXPROCS(0), len(s.shards))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range vs {
				if i := s.shardOf(v.User); int(i)%workers == w {
					s.shards[i].add(v)
				}
			}
		}()
	}
	wg.Wait()
}

func (s *Store) shardOf(user int) uint64 {
	h := uint64(user) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & s.mask
}

// Recovery returns what startup recovery found (zero for in-memory or
// first-boot stores).
func (s *Store) Recovery() RecoveryStats { return s.rec }

// Append records a batch of visits — a report's hosts, an import chunk —
// WAL first (when durable), then the users' shards. The call takes the
// snapshot gate once, frames every record into one WAL write per segment
// it lands in, and locks each shard once per run of consecutive visits
// that hash to it. Appends from different users contend only on the
// WAL's internal lock, never on a store-wide mutex. Under FsyncAlways the
// batch is fsynced once before Append returns.
//
// A WAL write failure does not fail the append: the store degrades to
// memory-only mode (visible as Degraded and the hostprof_store_degraded
// gauge), keeps accepting visits, and re-probes the WAL with bounded
// exponential backoff until it re-attaches. Visits accepted while
// degraded are covered by the snapshot taken on re-attach; only a crash
// during the degraded window can lose them — the price of staying up.
// Append fails only for an unstorable record (oversized hostname), and
// then stores none of the batch.
func (s *Store) Append(vs ...trace.Visit) error {
	for _, v := range vs {
		if err := CheckHost(v.Host); err != nil {
			return err
		}
	}
	if len(vs) == 0 {
		return nil
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.wal != nil && !s.degraded.Load() {
		if err := s.wal.Append(vs); err != nil {
			s.met.appendErrors.Inc()
			s.degrade()
		}
	}
	s.met.appends.Add(int64(len(vs)))
	for len(vs) > 0 {
		i := s.shardOf(vs[0].User)
		n := 1
		for n < len(vs) && s.shardOf(vs[n].User) == i {
			n++
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range vs[:n] {
			sh.add(v)
		}
		sh.mu.Unlock()
		vs = vs[n:]
	}
	return nil
}

// Degraded reports whether the store is running memory-only after a WAL
// failure, with durability suspended until the prober re-attaches.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// degrade enters memory-only mode and spawns the re-probe loop; only
// the first caller after a healthy period does anything.
func (s *Store) degrade() {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.closing || s.degraded.Load() {
		return
	}
	s.degraded.Store(true)
	s.cfg.Logger.Warn("store degraded: WAL append failed, serving memory-only until re-attach")
	s.wg.Add(1)
	go s.reprobeLoop()
}

// reprobeLoop tries to re-attach the WAL with exponential backoff
// between cfg.ReprobeMin and cfg.ReprobeMax, then restores durability:
// the post-re-attach snapshot persists everything ingested while the
// WAL was down.
func (s *Store) reprobeLoop() {
	defer s.wg.Done()
	backoff := s.cfg.ReprobeMin
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
		if err := s.wal.reattach(); err == nil {
			s.degraded.Store(false)
			s.met.walReattaches.Inc()
			s.cfg.Logger.Info("store WAL re-attached, durability restored")
			s.Snapshot() // best effort; failures count in snapshot_errors_total
			return
		} else {
			s.cfg.Logger.Debug("store WAL re-attach probe failed",
				slog.String("error", err.Error()),
				slog.Duration("next_probe", backoff))
		}
		s.met.appendErrors.Inc()
		s.met.walProbeFailures.Inc()
		backoff *= 2
		if backoff > s.cfg.ReprobeMax {
			backoff = s.cfg.ReprobeMax
		}
		timer.Reset(backoff)
	}
}

// Len returns the number of stored visits.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// UserCount returns the number of distinct users in the store, read from
// the shards' user maps without visiting a record.
func (s *Store) UserCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.logs)
		sh.mu.Unlock()
	}
	return n
}

// Users returns the sorted distinct user IDs in the store.
func (s *Store) Users() []int {
	out := []int{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for u := range sh.logs {
			out = append(out, u)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// copyVisits copies every visit into one fresh slice, user by user in
// each shard's first-append order, each user's visits in arrival order.
// Callers that need a cut consistent with the WAL must hold the gate
// exclusively.
func (s *Store) copyVisits() []trace.Visit {
	out := make([]trace.Visit, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, u := range sh.order {
			for _, r := range sh.logs[u].recs {
				out = append(out, sh.visit(u, r))
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotTrace returns a point-in-time copy of the store as a sorted
// trace. The result shares nothing with the store, so callers may window
// and iterate it freely while ingestion continues.
func (s *Store) SnapshotTrace() *trace.Trace {
	return trace.New(s.copyVisits())
}

// Session returns the hostnames user requested in (end-window, end], in
// time order with equal times in arrival order — the paper's s_u^T. It
// reads only the user's log: two binary searches while the log is
// sorted, a scan of that one log after a late report.
func (s *Store) Session(user int, end, window int64) []string {
	sh := &s.shards[s.shardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lg := sh.logs[user]
	if lg == nil {
		return []string{}
	}
	var sel []visitRec
	if lg.sorted {
		recs := lg.recs
		lo := sort.Search(len(recs), func(i int) bool { return recs[i].Time > end-window })
		hi := sort.Search(len(recs), func(i int) bool { return recs[i].Time > end })
		sel = recs[lo:max(lo, hi)]
	} else {
		for _, r := range lg.recs {
			if r.Time > end-window && r.Time <= end {
				sel = append(sel, r)
			}
		}
		slices.SortStableFunc(sel, func(a, b visitRec) int { return cmp.Compare(a.Time, b.Time) })
	}
	return sh.hosts(sel)
}

// secondsPerDay cuts the timeline into the days trace.Visit.Day counts.
const secondsPerDay = 86400

// userSeq is one user's hostname sequence over some span of time.
type userSeq struct {
	day   int64
	user  int
	hosts []string
}

// sortedHosts orders training sequences by day, then user ID, and
// returns their hostnames.
func sortedHosts(seqs []userSeq) [][]string {
	slices.SortFunc(seqs, func(a, b userSeq) int {
		if c := cmp.Compare(a.day, b.day); c != 0 {
			return c
		}
		return cmp.Compare(a.user, b.user)
	})
	out := make([][]string, len(seqs))
	for i, q := range seqs {
		out[i] = q.hosts
	}
	return out
}

// hosts returns the hostnames of recs.
func (sh *shard) hosts(recs []visitRec) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = sh.names[r.Host]
	}
	return out
}

// AllSequences returns one hostname sequence per (user, day) pair — the
// full-history training corpus — in (day, user ascending) order, each in
// time order. Visits before time 0 belong to no day and are left out. It
// is read straight from the user logs: each user's time-ordered log is
// cut into days, and only those per-(user, day) runs are sorted.
func (s *Store) AllSequences() [][]string {
	var seqs []userSeq
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for u, lg := range sh.logs {
			recs := lg.byTime()
			j := sort.Search(len(recs), func(k int) bool { return recs[k].Time >= 0 })
			for j < len(recs) {
				day := recs[j].Time / secondsPerDay
				k := j + 1
				for k < len(recs) && recs[k].Time/secondsPerDay == day {
					k++
				}
				seqs = append(seqs, userSeq{day: day, user: u, hosts: sh.hosts(recs[j:k])})
				j = k
			}
		}
		sh.mu.Unlock()
	}
	if len(seqs) == 0 {
		return nil
	}
	return sortedHosts(seqs)
}

// DailySequences returns day d's per-user training sequences — the
// visits in [d·86400, (d+1)·86400) — in ascending user order, each in
// time order.
func (s *Store) DailySequences(d int) [][]string {
	lo, hi := int64(d)*secondsPerDay, int64(d+1)*secondsPerDay
	var seqs []userSeq
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for u, lg := range sh.logs {
			recs := lg.byTime()
			a := sort.Search(len(recs), func(k int) bool { return recs[k].Time >= lo })
			b := sort.Search(len(recs), func(k int) bool { return recs[k].Time >= hi })
			if a < b {
				seqs = append(seqs, userSeq{user: u, hosts: sh.hosts(recs[a:b])})
			}
		}
		sh.mu.Unlock()
	}
	return sortedHosts(seqs)
}

// Model returns the store's current trained model, or nil. After a
// durable restart this is the model restored from the newest snapshot —
// a warm start that skips the first retrain.
func (s *Store) Model() *core.Model {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	return s.model
}

// SetModel installs a freshly trained model; it is persisted by the next
// Snapshot. Any cached model artifact is invalidated.
func (s *Store) SetModel(m *core.Model) {
	s.modelMu.Lock()
	s.model = m
	s.artifact = nil
	s.modelMu.Unlock()
}

// ModelArtifact is the store's model as a transferable artifact: the
// model serialized with core.Model.Save plus a content-derived version.
// Two nodes holding byte-identical models report the same Version, so a
// cluster can converge on "every shard serves generation X" by comparing
// versions alone.
type ModelArtifact struct {
	// Version is the hex-encoded truncated SHA-256 of Data — a
	// content address, not a sequence number, so it survives restarts
	// and is comparable across nodes with no coordination.
	Version string
	// Data is the serialized model (core.Model.Save wire format).
	Data []byte
}

// ArtifactVersion computes the content version of a serialized model.
func ArtifactVersion(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// ModelArtifact serializes the current model into a versioned artifact.
// The serialized form is cached until the next SetModel/InstallModel, so
// repeated exports (a gateway distributing one generation to N peers)
// pay the encoding cost once. ok is false when no model is trained yet.
func (s *Store) ModelArtifact() (art ModelArtifact, ok bool, err error) {
	m, art, err := s.modelAndArtifact()
	return art, m != nil, err
}

// modelAndArtifact returns the current model with its artifact, encoding
// it if no one has since the model was set. Both are zero without a
// model.
func (s *Store) modelAndArtifact() (*core.Model, ModelArtifact, error) {
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	if s.model == nil {
		return nil, ModelArtifact{}, nil
	}
	if s.artifact == nil {
		var buf bytes.Buffer
		if err := s.model.Save(&buf); err != nil {
			return nil, ModelArtifact{}, fmt.Errorf("store: exporting model: %w", err)
		}
		s.artifact = &ModelArtifact{
			Version: ArtifactVersion(buf.Bytes()),
			Data:    buf.Bytes(),
		}
	}
	return s.model, *s.artifact, nil
}

// ModelVersion returns the current model's content version, or "" when
// no model is trained. It shares the artifact cache with ModelArtifact.
func (s *Store) ModelVersion() string {
	art, ok, err := s.ModelArtifact()
	if err != nil || !ok {
		return ""
	}
	return art.Version
}

// InstallModel installs a model received from a peer, priming the
// artifact cache with its already-serialized bytes so re-export (and
// version reads) skip the encode entirely. data must be the serialized
// form of m; it is persisted by the next Snapshot.
func (s *Store) InstallModel(m *core.Model, data []byte) {
	s.modelMu.Lock()
	s.model = m
	s.artifact = &ModelArtifact{Version: ArtifactVersion(data), Data: data}
	s.modelMu.Unlock()
}

// ErrDegraded is returned by Snapshot while the WAL is detached: a
// snapshot cut needs a healthy log to retire segments against.
var ErrDegraded = errors.New("store: degraded (WAL detached)")

// Snapshot writes a durable snapshot of the current visits and model,
// then retires the WAL segments it covers. The model goes to disk as its
// cached artifact — the bytes whose hash ModelVersion reports — with the
// model's HNSW graph, when it has one, encoded beside it. Appends are
// blocked only for the in-memory copy and WAL cut, not for the disk
// write. No-op for in-memory stores; ErrDegraded while the WAL is
// detached.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	sp := obs.StartSpan(s.met.snapshotSeconds)
	s.gate.Lock()
	visits := s.copyVisits()
	cut, err := s.wal.Cut()
	s.gate.Unlock()
	if err != nil {
		s.met.snapshotErrors.Inc()
		return err
	}
	model, art, err := s.modelAndArtifact()
	if err != nil {
		s.met.snapshotErrors.Inc()
		return err
	}
	var ann []byte
	if model != nil {
		ann = model.EncodedANN()
	}
	if err := writeSnapshot(s.cfg.Dir, cut, visits, art.Data, ann); err != nil {
		s.met.snapshotErrors.Inc()
		return err
	}
	removeObsolete(s.cfg.Dir, cut, cut)
	sp.End()
	return nil
}

// Close stops background work, flushes the WAL and closes it. Close does
// not snapshot — the WAL already holds every record — but callers that
// want the fastest possible next recovery (e.g. graceful server
// shutdown) should call Snapshot first.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		// Block new degrade transitions so no prober goroutine is
		// spawned between close(stop) and wg.Wait.
		s.degradeMu.Lock()
		s.closing = true
		s.degradeMu.Unlock()
		close(s.stop)
		s.wg.Wait()
		if s.wal != nil {
			s.closeErr = s.wal.Close()
		}
	})
	return s.closeErr
}

func (s *Store) fsyncLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.wal.Sync()
		case <-s.stop:
			return
		}
	}
}

func (s *Store) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Snapshot()
		case <-s.stop:
			return
		}
	}
}
