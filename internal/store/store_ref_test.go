package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hostprof/internal/trace"
)

// refStore is the visit store before per-user logs, kept as the oracle
// the log store is held to: every shard one arrival-ordered
// []trace.Visit of full visits, every read a scan of the user's shard,
// and the training corpus a stable sort of one copy of everything. It is
// memory-only; the WAL and snapshots do not depend on the layout.
type refStore struct {
	shards [][]trace.Visit
	mask   uint64
}

func newRefStore(shards int) *refStore {
	return &refStore{shards: make([][]trace.Visit, shards), mask: uint64(shards - 1)}
}

func (s *refStore) shardOf(user int) uint64 {
	h := uint64(user) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & s.mask
}

func (s *refStore) Append(v trace.Visit) error {
	if err := CheckHost(v.Host); err != nil {
		return err
	}
	i := s.shardOf(v.User)
	s.shards[i] = append(s.shards[i], v)
	return nil
}

func (s *refStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}

func (s *refStore) Users() []int {
	set := make(map[int]bool)
	for _, sh := range s.shards {
		for _, v := range sh {
			set[v.User] = true
		}
	}
	out := make([]int, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

func (s *refStore) SnapshotTrace() *trace.Trace {
	out := make([]trace.Visit, 0, s.Len())
	for _, sh := range s.shards {
		out = append(out, sh...)
	}
	return trace.New(out)
}

func (s *refStore) Session(user int, end, window int64) []string {
	var sel []trace.Visit
	for _, v := range s.shards[s.shardOf(user)] {
		if v.User == user && v.Time > end-window && v.Time <= end {
			sel = append(sel, v)
		}
	}
	byTime := func(a, b trace.Visit) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(sel, byTime) {
		slices.SortStableFunc(sel, byTime)
	}
	hosts := make([]string, len(sel))
	for i, v := range sel {
		hosts[i] = v.Host
	}
	return hosts
}

func (s *refStore) AllSequences() [][]string { return s.SnapshotTrace().AllSequences() }

func (s *refStore) DailySequences(d int) [][]string { return s.SnapshotTrace().DailySequences(d) }

func (s *refStore) UserVisits(user int, from, limit int) ([]trace.Visit, int) {
	if from < 0 {
		from = 0
	}
	total := 0
	var out []trace.Visit
	for _, v := range s.shards[s.shardOf(user)] {
		if v.User != user {
			continue
		}
		if total >= from && (limit <= 0 || len(out) < limit) {
			out = append(out, v)
		}
		total++
	}
	return out, total
}

func (s *refStore) UserDigest(user int) (count int, sum uint64) {
	for _, v := range s.shards[s.shardOf(user)] {
		if v.User != user {
			continue
		}
		count++
		sum += VisitHash(v)
	}
	return count, sum
}

func (s *refStore) DropUsers(users []int) int {
	if len(users) == 0 {
		return 0
	}
	drop := make(map[int]bool, len(users))
	for _, u := range users {
		drop[u] = true
	}
	removed := 0
	for i, sh := range s.shards {
		kept := sh[:0]
		for _, v := range sh {
			if drop[v.User] {
				removed++
				continue
			}
			kept = append(kept, v)
		}
		s.shards[i] = kept
	}
	return removed
}

// oversizedHost is one byte past what a WAL record stores.
var oversizedHost = strings.Repeat("x", MaxHostBytes+1)

// opHosts is the hostname pool op streams draw from: few enough that
// reports repeat hosts and users share a shard's intern table.
var opHosts = func() []string {
	hosts := make([]string, 40)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%02d.example", i)
	}
	return hosts
}()

// opStream decodes a store workload from bytes, one byte per draw.
type opStream struct{ b []byte }

func (o *opStream) next() int {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return int(c)
}

// runStoreOps drives st and a fresh refStore with the workload data
// decodes — report-shaped batches (equal timestamps, some late, some
// with an oversized host), multi-user import batches, single appends and
// DropUsers — and compares every read of the two after every op.
func runStoreOps(t *testing.T, st *Store, data []byte) *refStore {
	t.Helper()
	ref := newRefStore(len(st.shards))
	ops := opStream{b: data}
	clock := int64(secondsPerDay - 3000)
	var lates []int64
	for len(ops.b) > 0 {
		var touched []int
		switch ops.next() % 4 {
		case 0: // a report: one user, one timestamp, up to 17 hosts
			u := ops.next() % 6
			touched = append(touched, u)
			ts := clock
			switch k := ops.next(); k % 8 {
			case 0: // late: stamped before what the clock has reached
				ts -= int64(1+ops.next()%4) * 300
				lates = append(lates, ts)
			case 1: // the next day
				clock += secondsPerDay - int64(ops.next())*60
				ts = clock
			default:
				clock += int64(k) * 7
				ts = clock
			}
			var all, storable []trace.Visit
			for n := ops.next() % 18; n > 0; n-- {
				h := ops.next()
				v := trace.Visit{User: u, Time: ts, Host: opHosts[h%len(opHosts)]}
				if h == 255 {
					v.Host = oversizedHost
				} else {
					storable = append(storable, v)
				}
				all = append(all, v)
				ref.Append(v) // one visit per call; refuses only the oversized host
			}
			if len(storable) < len(all) {
				before := st.Len()
				if err := st.Append(all...); err == nil {
					t.Fatal("batch with an oversized host accepted")
				}
				if st.Len() != before {
					t.Fatalf("refused batch stored %d visits", st.Len()-before)
				}
			}
			if err := st.Append(storable...); err != nil {
				t.Fatalf("report batch: %v", err)
			}
		case 1: // an import chunk: many users, times up to ~2.6 days back
			var vs []trace.Visit
			for n := ops.next() % 24; n > 0; n-- {
				v := trace.Visit{User: ops.next() % 8, Time: clock - int64(ops.next())*900}
				v.Host = opHosts[ops.next()%len(opHosts)]
				vs = append(vs, v)
				touched = append(touched, v.User)
				ref.Append(v)
			}
			if err := st.Append(vs...); err != nil {
				t.Fatalf("import batch: %v", err)
			}
		case 2: // a migration reset, unknown users included
			var users []int
			for n := ops.next() % 3; n > 0; n-- {
				users = append(users, ops.next()%9)
			}
			touched = users
			if got, want := st.DropUsers(users), ref.DropUsers(users); got != want {
				t.Fatalf("DropUsers(%v) = %d, want %d", users, got, want)
			}
		case 3: // one visit, possibly a little late
			v := trace.Visit{User: ops.next() % 8, Time: clock - int64(ops.next()%4)*60}
			v.Host = opHosts[ops.next()%len(opHosts)]
			touched = append(touched, v.User)
			ref.Append(v)
			if err := st.Append(v); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		compareStores(t, st, ref, clock, lates, touched)
	}
	return ref
}

// compareStores fails unless every read of st equals the reference's:
// counts, users, the snapshot trace, the whole training corpus, the
// daily corpus of the first days, the last days and the clock's day,
// and every user's digest. For each user in sweep (nil: every user) it
// also compares UserVisits at every offset and limit (the boundary ones
// once the user holds many visits), and sessions whose windows end at
// the clock, around late reports and at the user's own visit times.
func compareStores(t *testing.T, st *Store, ref *refStore, clock int64, lates []int64, sweep []int) {
	t.Helper()
	if got, want := st.Len(), ref.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	users := ref.Users()
	if got := st.Users(); !reflect.DeepEqual(got, users) {
		t.Fatalf("Users = %v, want %v", got, users)
	}
	if got := st.UserCount(); got != len(users) {
		t.Fatalf("UserCount = %d, want %d", got, len(users))
	}
	snap := ref.SnapshotTrace()
	if got := st.SnapshotTrace().Visits(); !reflect.DeepEqual(got, snap.Visits()) {
		t.Fatalf("SnapshotTrace diverged:\n got %v\nwant %v", got, snap.Visits())
	}
	if got, want := st.AllSequences(), ref.AllSequences(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AllSequences diverged:\n got %q\nwant %q", got, want)
	}
	days := snap.Days()
	for _, d := range []int{-1, 0, 1, int(clock / secondsPerDay), days - 2, days - 1, days} {
		if got, want := st.DailySequences(d), ref.DailySequences(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("DailySequences(%d) diverged:\n got %q\nwant %q", d, got, want)
		}
	}
	ends := []int64{clock, clock + 1}
	for _, l := range lates[max(0, len(lates)-3):] {
		ends = append(ends, l-1, l, l+1)
	}
	for _, u := range append(users, 1<<20) {
		gc, gs := st.UserDigest(u)
		wc, ws := ref.UserDigest(u)
		if gc != wc || gs != ws {
			t.Fatalf("UserDigest(%d) = %d/%x, want %d/%x", u, gc, gs, wc, ws)
		}
	}
	if sweep == nil {
		sweep = users
	}
	for _, u := range append(sweep, 1<<20) {
		all, total := ref.UserVisits(u, 0, 0)
		// Every offset and limit while the log is short; the boundary
		// offsets and limits of a longer one, whose sweep would cost the
		// square of its length after every op.
		froms := []int{-1, 0, 1, total / 2, total - 1, total, total + 1}
		if total <= 16 {
			froms = span(-1, total+1)
		}
		for _, from := range froms {
			limits := []int{-1, 0, 1, 2, total - from, total - from + 1}
			if total <= 16 {
				limits = span(-1, total+1)
			}
			for _, lim := range limits {
				got, gn := st.UserVisits(u, from, lim)
				want, wn := ref.UserVisits(u, from, lim)
				if gn != wn || !sameSlice(got, want) {
					t.Fatalf("UserVisits(%d, %d, %d) = %v/%d, want %v/%d", u, from, lim, got, gn, want, wn)
				}
			}
		}
		uends := ends
		for i := 0; i < len(all); i += max(1, len(all)/4) {
			uends = append(uends, all[i].Time)
		}
		for _, end := range uends {
			for _, window := range []int64{-1, 0, 1, 600, 1200, secondsPerDay, 1 << 40} {
				if got, want := st.Session(u, end, window), ref.Session(u, end, window); !sameSlice(got, want) {
					t.Fatalf("Session(%d, %d, %d) = %q, want %q", u, end, window, got, want)
				}
			}
		}
	}
}

// span returns lo, lo+1, …, hi.
func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// sameSlice is reflect.DeepEqual for slices of comparable elements, at a
// fraction of its cost: equal elements, and nil only where want is nil.
func sameSlice[E comparable](got, want []E) bool {
	return (got == nil) == (want == nil) && slices.Equal(got, want)
}

// opBytes is a seeded op stream of n bytes.
func opBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestStoreMatchesReference holds the per-user-log store to refStore on
// seeded op streams, then snapshots, reopens and compares once more: the
// snapshot writes users one by one and must restore every log in its
// arrival order.
func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		dir := t.TempDir()
		st := mustOpen(t, Config{Dir: dir, Shards: 2, Fsync: FsyncNever})
		ref := runStoreOps(t, st, opBytes(seed, 1500))
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, Config{Dir: dir, Shards: 2})
		compareStores(t, re, ref, 0, nil, nil)
	}
}
