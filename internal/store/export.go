package store

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"hostprof/internal/trace"
)

// This file is the store's keyspace-migration surface: chunked per-user
// reads with stable offsets, an order-insensitive content digest, and
// user removal. Together they let a gateway stream one user's history to
// another shard, verify the copy without requiring identical arrival
// order, and retire the source copy once routing has cut over.

// UserVisits returns up to limit of the user's visits starting at offset
// from within the user's stored subsequence, plus the subsequence's
// current total length. Offsets are stable: a user's visits live in one
// arrival-ordered log that is only ever appended to (DropUsers removes
// whole users, never a prefix), so log[0:from] never changes between
// calls — the property that makes an export watermark resumable across
// chunks and across exporter restarts. limit <= 0 means no limit.
func (s *Store) UserVisits(user int, from, limit int) ([]trace.Visit, int) {
	from = max(from, 0)
	sh := &s.shards[s.shardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lg := sh.logs[user]
	if lg == nil {
		return nil, 0
	}
	if from >= len(lg.recs) {
		return nil, len(lg.recs)
	}
	recs := lg.recs[from:]
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	out := make([]trace.Visit, len(recs))
	for i, r := range recs {
		out[i] = sh.visit(user, r)
	}
	return out, len(lg.recs)
}

// UserDigest summarizes one user's stored history as a record count and
// an order-insensitive multiset digest (the sum of each visit's content
// hash). Two stores hold identical histories for the user iff both
// values match — regardless of arrival order, which differs between a
// store fed by live traffic and one fed by a migration copy interleaved
// with double-writes.
func (s *Store) UserDigest(user int) (count int, sum uint64) {
	sh := &s.shards[s.shardOf(user)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lg := sh.logs[user]
	if lg == nil {
		return 0, 0
	}
	for _, r := range lg.recs {
		sum += VisitHash(sh.visit(user, r))
	}
	return len(lg.recs), sum
}

// DropUsers removes every visit belonging to the given users, returning
// the number of visits removed. Each user's log is released whole. The
// removal is memory-only — the WAL holds no tombstones — so callers that
// need the drop to survive a crash must Snapshot afterwards; until then a
// replay resurrects the dropped records. The migration protocol tolerates
// that: a resurrected target fails the pre-cutover digest handshake and
// is simply reset and recopied.
func (s *Store) DropUsers(users []int) int {
	if len(users) == 0 {
		return 0
	}
	byShard := make(map[uint64][]int)
	for _, u := range users {
		i := s.shardOf(u)
		byShard[i] = append(byShard[i], u)
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	removed := 0
	for i, us := range byShard {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := 0
		for _, u := range us {
			if lg := sh.logs[u]; lg != nil {
				n += len(lg.recs)
				delete(sh.logs, u)
			}
		}
		if n > 0 {
			sh.n -= n
			sh.order = slices.DeleteFunc(sh.order, func(u int) bool { return sh.logs[u] == nil })
		}
		sh.mu.Unlock()
		removed += n
	}
	return removed
}

// VisitHash is the content hash behind UserDigest: FNV-1a over the
// visit's time and hostname, finalized with a multiply-xorshift mixer so
// near-identical visits (same host, adjacent timestamps) contribute
// uncorrelated terms to the digest sum. The user ID is deliberately
// excluded — digests are always compared per user.
func VisitHash(v trace.Visit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v.Time))
	h.Write(buf[:])
	h.Write([]byte(v.Host))
	x := h.Sum64()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
