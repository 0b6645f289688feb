package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"hostprof/internal/trace"
)

// shardsOf returns the shard sections of a default in-memory store
// holding vs, for writeSnapshot.
func shardsOf(t testing.TB, vs ...trace.Visit) []byte {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(vs...); err != nil {
		t.Fatal(err)
	}
	return s.appendShards(nil)
}

// snapshotBytes is the snapshot file of seq, model, graph and shard
// sections, in memory.
func snapshotBytes(seq uint64, model, ann, shards []byte) []byte {
	return bytes.Join(snapshotParts(seq, model, ann, shards), nil)
}

// withSnapCRC returns body followed by its CRC-32C trailer.
func withSnapCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, crcTable))
}

// assertSameReads wants every read of got to equal want's: Len, Users,
// the training corpus, and per user the arrival-ordered log, a session
// over all time and one cut at the user's middle visit.
func assertSameReads(t testing.TB, got, want *Store) {
	t.Helper()
	if got.Len() != want.Len() || got.UserCount() != want.UserCount() || !slices.Equal(got.Users(), want.Users()) {
		t.Fatalf("Len %d users %v, want %d users %v", got.Len(), got.Users(), want.Len(), want.Users())
	}
	if g, w := got.AllSequences(), want.AllSequences(); !reflect.DeepEqual(g, w) {
		t.Fatalf("AllSequences differ: %d sequences, want %d", len(g), len(w))
	}
	for _, u := range want.Users() {
		gv, gn := got.UserVisits(u, 0, 0)
		wv, wn := want.UserVisits(u, 0, 0)
		if gn != wn || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("user %d's log: %v, want %v", u, gv, wv)
		}
		mid := wv[len(wv)/2].Time
		for _, w := range [][2]int64{{1 << 61, 1 << 62}, {mid, 1 << 62}, {mid, 1}} {
			if g, w := got.Session(u, w[0], w[1]), want.Session(u, w[0], w[1]); !slices.Equal(g, w) {
				t.Fatalf("user %d's session: %v, want %v", u, g, w)
			}
		}
	}
}

// TestSnapshotReopenMatches: a store reopened from a snapshot — with a
// late (unsorted) log, dropped users and a WAL tail after the cut —
// answers every read as before the restart, at its own shard count and
// at others, and a snapshot written at another count reopens the same.
func TestSnapshotReopenMatches(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		appendAll(t, s, []trace.Visit{visit(i%37, int64(1000*i), fmt.Sprintf("h%d.example", i%53))})
	}
	appendAll(t, s, []trace.Visit{visit(5, 7, "late.example"), visit(5, 7, "late2.example")})
	if n := s.DropUsers([]int{2, 11, 30}); n == 0 {
		t.Fatal("dropped nothing")
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, []trace.Visit{visit(6, 3, "tail.example"), visit(99, 5, "new.example"), visit(2, 8, "back.example")})
	crash(s)

	for _, shards := range []int{16, 4, 64, 1} {
		s2 := mustOpen(t, Config{Dir: dir, Shards: shards})
		if rec := s2.Recovery(); rec.ReplayedRecords != 3 || rec.SkippedSnapshots != 0 {
			t.Fatalf("%d shards: recovery = %+v", shards, rec)
		}
		assertSameReads(t, s2, s)
	}
	// The same store written at 4 shards reopens at 16.
	s4 := mustOpen(t, Config{Dir: dir, Shards: 4})
	if err := s4.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s4.Close()
	s16 := mustOpen(t, Config{Dir: dir, Shards: 16})
	if rec := s16.Recovery(); rec.ReplayedRecords != 0 || rec.SnapshotVisits != s.Len() {
		t.Fatalf("reopened from the 4-shard snapshot: recovery = %+v", rec)
	}
	assertSameReads(t, s16, s)
}

// TestSnapshotDecodeRefusesEachCheck breaks one field of a one-shard,
// one-visit snapshot at a time, the checksum made to hold again, and
// wants the check on that field to refuse it with its own error.
func TestSnapshotDecodeRefusesEachCheck(t *testing.T) {
	s := mustOpen(t, Config{Shards: 1})
	appendAll(t, s, []trace.Visit{visit(1, 5, "a.example")})
	raw := snapshotBytes(9, nil, nil, s.appendShards(nil))
	// Offsets: seq 8, model length 16, graph length 24, shards 32, names
	// 36, first name's length 40, users 53, user 57, records 65, time
	// 73, host 81, padding 85, trailer 89.
	if len(raw) != 93 {
		t.Fatalf("the one-visit snapshot is %d bytes, the layout says 93", len(raw))
	}
	snap, err := decodeSnapshot(raw)
	if err != nil || snap.Seq != 9 || len(snap.shards) != 1 || !reflect.DeepEqual(snap.shards[0].logs, [][]visitRec{{{Time: 5}}}) {
		t.Fatalf("decodeSnapshot = %+v, %v", snap, err)
	}
	body := raw[:len(raw)-snapshotTrailer]
	put := func(off int, v uint64, width int) []byte {
		b := bytes.Clone(body)
		if width == 4 {
			binary.LittleEndian.PutUint32(b[off:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(b[off:], v)
		}
		return withSnapCRC(b)
	}
	flipped := bytes.Clone(raw)
	flipped[60] ^= 1
	bigUser := errSnapUser
	if strconv.IntSize == 64 {
		bigUser = nil
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"magic only", []byte(snapshotMagic), errSnapTruncated},
		{"flipped bit", flipped, errSnapChecksum},
		{"version", put(4, snapshotVersion+1, 4), errSnapVersion},
		{"no seq", withSnapCRC(body[:12]), errSnapTruncated},
		{"model past the end", put(16, 1<<40, 8), errSnapSection},
		{"graph past the end", put(24, 100, 8), errSnapSection},
		{"shards past the end", put(32, 1<<20, 4), errSnapShards},
		{"names past the end", put(36, 1<<20, 4), errSnapNames},
		{"name past the end", put(40, 1<<31, 4), errSnapNames},
		{"users past the end", put(53, 2, 4), errSnapUsers},
		{"user beyond an int", put(57, 1<<40, 8), bigUser},
		{"empty log", put(65, 0, 8), errSnapUsers},
		{"records past the end", put(65, 2, 8), errSnapUsers},
		{"host not in the table", put(81, 1, 4), errSnapHost},
		{"padding not zero", put(85, 1, 4), errSnapHost},
		{"trailing byte", withSnapCRC(append(bytes.Clone(body), 0)), errSnapTrailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeSnapshot(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("decodeSnapshot = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzSnapshotLoad holds the flat-layout snapshot decoder to: an error,
// or a snapshot that restores into stores of any shard count with the
// same reads, and that written again decodes to those reads once more.
// Each input is also tried with its checksum made to hold, so that
// mutations reach the checks behind it. Inputs without the layout's
// magic go to gob and are left out.
func FuzzSnapshotLoad(f *testing.F) {
	s, err := Open(Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		s.Append(visit(i%5, int64(10*i), fmt.Sprintf("h%d.example", i%7)))
	}
	s.Append(visit(3, 1, "late.example"))
	f.Add(snapshotBytes(4, []byte("model"), []byte("graph"), s.appendShards(nil)))
	f.Add(snapshotBytes(1, nil, nil, shardsOf(f, visit(-7, -3, ""))))
	f.Add(snapshotBytes(0, nil, nil, shardsOf(f)))
	f.Add([]byte(snapshotMagic))
	s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
			return
		}
		restoresAlike(t, data)
		if len(data) >= snapshotTrailer {
			restoresAlike(t, withSnapCRC(data[:len(data)-snapshotTrailer]))
		}
	})
}

// restoresAlike decodes data and, if that succeeds, restores it at the
// shard count it was written at and at one, wants the same reads from
// both, and wants the store written again to restore to them too.
func restoresAlike(t *testing.T, data []byte) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return
	}
	restored := func(snap snapshot, shards int) *Store {
		s := mustOpen(t, Config{Shards: shards})
		if n := s.restore(snap); n != s.Len() {
			t.Fatalf("restore counted %d visits into a store of %d", n, s.Len())
		}
		return s
	}
	written := min(len(snap.shards), 64)
	one, own := restored(snap, 1), restored(snap, written)
	assertSameReads(t, own, one)
	again, err := decodeSnapshot(snapshotBytes(snap.Seq, snap.Model, snap.ANN, own.appendShards(nil)))
	if err != nil {
		t.Fatalf("the restored store's snapshot does not decode: %v", err)
	}
	assertSameReads(t, restored(again, written), one)
}
