package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"hostprof/internal/core"
	"hostprof/internal/trace"
)

// A snapshot file is the store's own shape in one little-endian layout,
// read and written whole:
//
//	"HPSN"  magic
//	u32     version (snapshotVersion)
//	u64     WAL cut: segments with seq <= cut are folded in
//	u64, …  the model artifact (core.Model.Save bytes), length-prefixed
//	u64, …  the model's HNSW graph (internal/index's encoding), likewise
//	u32     shards, then per shard:
//	          u32 names, a u32 length per name, the names back to back
//	          u32 users, then per user in first-append order:
//	            i64 user, u64 records, then per record (16 bytes):
//	            i64 time, u32 index into the names, u32 zero
//	u32     CRC-32C (Castagnoli) of every byte before it
//
// The model and the graph are opaque here and sit in the same file as
// the visits, so the rename that publishes one publishes the others.
// Open reads the gob encoding (gobSnapshot) earlier releases wrote;
// Snapshot never writes it, so a release that knows only gob skips what
// this one writes as unreadable.
const (
	snapshotMagic   = "HPSN"
	snapshotVersion = 2
	snapshotTrailer = 4
	snapRecordBytes = 16
)

// The checks of the snapshot layout, one error each.
var (
	errSnapTruncated = errors.New("store: snapshot shorter than its header")
	errSnapChecksum  = errors.New("store: snapshot checksum mismatch")
	errSnapVersion   = errors.New("store: unsupported snapshot version")
	errSnapSection   = errors.New("store: snapshot model or graph section overruns the file")
	errSnapShards    = errors.New("store: snapshot shard count overruns the file")
	errSnapNames     = errors.New("store: snapshot host table overruns the file")
	errSnapUsers     = errors.New("store: snapshot user log overruns the file or is empty")
	errSnapUser      = errors.New("store: snapshot user ID does not fit an int")
	errSnapHost      = errors.New("store: snapshot record names no host of its shard")
	errSnapTrailing  = errors.New("store: snapshot has bytes after its last shard")
)

// gobSnapshot is the gob encoding of a snapshot that releases before the
// flat layout wrote, read here only: the visits in the store's order,
// the model artifact and its graph.
type gobSnapshot struct {
	Version int
	Seq     uint64
	Visits  []trace.Visit
	Model   []byte
	ANN     []byte
}

const gobSnapshotVersion = 1

// snapshot is one decoded snapshot file: the WAL cut, the model artifact
// and graph bytes, and the visits — per shard from the flat layout, as
// one list from a gob file.
type snapshot struct {
	Seq        uint64
	Model, ANN []byte
	shards     []snapShard
	visits     []trace.Visit
}

// snapShard is one shard of a snapshot: its intern table and its users'
// logs in first-append order.
type snapShard struct {
	names []string
	users []int
	logs  [][]visitRec
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// appendShards appends the layout's shard sections for every shard to
// b. Callers that need a cut consistent with the WAL must hold the gate
// exclusively.
func (s *Store) appendShards(b []byte) []byte {
	size := 4
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		size += sh.encodedSize()
		sh.mu.Unlock()
	}
	b = slices.Grow(b, size)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.shards)))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		b = sh.appendTo(b)
		sh.mu.Unlock()
	}
	return b
}

// encodedSize is the length of the shard's section. The caller holds
// sh.mu.
func (sh *shard) encodedSize() int {
	size := 8 + 4*len(sh.names) + 16*len(sh.order) + snapRecordBytes*sh.n
	for _, h := range sh.names {
		size += len(h)
	}
	return size
}

// appendTo appends the shard's section of the layout to b. The caller
// holds sh.mu.
func (sh *shard) appendTo(b []byte) []byte {
	b = slices.Grow(b, sh.encodedSize())
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.names)))
	for _, h := range sh.names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(h)))
	}
	for _, h := range sh.names {
		b = append(b, h...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.order)))
	for _, u := range sh.order {
		recs := sh.logs[u].recs
		b = binary.LittleEndian.AppendUint64(b, uint64(u))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(recs)))
		for _, r := range recs {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Time))
			b = binary.LittleEndian.AppendUint32(b, r.Host)
			b = binary.LittleEndian.AppendUint32(b, 0)
		}
	}
	return b
}

// snapshotParts returns a snapshot file of the WAL cut seq, the
// serialized model and its encoded graph (either may be nil) and the
// shard sections built by appendShards, as the pieces to write in order,
// so that the sections are not copied into one buffer.
func snapshotParts(seq uint64, model, ann, shards []byte) [][]byte {
	head := make([]byte, 0, 24)
	head = append(head, snapshotMagic...)
	head = binary.LittleEndian.AppendUint32(head, snapshotVersion)
	head = binary.LittleEndian.AppendUint64(head, seq)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(model)))
	annLen := binary.LittleEndian.AppendUint64(nil, uint64(len(ann)))
	parts := [][]byte{head, model, annLen, ann, shards}
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
	}
	return append(parts, binary.LittleEndian.AppendUint32(nil, crc))
}

// writeSnapshot persists snapshotParts' file atomically: write a temp
// file, fsync it, rename it into place, fsync the directory. A crash at
// any point leaves either the previous snapshot or the new one, never a
// partially visible file.
func writeSnapshot(dir string, seq uint64, model, ann, shards []byte) error {
	parts := snapshotParts(seq, model, ann, shards)
	tmp, err := os.CreateTemp(dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: fsyncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapPath(dir, seq)); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return syncDir(dir)
}

// snapReader consumes a snapshot body front to back. The first check
// that fails sticks: later reads return zero values and err keeps that
// check's error.
type snapReader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or fails with err when fewer remain.
func (r *snapReader) take(n uint64, err error) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = err
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *snapReader) u64(err error) uint64 {
	if b := r.take(8, err); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// section reads a length-prefixed section and returns a copy of it, nil
// when it is empty; err is the error if even the length is missing.
func (r *snapReader) section(err error) []byte {
	b := r.take(r.u64(err), errSnapSection)
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}

// count reads a u32 count of items at least minBytes long each, and
// fails with err, returning 0, unless that many could follow.
func (r *snapReader) count(minBytes uint64, err error) uint64 {
	b := r.take(4, err)
	if b == nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(r.b))/minBytes {
		r.err = err
		return 0
	}
	return n
}

// decodeSnapshot parses a snapshot file's bytes, in the flat layout or
// an earlier release's gob. Every count is checked against the bytes
// that remain before anything is allocated for it. The model and graph
// sections are copied out, so nothing decoded keeps data alive.
func decodeSnapshot(data []byte) (snapshot, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return decodeGobSnapshot(data)
	}
	if len(data) < 8+snapshotTrailer {
		return snapshot{}, errSnapTruncated
	}
	body := data[:len(data)-snapshotTrailer]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(body):]) {
		return snapshot{}, errSnapChecksum
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != snapshotVersion {
		return snapshot{}, fmt.Errorf("%w %d", errSnapVersion, v)
	}
	r := &snapReader{b: body[8:]}
	var snap snapshot
	snap.Seq = r.u64(errSnapTruncated)
	snap.Model = r.section(errSnapTruncated)
	snap.ANN = r.section(errSnapSection)
	// A shard section is at least its two counts.
	snap.shards = make([]snapShard, r.count(8, errSnapShards))
	for i := range snap.shards {
		snap.shards[i] = r.shard()
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = errSnapTrailing
	}
	if r.err != nil {
		return snapshot{}, r.err
	}
	return snap, nil
}

// shard reads one shard section.
func (r *snapReader) shard() snapShard {
	n := r.count(4, errSnapNames)
	lens := r.take(4*n, errSnapNames)
	var blob uint64
	for i := uint64(0); i < uint64(len(lens))/4; i++ {
		blob += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	all := string(r.take(blob, errSnapNames))
	if r.err != nil {
		return snapShard{}
	}
	sh := snapShard{names: make([]string, n)}
	off := 0
	for i := range sh.names {
		end := off + int(binary.LittleEndian.Uint32(lens[4*i:]))
		sh.names[i], off = all[off:end], end
	}
	// A user is at least its ID, its count and one record.
	nu := r.count(16+snapRecordBytes, errSnapUsers)
	if r.err != nil {
		return snapShard{}
	}
	sh.users, sh.logs = make([]int, nu), make([][]visitRec, nu)
	for j := range sh.users {
		u := int64(r.u64(errSnapUsers))
		if int64(int(u)) != u {
			r.err = errSnapUser
		}
		nrec := r.u64(errSnapUsers)
		if r.err == nil && (nrec == 0 || nrec > uint64(len(r.b))/snapRecordBytes) {
			r.err = errSnapUsers
		}
		if r.err != nil {
			return snapShard{}
		}
		raw := r.take(nrec*snapRecordBytes, errSnapUsers)
		recs := make([]visitRec, nrec)
		for k := range recs {
			rec := raw[snapRecordBytes*k:]
			recs[k] = visitRec{Time: int64(binary.LittleEndian.Uint64(rec)), Host: binary.LittleEndian.Uint32(rec[8:])}
			if uint64(recs[k].Host) >= n || binary.LittleEndian.Uint32(rec[12:]) != 0 {
				r.err = errSnapHost
				return snapShard{}
			}
		}
		sh.users[j], sh.logs[j] = int(u), recs
	}
	return sh
}

// decodeGobSnapshot decodes the gob encoding earlier releases wrote.
func decodeGobSnapshot(data []byte) (snapshot, error) {
	var wire gobSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return snapshot{}, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if wire.Version != gobSnapshotVersion {
		return snapshot{}, fmt.Errorf("store: unsupported snapshot version %d", wire.Version)
	}
	return snapshot{Seq: wire.Seq, Model: wire.Model, ANN: wire.ANN, visits: wire.Visits}, nil
}

// loadSnapshot reads, decodes and validates one snapshot file, and loads
// the model it carries.
func loadSnapshot(path string) (snapshot, *core.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, nil, err
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return snapshot{}, nil, err
	}
	var model *core.Model
	if len(snap.Model) > 0 {
		model, err = core.Load(bytes.NewReader(snap.Model))
		if err != nil {
			return snapshot{}, nil, fmt.Errorf("store: snapshot model: %w", err)
		}
		// The model checks the graph against its rows when a profiler
		// asks for one; a graph it refuses costs a rebuild, not the open.
		model.SetEncodedANN(snap.ANN)
	}
	return snap, model, nil
}

// restore fills the store, not yet shared, from a decoded snapshot and
// returns the visit count. A shard written at this store's shard count
// is taken over as it stands: its intern table, and each user's records
// as that user's log. A snapshot written at another shard count, and any
// user whose log is already taken or who hashes elsewhere, is added
// visit by visit, as are a gob snapshot's visits.
func (s *Store) restore(snap snapshot) int {
	same := len(snap.shards) == len(s.shards)
	if same {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.names = snap.shards[i].names
			sh.ids = make(map[string]uint32, len(sh.names))
			for id, h := range sh.names {
				sh.ids[h] = uint32(id)
			}
		}
	}
	n := len(snap.visits)
	for i, ss := range snap.shards {
		for j, u := range ss.users {
			recs := ss.logs[j]
			n += len(recs)
			to := s.shardOf(u)
			sh := &s.shards[to]
			if same && to == uint64(i) && sh.logs[u] == nil {
				sorted := true
				for k := 1; k < len(recs) && sorted; k++ {
					sorted = recs[k].Time >= recs[k-1].Time
				}
				sh.logs[u] = &userLog{recs: recs, sorted: sorted}
				sh.order = append(sh.order, u)
				sh.n += len(recs)
				continue
			}
			for _, r := range recs {
				sh.add(trace.Visit{User: u, Time: r.Time, Host: ss.names[r.Host]})
			}
		}
	}
	for _, v := range snap.visits {
		s.applyVisit(v)
	}
	return n
}

// newestSnapshot finds the newest loadable snapshot under dir, skipping
// any that fail validation (e.g. written by a newer version or damaged
// by the storage layer) — each with a warning and a count in
// RecoveryStats.SkippedSnapshots, because the visits only it held are
// gone once its WAL segments were retired. ok is false when no usable
// snapshot exists.
func (s *Store) newestSnapshot() (snap snapshot, model *core.Model, ok bool, err error) {
	dir := s.cfg.Dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return snapshot{}, nil, false, fmt.Errorf("store: listing snapshots: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, isSnap := parseSeq(e.Name(), snapPrefix, snapSuffix); isSnap {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		snap, m, lerr := loadSnapshot(snapPath(dir, seq))
		if lerr != nil {
			s.rec.SkippedSnapshots++
			s.cfg.Logger.Warn("store skipping unreadable snapshot",
				slog.String("path", snapPath(dir, seq)),
				slog.String("error", lerr.Error()))
			continue
		}
		return snap, m, true, nil
	}
	return snapshot{}, nil, false, nil
}

// removeObsolete deletes snapshots older than keepSnap and WAL segments
// with seq <= cutSeq. Removal failures are ignored: leftovers are
// harmless (recovery skips covered segments and older snapshots) and are
// retried at the next snapshot.
func removeObsolete(dir string, keepSnap, cutSeq uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok && seq < keepSnap {
			os.Remove(filepath.Join(dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok && seq <= cutSeq {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	syncDir(dir)
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing dir: %w", err)
	}
	return nil
}
