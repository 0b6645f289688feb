package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hostprof/internal/fault"
	"hostprof/internal/trace"
)

// The write-ahead log is a sequence of append-only segment files named
// wal-<seq>.log with strictly increasing 16-digit sequence numbers.
// Records never span segments. A snapshot taken at cut sequence S makes
// every segment with seq <= S redundant; recovery loads the newest
// snapshot and replays only segments with seq > S, in order.

const (
	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".gob"
)

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", walPrefix, seq, walSuffix))
}

// walWriter appends framed records to the current segment, rotating by
// size and fsyncing per the configured policy. All methods are safe for
// concurrent use.
type walWriter struct {
	dir      string
	policy   FsyncPolicy
	segBytes int64
	met      *storeMetrics

	mu    sync.Mutex
	f     *os.File
	seq   uint64 // sequence of the open segment
	size  int64
	dirty bool // bytes written since the last fsync
	buf   []byte
}

// openWAL starts a fresh segment with the given sequence number.
func openWAL(dir string, seq uint64, policy FsyncPolicy, segBytes int64, met *storeMetrics) (*walWriter, error) {
	w := &walWriter{dir: dir, policy: policy, segBytes: segBytes, met: met, seq: seq}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walWriter) openSegment() error {
	f, err := os.OpenFile(walPath(w.dir, w.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening wal segment: %w", err)
	}
	w.f = f
	w.size = 0
	w.dirty = false
	return nil
}

// maxKeptBuf bounds the framing buffer a writer keeps between calls: a
// report's batch reuses it, a one-off import chunk of megabytes does not
// stay resident.
const maxKeptBuf = 256 << 10

// Append frames every visit of vs into one buffer and writes it with one
// write per segment the batch lands in. A record that would push a
// non-empty segment past its size bound starts the next segment, exactly
// where appending the visits one per call would have rotated, so the
// segment files do not depend on how visits were batched. Under
// FsyncAlways the call ends with one fsync.
func (w *walWriter) Append(vs []trace.Visit) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, size := w.buf[:0], w.size
	var cuts []int // offsets in buf where the batch starts a new segment
	for _, v := range vs {
		start := len(buf)
		var err error
		if buf, err = appendRecord(buf, v); err != nil {
			return err
		}
		n := int64(len(buf) - start)
		if size > 0 && size+n > w.segBytes {
			cuts = append(cuts, start)
			size = 0
		}
		size += n
	}
	if cap(buf) <= maxKeptBuf {
		w.buf = buf
	}
	if err := fault.Inject(fault.StoreWALAppend); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	from := 0
	for _, c := range cuts {
		if err := w.writeLocked(buf[from:c]); err != nil {
			return err
		}
		if err := w.rotateLocked(); err != nil {
			return err
		}
		from = c
	}
	if err := w.writeLocked(buf[from:]); err != nil {
		return err
	}
	if w.policy == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// writeLocked writes b to the open segment. size advances only on a
// complete write, which is what lets reattach truncate a partial one.
func (w *walWriter) writeLocked(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size += int64(len(b))
	w.dirty = true
	w.met.walBytes.Add(int64(len(b)))
	return nil
}

func (w *walWriter) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	w.dirty = false
	w.met.fsyncs.Inc()
	return nil
}

// Sync flushes outstanding writes to stable storage (no-op if clean).
func (w *walWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// rotateLocked seals the current segment and starts the next one.
func (w *walWriter) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing wal segment: %w", err)
	}
	w.seq++
	w.met.rotations.Inc()
	return w.openSegment()
}

// Cut seals the current segment and starts a new one, returning the
// sealed segment's sequence number: the snapshot that triggered the cut
// covers every segment with seq <= the returned value. The caller must
// guarantee no concurrent Appends (the store holds its append gate).
func (w *walWriter) Cut() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cut := w.seq
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return cut, nil
}

// Close flushes and closes the current segment.
func (w *walWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.syncLocked(); err != nil {
		return err
	}
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// reattach recovers the WAL after an append failure: the failed segment
// is truncated back to its last fully acknowledged record (w.size only
// advances on complete writes, so this removes any partial frame a
// failed append left behind — keeping the segment replayable once it is
// no longer the final one) and closed, and a fresh segment is opened at
// the next sequence number. The store's degraded-mode prober calls this
// with appends suppressed; the lock makes it safe regardless. The
// injection probe up front means an armed wal-append fault also keeps
// re-attachment failing until the fault clears.
func (w *walWriter) reattach() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := fault.Inject(fault.StoreWALAppend); err != nil {
		return fmt.Errorf("store: wal reattach probe: %w", err)
	}
	if w.f != nil {
		// Best effort: a medium so broken that even truncate fails will
		// surface as corruption on the next recovery, which is the
		// honest outcome.
		w.f.Truncate(w.size)
		w.f.Close()
		w.f = nil
		w.dirty = false
	}
	w.seq++
	return w.openSegment()
}

// parseSeq extracts the sequence number from a wal/snapshot file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// segInfo is one WAL segment found on disk.
type segInfo struct {
	seq  uint64
	path string
}

// listSegments returns the WAL segments under dir in ascending sequence
// order.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing wal dir: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok {
			segs = append(segs, segInfo{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// replaySegment decodes every record in the segment at path, calling
// apply for each. final marks the newest segment, whose tail may be torn
// by a crash: the torn suffix is truncated away (so a later replay sees
// a clean segment) and reported, not treated as an error. A decode
// failure anywhere else means real corruption and fails the replay.
func replaySegment(path string, final bool, apply func(trace.Visit)) (records int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: reading wal segment: %w", err)
	}
	off := 0
	for off < len(data) {
		v, n, derr := decodeRecord(data[off:])
		if derr != nil {
			if final {
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return records, true, fmt.Errorf("store: truncating torn wal tail: %w", terr)
				}
				return records, true, nil
			}
			return records, false, fmt.Errorf("store: segment %s at offset %d: %w", filepath.Base(path), off, derr)
		}
		apply(v)
		records++
		off += n
	}
	return records, false, nil
}
