package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/obs"
	"hostprof/internal/trace"
)

func TestRecordRoundTrip(t *testing.T) {
	for _, v := range []trace.Visit{
		{User: 0, Time: 0, Host: ""},
		{User: 1, Time: 42, Host: "a.example"},
		{User: -7, Time: -1, Host: "negative.example"},
		{User: 1 << 30, Time: 1 << 40, Host: string(bytes.Repeat([]byte("x"), 300))},
	} {
		buf, err := appendRecord(nil, v)
		if err != nil {
			t.Fatalf("appendRecord(%+v): %v", v, err)
		}
		got, n, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decodeRecord(%+v): %v", v, err)
		}
		if n != len(buf) || got != v {
			t.Fatalf("round trip: got %+v (%d bytes), want %+v (%d)", got, n, v, len(buf))
		}
	}
}

func TestRecordRejectsOversizedHost(t *testing.T) {
	v := trace.Visit{Host: string(bytes.Repeat([]byte("h"), maxRecordPayload))}
	if _, err := appendRecord(nil, v); err == nil {
		t.Fatal("oversized host accepted")
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	good, _ := appendRecord(nil, trace.Visit{User: 3, Time: 9, Host: "ok.example"})

	for name, c := range map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty":          {func(b []byte) []byte { return nil }, ErrTornRecord},
		"short header":   {func(b []byte) []byte { return b[:5] }, ErrTornRecord},
		"torn payload":   {func(b []byte) []byte { return b[:len(b)-3] }, ErrTornRecord},
		"zero tail":      {func(b []byte) []byte { return make([]byte, 32) }, ErrTornRecord},
		"crc flip":       {func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, ErrCorruptRecord},
		"header flip":    {func(b []byte) []byte { b[5] ^= 0xff; return b }, ErrCorruptRecord},
		"length too big": {func(b []byte) []byte { b[2] = 0xff; return b }, ErrCorruptRecord},
	} {
		b := c.mutate(append([]byte(nil), good...))
		if _, _, err := decodeRecord(b); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// TestDecodeRecordTrailingGarbageInPayload: a payload longer than its
// varints describe must be rejected — otherwise corruption could smuggle
// bytes past the CRC boundary check.
func TestDecodeRecordTrailingGarbage(t *testing.T) {
	b, _ := appendRecord(nil, trace.Visit{User: 1, Time: 1, Host: "h"})
	// Extend payload by one byte and refresh length+CRC so only the
	// internal structure check can catch it.
	payload := append(append([]byte(nil), b[recordHeader:]...), 0xAA)
	full := make([]byte, recordHeader+len(payload))
	copy(full[recordHeader:], payload)
	putFrame(full, payload)
	if _, _, err := decodeRecord(full); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("trailing garbage: err = %v, want ErrCorruptRecord", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, Config{Dir: dir, SegmentBytes: 64, Fsync: FsyncNever, Metrics: reg})
	for i := 0; i < 20; i++ {
		if err := s.Append(visit(i, int64(i), "rotate.example")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", len(segs))
	}
	if got := metricValue(t, reg, "hostprof_store_segment_rotations_total"); got < float64(len(segs)-1) {
		t.Fatalf("hostprof_store_segment_rotations_total = %v, want at least %d for %d segments", got, len(segs)-1, len(segs))
	}
	// All records must survive a reopen across segment boundaries.
	s.Close()
	s2 := mustOpen(t, Config{Dir: dir})
	if got := s2.Len(); got != 20 {
		t.Fatalf("reopened Len = %d, want 20", got)
	}
	if got := s2.Recovery().ReplayedRecords; got != 20 {
		t.Fatalf("ReplayedRecords = %d, want 20", got)
	}
}

func TestListSegmentsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-x.log", "snap-1.gob.tmp", "notes.txt", "wal-0000000000000003.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].seq != 3 {
		t.Fatalf("segments = %+v", segs)
	}
}

// putFrame rewrites the length+CRC header for payload into b.
func putFrame(b, payload []byte) {
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, crcTable))
}

// reportBatches is a seeded stream of report-shaped batches: one user and
// one timestamp per batch, 1 to 17 hosts.
func reportBatches(seed int64, n int) [][]trace.Visit {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]trace.Visit, n)
	for i := range batches {
		u, ts := rng.Intn(50), int64(i)*600
		for k := 1 + rng.Intn(17); k > 0; k-- {
			batches[i] = append(batches[i], visit(u, ts, opHosts[rng.Intn(len(opHosts))]))
		}
	}
	return batches
}

// readSegments returns every WAL segment under dir by name.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(segs))
	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(seg.path)] = b
	}
	return out
}

// perVisitSegmentsSHA256 is segmentsDigest of reportBatches(7, 80)
// appended one visit per write into 500-byte segments, as written by the
// store before Append took batches (34 segments).
const perVisitSegmentsSHA256 = "e791a2f04ed6e19774ae05a0fd17b310e09fbda3d8a266794fc901a8ab763464"

// segmentsDigest hashes segment names, lengths and bytes in name order.
func segmentsDigest(segs map[string][]byte) string {
	names := make([]string, 0, len(segs))
	for name := range segs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, len(segs[name]))
		h.Write(segs[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBatchAppendWritesSameSegments pins the WAL bytes across batching:
// report-sized batches produce the same segment names and bytes as one
// visit per call, including where a rotation splits a batch; under
// FsyncAlways a call costs one fsync; and a batch whose write fails
// degrades the store with every visit kept in memory and none of it on
// disk, so a reopen after re-attach replays nothing partial.
func TestBatchAppendWritesSameSegments(t *testing.T) {
	batches := reportBatches(7, 80)
	// A report record is ~25 bytes, so a 17-host batch is ~425: 500-byte
	// segments rotate inside most large batches, and smaller ones several
	// times inside one.
	write := func(batches [][]trace.Visit, perVisit bool, segBytes int64) map[string][]byte {
		dir := t.TempDir()
		s := mustOpen(t, Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: segBytes})
		for _, b := range batches {
			if perVisit {
				appendAll(t, s, b)
			} else if err := s.Append(b...); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return readSegments(t, dir)
	}
	same := func(batches [][]trace.Visit, segBytes int64) {
		t.Helper()
		if one, batched := write(batches, true, segBytes), write(batches, false, segBytes); !reflect.DeepEqual(batched, one) {
			t.Fatalf("%d-byte segments: batched appends wrote %d segments unlike the %d of per-visit appends",
				segBytes, len(batched), len(one))
		}
	}
	for _, segBytes := range []int64{64, 101, 173, 256, 333, 701} {
		same(batches, segBytes)
	}
	// Equal-sized records fill a segment to the byte: the record that
	// reaches the bound stays, the next one starts a segment.
	exact := make([][]trace.Visit, 12)
	for i := range exact {
		for k := 0; k < 17; k++ {
			exact[i] = append(exact[i], visit(1, int64(i), "exact.example"))
		}
	}
	rec, err := appendRecord(nil, exact[0][0])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1, 2, 3, 5, 16} {
		segBytes := k * int64(len(rec))
		same(exact, segBytes)
		segs := write(exact, false, segBytes)
		names := make([]string, 0, len(segs))
		for name := range segs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names[:len(names)-1] {
			if got := int64(len(segs[name])); got != segBytes {
				t.Fatalf("%d-byte segments of %d-byte records: %s holds %d bytes", segBytes, len(rec), name, got)
			}
		}
	}
	one, batched := write(batches, true, 500), write(batches, false, 500)
	if len(one) < 10 {
		t.Fatalf("%d segments, want many rotations", len(one))
	}
	if !reflect.DeepEqual(batched, one) {
		t.Fatalf("batched appends wrote %d segments unlike the %d of per-visit appends", len(batched), len(one))
	}
	// Both must also be what the store wrote when every visit was its own
	// write: the digest was taken from that store on this same stream.
	if got := segmentsDigest(one); got != perVisitSegmentsSHA256 {
		t.Fatalf("segments digest %s, want %s", got, perVisitSegmentsSHA256)
	}
	// At least one segment must end inside a batch, or the split path
	// was never taken.
	var ends []int
	total := 0
	for _, b := range batches {
		total += len(b)
		ends = append(ends, total)
	}
	names := make([]string, 0, len(one))
	for name := range one {
		names = append(names, name)
	}
	sort.Strings(names)
	split, seen := false, 0
	for _, name := range names {
		for off := 0; off < len(one[name]); {
			_, n, err := decodeRecord(one[name][off:])
			if err != nil {
				t.Fatalf("%s at %d: %v", name, off, err)
			}
			off += n
			seen++
		}
		if _, found := slices.BinarySearch(ends, seen); !found && seen > 0 {
			split = true
		}
	}
	if !split {
		t.Fatal("no rotation fell inside a batch")
	}

	t.Run("FsyncAlwaysOncePerCall", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := mustOpen(t, Config{Dir: t.TempDir(), Fsync: FsyncAlways, Metrics: reg})
		for _, b := range batches {
			if err := s.Append(b...); err != nil {
				t.Fatal(err)
			}
		}
		if got := metricValue(t, reg, "hostprof_store_fsyncs_total"); got != float64(len(batches)) {
			t.Fatalf("hostprof_store_fsyncs_total = %v, want %d (one per call)", got, len(batches))
		}
	})

	t.Run("FailedWriteKeepsBatchInMemory", func(t *testing.T) {
		t.Cleanup(fault.Reset)
		dir := t.TempDir()
		s := mustOpen(t, Config{
			Dir: dir, Fsync: FsyncNever, Metrics: obs.NewRegistry(),
			ReprobeMin: 5 * time.Millisecond, ReprobeMax: 20 * time.Millisecond,
		})
		if err := s.Append(batches[0]...); err != nil {
			t.Fatal(err)
		}
		fault.Set(fault.StoreWALAppend, fault.Error(errors.New("disk pulled")))
		if err := s.Append(batches[1]...); err != nil {
			t.Fatalf("append during WAL failure returned %v, want nil (degrade, don't fail)", err)
		}
		if !s.Degraded() {
			t.Fatal("store not degraded after a failed batch write")
		}
		if got, want := s.Len(), len(batches[0])+len(batches[1]); got != want {
			t.Fatalf("Len = %d, want %d: the failed batch must stay in memory", got, want)
		}
		records := 0
		for _, b := range readSegments(t, dir) {
			for off := 0; off < len(b); records++ {
				_, n, err := decodeRecord(b[off:])
				if err != nil {
					t.Fatal(err)
				}
				off += n
			}
		}
		if records != len(batches[0]) {
			t.Fatalf("WAL holds %d records, want only the %d of the healthy batch", records, len(batches[0]))
		}
		want := s.SnapshotTrace().Visits()
		fault.Reset()
		waitFor(t, "WAL re-attach", func() bool { return !s.Degraded() })
		waitFor(t, "post-reattach snapshot", func() bool { return s.met.snapshotSeconds.Count() >= 1 })
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, Config{Dir: dir})
		if got := re.SnapshotTrace().Visits(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened store holds %d visits, want exactly the %d acknowledged", len(got), len(want))
		}
		if got := re.Recovery().ReplayedRecords; got != 0 {
			t.Fatalf("replayed %d WAL records past the re-attach snapshot, want 0", got)
		}
	})
}
