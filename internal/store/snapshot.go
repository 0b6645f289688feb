package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"hostprof/internal/core"
	"hostprof/internal/trace"
)

// snapshotVersion guards the gob schema of snapshot files.
const snapshotVersion = 1

// snapshotWire is the on-disk representation of a snapshot: the full
// visit set at the cut point plus the trained model (serialized with
// core.Model.Save), if any. Seq is the WAL cut sequence: segments with
// seq <= Seq are folded into this snapshot and must be skipped (and may
// be deleted) once it exists.
//
// ANN is the model's HNSW graph, if it has one, in the encoding of
// internal/index — opaque here, and in the same file as Model so the
// rename that publishes one publishes the other. It is optional in both
// directions, which is why it did not bump snapshotVersion: gob drops a
// field the decoding struct lacks and leaves a field the stream lacks
// zero, so a snapshot written before the field existed loads here (and
// the graph is rebuilt) and one written here loads there.
type snapshotWire struct {
	Version int
	Seq     uint64
	Visits  []trace.Visit
	Model   []byte
	ANN     []byte
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// writeSnapshot persists visits, the serialized model and its encoded
// graph (either may be nil) atomically: encode to a temp file, fsync it,
// rename into place, fsync the directory. A crash at any point leaves
// either the previous snapshot or the new one, never a partially visible
// file.
func writeSnapshot(dir string, seq uint64, visits []trace.Visit, model, ann []byte) error {
	wire := snapshotWire{Version: snapshotVersion, Seq: seq, Visits: visits, Model: model, ANN: ann}
	tmp, err := os.CreateTemp(dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(&wire); err != nil {
		tmp.Close()
		return fmt.Errorf("store: encoding snapshot: %w", err)
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

// loadSnapshot decodes and validates one snapshot file.
func loadSnapshot(path string) (snapshotWire, *core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return snapshotWire{}, nil, err
	}
	defer f.Close()
	var wire snapshotWire
	if err := gob.NewDecoder(f).Decode(&wire); err != nil {
		return snapshotWire{}, nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if wire.Version != snapshotVersion {
		return snapshotWire{}, nil, fmt.Errorf("store: unsupported snapshot version %d", wire.Version)
	}
	var model *core.Model
	if len(wire.Model) > 0 {
		model, err = core.Load(bytes.NewReader(wire.Model))
		if err != nil {
			return snapshotWire{}, nil, fmt.Errorf("store: snapshot model: %w", err)
		}
		// The model checks the graph against its rows when a profiler
		// asks for one; a graph it refuses costs a rebuild, not the open.
		model.SetEncodedANN(wire.ANN)
	}
	return wire, model, nil
}

// newestSnapshot finds the newest loadable snapshot under dir, skipping
// any that fail validation (e.g. written by a newer version or damaged
// by the storage layer) — each with a warning and a count in
// RecoveryStats.SkippedSnapshots, because the visits only it held are
// gone once its WAL segments were retired. ok is false when no usable
// snapshot exists.
func (s *Store) newestSnapshot() (wire snapshotWire, model *core.Model, ok bool, err error) {
	dir := s.cfg.Dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return snapshotWire{}, nil, false, fmt.Errorf("store: listing snapshots: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, isSnap := parseSeq(e.Name(), snapPrefix, snapSuffix); isSnap {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		w, m, lerr := loadSnapshot(snapPath(dir, seq))
		if lerr != nil {
			s.rec.SkippedSnapshots++
			s.cfg.Logger.Warn("store skipping unreadable snapshot",
				slog.String("path", snapPath(dir, seq)),
				slog.String("error", lerr.Error()))
			continue
		}
		return w, m, true, nil
	}
	return snapshotWire{}, nil, false, nil
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
