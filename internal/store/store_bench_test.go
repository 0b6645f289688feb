package store

import (
	"fmt"
	"log/slog"
	"math/rand"
	"testing"

	"hostprof/internal/trace"
)

// Bench-world shape: report_single's serve holds ≈ 345 K visits from
// 1 329 users by the end of a run, each report carrying ≈ 17 kept hosts
// drawn from a vocabulary of a few thousand.
const (
	benchUsers       = 1329
	benchReportHosts = 17
	benchVocab       = 3700
	benchWindow      = 20 * 60
)

var benchHosts = func() []string {
	hosts := make([]string, benchVocab)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("site%04d.example", i)
	}
	return hosts
}()

// benchReport is report r of the round-robin stream: users take turns,
// each reporting every step seconds, so r's timestamp never goes back.
func benchReport(rng *rand.Rand, r int, step int64) []trace.Visit {
	u, ts := r%benchUsers, int64(r/benchUsers)*step+int64(r%benchUsers)
	vs := make([]trace.Visit, benchReportHosts)
	for i := range vs {
		vs[i] = trace.Visit{User: u, Time: ts, Host: benchHosts[rng.Intn(benchVocab)]}
	}
	return vs
}

// benchStore is an in-memory store preloaded with reports reports.
func benchStore(b *testing.B, rng *rand.Rand, reports int, step int64) *Store {
	b.Helper()
	s, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < reports; r++ {
		if err := s.Append(benchReport(rng, r, step)...); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

var benchSession []string

// BenchmarkStoreReportPath times what a report asks of the store: one
// 17-visit Append, then the user's 20-minute Session, at the bench
// world's 345 K visits over 1 329 users (in memory, so the WAL's write
// is not in the figure; building the report's visits is). The store is
// rebuilt, off the clock, every cycle reports, so it never grows more
// than 5 % past that size.
func BenchmarkStoreReportPath(b *testing.B) {
	const preload, cycle = 345_000 / benchReportHosts, 1000
	var s *Store
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			b.StopTimer()
			s = benchStore(b, rand.New(rand.NewSource(1)), preload, 600)
			b.StartTimer()
		}
		vs := benchReport(rng, preload+i%cycle, 600)
		if err := s.Append(vs...); err != nil {
			b.Fatal(err)
		}
		benchSession = s.Session(vs[0].User, vs[0].Time, benchWindow)
	}
}

var benchCorpus [][]string

// BenchmarkStoreAllSequences times the retrain corpus read at 140 K
// visits from 1 329 users, all within one day.
func BenchmarkStoreAllSequences(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const reports = 140_000 / benchReportHosts
	s := benchStore(b, rng, reports, 86400/(reports/benchUsers+1))
	if days := s.SnapshotTrace().Days(); days != 1 {
		b.Fatalf("corpus spans %d days, want 1", days)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCorpus = s.AllSequences()
	}
}

// BenchmarkStoreSnapshotOpen times the two halves of a restart at the
// bench world's 150 K visits from 1 329 users, without a model: writing
// the snapshot (fsyncs included) and opening the store from it.
func BenchmarkStoreSnapshotOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 150_000/benchReportHosts; r++ {
		if err := s.Append(benchReport(rng, r, 600)...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s2, err := Open(Config{Dir: dir, Fsync: FsyncNever, Logger: slog.New(slog.DiscardHandler)})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s2.Close()
			b.StartTimer()
		}
	})
}
