package main

import "testing"

// The same seed must give the program byte-identical inputs; another
// seed must not.
func TestWorldIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := NewWorld(quickWorld, 7), NewWorld(quickWorld, 7), NewWorld(quickWorld, 8)
	if a.StreamHash() != b.StreamHash() {
		t.Error("seed 7 generated two different request streams")
	}
	if a.StreamHash() == c.StreamHash() {
		t.Error("seeds 7 and 8 generated the same request stream")
	}
	if len(a.Live) == 0 || len(a.SeedVisits) == 0 || a.SeedKept == 0 || a.SeedKept >= len(a.SeedVisits) {
		t.Errorf("degenerate world: %d reports, %d seed visits, %d kept", len(a.Live), len(a.SeedVisits), a.SeedKept)
	}
}

func TestReportsPartitionTheLiveStream(t *testing.T) {
	w := NewWorld(quickWorld, 3)
	liveFrom := int64(w.Cfg.SeedDays) * 86400
	for i, r := range w.Live {
		if r.Time <= liveFrom || r.Time%w.Cfg.ReportEvery != 0 {
			t.Fatalf("report %d stamped %d: not the end of a %d s window of the live days", i, r.Time, w.Cfg.ReportEvery)
		}
		kept := 0
		for _, h := range r.Hosts {
			if !w.Blocklist.Contains(h) {
				kept++
			}
		}
		if kept != r.Kept || len(r.Hosts) == 0 {
			t.Fatalf("report %d: Kept=%d, counted %d of %d hosts", i, r.Kept, kept, len(r.Hosts))
		}
		if i > 0 && w.Live[i-1].Time > r.Time {
			t.Fatalf("report %d is out of time order", i)
		}
	}
	total := 0
	for _, r := range w.Live {
		total += r.Kept
	}
	if total != len(w.liveKept) {
		t.Errorf("reports carry %d unblocked hosts, the live stream has %d", total, len(w.liveKept))
	}
}

func TestSessionsAreDistinctWindows(t *testing.T) {
	w := NewWorld(quickWorld, 3)
	ss := w.Sessions(200)
	if len(ss) == 0 {
		t.Fatal("no sessions")
	}
	for i, s := range ss {
		if len(s.Hosts) < minSessionHosts {
			t.Fatalf("session %d has %d hosts", i, len(s.Hosts))
		}
		for _, h := range s.Hosts {
			if w.Blocklist.Contains(h) {
				t.Fatalf("session %d carries blocklisted host %s", i, h)
			}
		}
	}
	again := w.Sessions(200)
	for i := range ss {
		if ss[i].User != again[i].User || len(ss[i].Hosts) != len(again[i].Hosts) {
			t.Fatal("Sessions is not deterministic")
		}
	}
}
