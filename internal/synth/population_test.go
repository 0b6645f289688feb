package synth

import (
	"math"
	"testing"
)

func smallPopulation(u *Universe) *Population {
	return NewPopulation(u, PopulationConfig{
		Users: 30,
		Days:  3,
		Seed:  13,
	})
}

func TestPopulationUsersHaveValidInterests(t *testing.T) {
	u := smallUniverse()
	p := smallPopulation(u)
	if len(p.Users) != 30 {
		t.Fatalf("users = %d", len(p.Users))
	}
	for _, usr := range p.Users {
		var s float64
		n := 0
		for _, w := range usr.Interests {
			if w < 0 {
				t.Fatal("negative interest")
			}
			if w > 0 {
				n++
			}
			s += w
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("interests sum to %v", s)
		}
		if n < 2 || n > 5 {
			t.Fatalf("user has %d interests, want 2..5", n)
		}
	}
}

func TestBrowseProducesOrderedTrace(t *testing.T) {
	u := smallUniverse()
	p := smallPopulation(u)
	tr := p.Browse()
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	vs := tr.Visits()
	for i := 1; i < len(vs); i++ {
		if vs[i].Time < vs[i-1].Time {
			t.Fatal("trace not time-ordered")
		}
	}
	if tr.Days() > 3 {
		t.Fatalf("trace spans %d days, want <= 3", tr.Days())
	}
	// All hosts must exist in the universe.
	for _, v := range tr.Visits() {
		if _, ok := u.HostByName(v.Host); !ok {
			t.Fatalf("trace host %q not in universe", v.Host)
		}
	}
}

func TestBrowseDeterministic(t *testing.T) {
	u := smallUniverse()
	t1 := smallPopulation(u).Browse()
	t2 := smallPopulation(u).Browse()
	if t1.Len() != t2.Len() {
		t.Fatalf("lengths differ: %d vs %d", t1.Len(), t2.Len())
	}
	v1, v2 := t1.Visits(), t2.Visits()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("visit %d differs", i)
		}
	}
}

func TestBrowseEmitsSupportWithSites(t *testing.T) {
	// Whenever a page is visited, its support hosts should appear right
	// after the site host in the same user's stream.
	u := smallUniverse()
	p := smallPopulation(u)
	tr := p.Browse()
	per := tr.PerUserVisits()
	siteThenSupport := 0
	for _, visits := range per {
		for i := 0; i+1 < len(visits); i++ {
			h1, _ := u.HostByName(visits[i].Host)
			h2, _ := u.HostByName(visits[i+1].Host)
			if h1.Kind == KindSite && h2.Kind == KindSupport && h1.Site == h2.Site {
				siteThenSupport++
			}
		}
	}
	if siteThenSupport == 0 {
		t.Fatal("no site→support co-request pattern found")
	}
}

func TestBrowseTrackerShareNearPaper(t *testing.T) {
	// Paper Section 5.4: tracker hostnames account for >8% of
	// connections. Check the generator produces a meaningful share.
	u := smallUniverse()
	p := smallPopulation(u)
	tr := p.Browse()
	trackers := 0
	for _, v := range tr.Visits() {
		h, _ := u.HostByName(v.Host)
		if h.Kind == KindTracker {
			trackers++
		}
	}
	share := float64(trackers) / float64(tr.Len())
	if share < 0.03 || share > 0.4 {
		t.Fatalf("tracker share = %.3f, want within [0.03, 0.4]", share)
	}
}

func TestBrowseInterestsDriveTopics(t *testing.T) {
	// Users should visit sites of their interest topics far more often
	// than sites of topics they do not care about (beyond the popular
	// core).
	u := NewUniverse(UniverseConfig{Sites: 300, Seed: 21})
	p := NewPopulation(u, PopulationConfig{
		Users: 10, Days: 10, PopularBias: 0.1, Seed: 23,
	})
	tr := p.Browse()
	per := tr.PerUserVisits()
	matches, total := 0, 0
	for _, usr := range p.Users {
		for _, v := range per[usr.ID] {
			h, _ := u.HostByName(v.Host)
			if h.Kind != KindSite {
				continue
			}
			total++
			if usr.Interests[u.Sites[h.Site].Top] > 0 {
				matches++
			}
		}
	}
	if total == 0 {
		t.Fatal("no site visits")
	}
	frac := float64(matches) / float64(total)
	if frac < 0.6 {
		t.Fatalf("only %.2f of site visits match interests", frac)
	}
}

func TestAffinityTo(t *testing.T) {
	u := User{Interests: []float64{0.5, 0.5, 0}}
	if got := u.AffinityTo([]float64{1, 0, 0}); got != 0.5 {
		t.Fatalf("affinity = %v", got)
	}
	if got := u.AffinityTo([]float64{0, 0, 1}); got != 0 {
		t.Fatalf("affinity = %v", got)
	}
}

func TestSoftenInterestsZero(t *testing.T) {
	out := softenInterests([]float64{0, 0})
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("softenInterests zero case = %v", out)
	}
}

func TestLateJoinersStartLater(t *testing.T) {
	u := smallUniverse()
	p := NewPopulation(u, PopulationConfig{
		Users: 40, Days: 8, LateJoinFrac: 0.5, Seed: 99,
	})
	tr := p.Browse()
	firstDay := make(map[int]int)
	for _, v := range tr.Visits() {
		if _, seen := firstDay[v.User]; !seen {
			firstDay[v.User] = v.Day()
		}
	}
	late := 0
	for _, d := range firstDay {
		if d > 0 {
			late++
		}
	}
	// Roughly half the users should join late (Poisson day-0 gaps can
	// shift a few, so accept a broad band).
	if late < 8 || late > 32 {
		t.Fatalf("%d/%d users joined late, want roughly half", late, len(firstDay))
	}
	// Without the knob, (almost) everyone starts on day 0.
	p0 := smallPopulation(u)
	tr0 := p0.Browse()
	first0 := make(map[int]bool)
	for _, v := range tr0.Visits() {
		if v.Day() == 0 {
			first0[v.User] = true
		}
	}
	if len(first0) < 20 {
		t.Fatalf("only %d users active on day 0 without late joiners", len(first0))
	}
}
