// Package trace defines the hostname-request records exchanged between
// the traffic sources (synthetic browser, packet sniffer) and the
// profiling pipeline, along with the windowing operations of paper
// Section 5.4: per-day training sequences and sliding T-minute sessions.
package trace

import (
	"cmp"
	"slices"
	"sort"
)

// Visit is one observed hostname request: user (as distinguishable by the
// observer — MAC address, MSISDN, extension install ID…), time in seconds
// since the start of the observation, and the requested hostname.
type Visit struct {
	User int    `json:"user"`
	Time int64  `json:"time"`
	Host string `json:"host"`
}

// Day returns the zero-based day index of the visit.
func (v Visit) Day() int { return int(v.Time / 86400) }

// Trace is a time-ordered collection of visits.
type Trace struct {
	visits []Visit
	sorted bool
}

// New returns a Trace over the given visits. The slice is retained.
func New(visits []Visit) *Trace {
	t := &Trace{visits: visits}
	t.ensureSorted()
	return t
}

// Append adds visits to the trace, invalidating sort order until next use.
func (t *Trace) Append(vs ...Visit) {
	t.visits = append(t.visits, vs...)
	t.sorted = false
}

func (t *Trace) ensureSorted() {
	if t.sorted {
		return
	}
	slices.SortStableFunc(t.visits, func(a, b Visit) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.User, b.User)
	})
	t.sorted = true
}

// Visits returns the time-ordered visit slice. Callers must not modify it.
func (t *Trace) Visits() []Visit {
	t.ensureSorted()
	return t.visits
}

// Len returns the number of visits.
func (t *Trace) Len() int { return len(t.visits) }

// Users returns the sorted distinct user IDs present in the trace.
func (t *Trace) Users() []int {
	set := make(map[int]bool)
	for _, v := range t.visits {
		set[v.User] = true
	}
	out := make([]int, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Days returns the number of days spanned (max day index + 1), or 0 for
// an empty trace.
func (t *Trace) Days() int {
	max := -1
	for _, v := range t.visits {
		if d := v.Day(); d > max {
			max = d
		}
	}
	return max + 1
}

// FilterHosts returns a new trace without visits whose host is rejected
// by keep.
func (t *Trace) FilterHosts(keep func(host string) bool) *Trace {
	out := make([]Visit, 0, len(t.visits))
	for _, v := range t.visits {
		if keep(v.Host) {
			out = append(out, v)
		}
	}
	return New(out)
}

// DaySlice returns the visits of day d in time order.
func (t *Trace) DaySlice(d int) []Visit {
	t.ensureSorted()
	lo := sort.Search(len(t.visits), func(i int) bool {
		return t.visits[i].Time >= int64(d)*86400
	})
	hi := sort.Search(len(t.visits), func(i int) bool {
		return t.visits[i].Time >= int64(d+1)*86400
	})
	return t.visits[lo:hi]
}

// DailySequences returns, for day d, one hostname sequence per user in
// visit order — the training input of Section 5.4 ("the sequence of hosts
// visited by all the users during the whole previous day"). Users are
// emitted in ascending ID order for determinism.
func (t *Trace) DailySequences(d int) [][]string {
	day := t.DaySlice(d)
	perUser := make(map[int][]string)
	for _, v := range day {
		perUser[v.User] = append(perUser[v.User], v.Host)
	}
	users := make([]int, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Ints(users)
	out := make([][]string, 0, len(users))
	for _, u := range users {
		out = append(out, perUser[u])
	}
	return out
}

// AllSequences returns one sequence per (user, day) pair across the whole
// trace, suitable for one-shot model training.
func (t *Trace) AllSequences() [][]string {
	var out [][]string
	for d := 0; d < t.Days(); d++ {
		out = append(out, t.DailySequences(d)...)
	}
	return out
}

// Session returns the hostnames user requested in the window
// (end-T, end], in visit order — the s_u^T of Section 4.1 with T a time
// interval (the paper used T = 20 minutes).
func (t *Trace) Session(user int, end int64, window int64) []string {
	t.ensureSorted()
	lo := sort.Search(len(t.visits), func(i int) bool {
		return t.visits[i].Time > end-window
	})
	var hosts []string
	for _, v := range t.visits[lo:] {
		if v.Time > end {
			break
		}
		if v.User == user {
			hosts = append(hosts, v.Host)
		}
	}
	return hosts
}

// PerUserVisits groups the trace by user, each group in time order.
func (t *Trace) PerUserVisits() map[int][]Visit {
	t.ensureSorted()
	out := make(map[int][]Visit)
	for _, v := range t.visits {
		out[v.User] = append(out[v.User], v)
	}
	return out
}
