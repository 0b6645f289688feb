package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	return New([]Visit{
		{User: 2, Time: 100, Host: "b.example"},
		{User: 1, Time: 50, Host: "a.example"},
		{User: 1, Time: 90000, Host: "c.example"}, // day 1
		{User: 1, Time: 60, Host: "a.example"},
		{User: 2, Time: 86399, Host: "d.example"}, // day 0 edge
	})
}

func TestTraceSortsByTime(t *testing.T) {
	tr := sampleTrace()
	vs := tr.Visits()
	for i := 1; i < len(vs); i++ {
		if vs[i].Time < vs[i-1].Time {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if vs[0].Time != 50 || vs[len(vs)-1].Time != 90000 {
		t.Fatalf("unexpected order %v", vs)
	}
}

func TestTraceAppendResorts(t *testing.T) {
	tr := New(nil)
	tr.Append(Visit{User: 1, Time: 100, Host: "x"})
	tr.Append(Visit{User: 1, Time: 10, Host: "y"})
	vs := tr.Visits()
	if vs[0].Host != "y" {
		t.Fatal("Append did not re-sort")
	}
}

func TestTraceUsersDays(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Users(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Users = %v", got)
	}
	if tr.Days() != 2 {
		t.Fatalf("Days = %d", tr.Days())
	}
	if New(nil).Days() != 0 {
		t.Fatal("empty trace Days != 0")
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDaySlice(t *testing.T) {
	tr := sampleTrace()
	d0 := tr.DaySlice(0)
	if len(d0) != 4 {
		t.Fatalf("day 0 has %d visits", len(d0))
	}
	d1 := tr.DaySlice(1)
	if len(d1) != 1 || d1[0].Host != "c.example" {
		t.Fatalf("day 1 = %v", d1)
	}
	if len(tr.DaySlice(5)) != 0 {
		t.Fatal("future day not empty")
	}
}

func TestVisitDay(t *testing.T) {
	if (Visit{Time: 0}).Day() != 0 || (Visit{Time: 86400}).Day() != 1 || (Visit{Time: 86399}).Day() != 0 {
		t.Fatal("Day boundaries wrong")
	}
}

func TestDailySequences(t *testing.T) {
	tr := sampleTrace()
	seqs := tr.DailySequences(0)
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences", len(seqs))
	}
	// User 1 first (ascending ID): visits at 50, 60.
	if !reflect.DeepEqual(seqs[0], []string{"a.example", "a.example"}) {
		t.Fatalf("user-1 seq = %v", seqs[0])
	}
	if !reflect.DeepEqual(seqs[1], []string{"b.example", "d.example"}) {
		t.Fatalf("user-2 seq = %v", seqs[1])
	}
}

func TestAllSequences(t *testing.T) {
	tr := sampleTrace()
	seqs := tr.AllSequences()
	if len(seqs) != 3 { // 2 on day 0, 1 on day 1
		t.Fatalf("got %d sequences", len(seqs))
	}
}

func TestSessionWindow(t *testing.T) {
	tr := New([]Visit{
		{User: 1, Time: 100, Host: "a"},
		{User: 1, Time: 500, Host: "b"},
		{User: 2, Time: 600, Host: "x"},
		{User: 1, Time: 700, Host: "c"},
		{User: 1, Time: 1500, Host: "d"},
	})
	// Window (500, 1300] for user 1: hosts at 700 only.
	got := tr.Session(1, 1300, 800)
	if !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("Session = %v", got)
	}
	// Window covering everything.
	got = tr.Session(1, 2000, 10000)
	if !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("Session = %v", got)
	}
	// Boundary: visit exactly at end is included; at end-window excluded.
	got = tr.Session(1, 700, 200)
	if !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("boundary Session = %v", got)
	}
	if got := tr.Session(3, 1000, 1000); got != nil {
		t.Fatalf("unknown user Session = %v", got)
	}
}

func TestFilterHosts(t *testing.T) {
	tr := sampleTrace()
	f := tr.FilterHosts(func(h string) bool { return h != "a.example" })
	if f.Len() != 3 {
		t.Fatalf("filtered Len = %d", f.Len())
	}
	for _, v := range f.Visits() {
		if v.Host == "a.example" {
			t.Fatal("filtered host survived")
		}
	}
}

func TestPerUserVisits(t *testing.T) {
	tr := sampleTrace()
	per := tr.PerUserVisits()
	if len(per[1]) != 3 || len(per[2]) != 2 {
		t.Fatalf("per-user sizes %d/%d", len(per[1]), len(per[2]))
	}
	for i := 1; i < len(per[1]); i++ {
		if per[1][i].Time < per[1][i-1].Time {
			t.Fatal("per-user visits not ordered")
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Visits(), tr.Visits()) {
		t.Fatalf("round trip mismatch:\n%v\n%v", got.Visits(), tr.Visits())
	}
}

func TestReadJSONLBad(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewReader([]byte("{bad json\n"))); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	src := "{\"user\":1,\"time\":5,\"host\":\"h\"}\n\n"
	tr, err := ReadJSONL(bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// Property: Session output is always a subsequence of the user's visits
// within (end-window, end].
func TestSessionPropertyQuick(t *testing.T) {
	f := func(times []uint16, endRaw, winRaw uint16) bool {
		visits := make([]Visit, len(times))
		for i, tm := range times {
			visits[i] = Visit{User: 1, Time: int64(tm), Host: "h"}
		}
		tr := New(visits)
		end := int64(endRaw)
		win := int64(winRaw%1000) + 1
		got := tr.Session(1, end, win)
		want := 0
		for _, v := range tr.Visits() {
			if v.Time > end-win && v.Time <= end {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
