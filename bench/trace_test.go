package main

import "testing"

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 30}}, 20},          // disjoint
		{[][2]int64{{0, 10}, {5, 15}}, 15},           // overlapping
		{[][2]int64{{0, 30}, {5, 15}}, 30},           // nested
		{[][2]int64{{20, 30}, {0, 10}, {8, 22}}, 30}, // unsorted chain
	} {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("unionLength(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

// A batch through the gateway: the client span contains the gateway
// span, which contains two shard chunks served in parallel. The
// gateway's self time is its span minus the union of the chunks — the
// slower chunk hides the faster one.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	req := []Span{
		{Seq: 1, Name: "shard.batch", Start: 20, End: 60},
		{Seq: 1, Name: "client.batch", Start: 0, End: 100},
		{Seq: 1, Name: "shard.batch", Start: 25, End: 80},
		{Seq: 1, Name: "gateway.batch", Start: 10, End: 90},
	}
	resolveSpans(req)
	byName := map[string][]Span{}
	for _, sp := range req {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	client, gw := byName["client.batch"][0], byName["gateway.batch"][0]
	if client.Parent != -1 || client.SelfNS != 20 {
		t.Errorf("client: parent %d self %d, want root with self 20", client.Parent, client.SelfNS)
	}
	if req[gw.Parent].Name != "client.batch" || gw.SelfNS != 80-60 {
		t.Errorf("gateway: parent %q self %d, want client.batch and 20 (80 minus the 60 the chunks cover)", req[gw.Parent].Name, gw.SelfNS)
	}
	for _, sh := range byName["shard.batch"] {
		if req[sh.Parent].Name != "gateway.batch" || sh.SelfNS != sh.dur() {
			t.Errorf("shard chunk: parent %q self %d dur %d", req[sh.Parent].Name, sh.SelfNS, sh.dur())
		}
	}
	bad, gap, parallel := budgetCheck([][]Span{req})
	if bad != 0 || gap != 0 || parallel != 1 {
		t.Errorf("budgetCheck = %d bad roots, gap %d, %d parallel; want 0, 0, 1", bad, gap, parallel)
	}
}

// A serial report: self times must sum to the root exactly.
func TestSelfTimesSumToRoot(t *testing.T) {
	req := []Span{
		{Seq: 7, Name: "client.report", Start: 0, End: 1000},
		{Seq: 7, Name: "gateway.report", Start: 100, End: 900},
		{Seq: 7, Name: "shard.report", Start: 300, End: 700},
	}
	resolveSpans(req)
	var sum int64
	for _, sp := range req {
		sum += sp.SelfNS
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, root is 1000", sum)
	}
	if bad, gap, _ := budgetCheck([][]Span{req}); bad != 0 || gap != 0 {
		t.Errorf("budgetCheck on a nested chain: %d bad roots, gap %d", bad, gap)
	}
	// A handler returns a little after its caller has the whole answer:
	// the tail is clipped, the span is still the client's child.
	tail := []Span{
		{Seq: 8, Name: "client.report", Start: 0, End: 1000},
		{Seq: 8, Name: "shard.report", Start: 200, End: 1030},
	}
	resolveSpans(tail)
	if tail[1].Parent != 0 || tail[0].SelfNS != 200 || tail[1].SelfNS != 800 {
		t.Errorf("late handler return: parent %d, client self %d, shard self %d; want 0, 200, 800", tail[1].Parent, tail[0].SelfNS, tail[1].SelfNS)
	}
	if bad, gap, _ := budgetCheck([][]Span{tail}); bad != 0 || gap != 0 {
		t.Errorf("budgetCheck with a clipped tail: %d bad roots, gap %d", bad, gap)
	}
	// A span that starts outside every client span belongs to no
	// request's budget and must be caught.
	stray := append([]Span{{Seq: 7, Name: "shard.report", Start: 1050, End: 1100}}, req...)
	resolveSpans(stray)
	if bad, _, _ := budgetCheck([][]Span{stray}); bad != 1 {
		t.Errorf("a span outside the client span went unnoticed")
	}
}
