package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile must not reorder its input: window order is arrival order")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(odd) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
}

// A slow stretch of the box must not move the best window; a cost paid
// in every window must.
func TestBestWindow(t *testing.T) {
	flat := make([]float64, 400)
	for i := range flat {
		flat[i] = 1
	}
	slowStretch := append([]float64(nil), flat...)
	for i := 100; i < 300; i++ {
		slowStretch[i] = 1.6 // half the run in the slow state
	}
	if got := bestWindow(slowStretch, 100, 50); got != 1 {
		t.Errorf("a slow stretch moved the best window's median to %v", got)
	}
	if got := percentile(slowStretch, 50); got == 1.6 {
		t.Log("whole-run median sits on the boundary, as expected")
	}
	everyWindow := append([]float64(nil), flat...)
	for w := 0; w < 4; w++ {
		for i := 0; i < 6; i++ {
			everyWindow[w*100+i] = 50
		}
	}
	if got := bestWindow(everyWindow, 100, 95); got != 50 {
		t.Errorf("a tail present in every window reads %v, want 50", got)
	}
	if got := bestWindow(everyWindow, 100, 50); got != 1 {
		t.Errorf("median of the best window = %v, want 1", got)
	}
	// A trailing partial window is dropped, even when it is the best.
	if got := bestWindow(append(flat, 0.1, 0.1, 0.1), 100, 50); got != 1 {
		t.Errorf("partial window counted: %v", got)
	}
	// Fewer samples than one window: the whole sample is the window.
	if got := bestWindow([]float64{1, 2, 3}, 100, 100); got != 3 {
		t.Errorf("short sample: %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the driver uses; the expected values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20, 15, 30, 25})
	if q1 != 12.5 || q2 != 20 || q3 != 27.5 {
		t.Errorf("quartiles(5 values) = %v %v %v, want 12.5 20 27.5", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v .. %v, want 0.75 .. 2.25", q1, q3)
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "1234 (host prof) x) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3.0 s (250+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat accepted")
	}
	mb, err := parseVmHWM("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200 MB", mb, err)
	}
}
