package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := sample{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   sample
		better string
		bound  float64
		want   Verdict
	}{
		{"unchanged", steady, sample{101, 100, 100, 99, 102}, "lower", 0.1, Same},
		{"slower latency", steady, sample{120, 121, 119, 120, 122}, "lower", 0.1, Regressed},
		{"faster latency", steady, sample{80, 81, 79, 80, 82}, "lower", 0.1, Improved},
		{"lower throughput", steady, sample{80, 81, 79, 80, 82}, "higher", 0.1, Regressed},
		{"higher throughput", steady, sample{120, 121, 119, 120, 122}, "higher", 0.1, Improved},
		{"within bound", steady, sample{105, 106, 104, 105, 105}, "lower", 0.1, Same},
		// The spread of b (quartiles 80..140 over a median of 105) is
		// wider than the bound: its median proves nothing.
		{"noisy", steady, sample{70, 140, 105, 80, 150}, "lower", 0.1, Unresolved},
		// Just as noisy, but every run of b beats every run of a.
		{"noisy but separated", steady, sample{40, 80, 60, 45, 85}, "lower", 0.1, Improved},
		{"noisy and all worse", steady, sample{140, 280, 210, 150, 300}, "lower", 0.1, Regressed},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"report_single"})
	write := func(name string, values ...float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, v := range values {
			r := Run{Workload: "report_single", Correct: true, Metrics: map[string]Metric{"op_p50_ms": {v, "ms"}}}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1.00, 1.01, 0.99, 1.00, 1.02)
	var out bytes.Buffer
	if code := compareFiles(&out, spec, base, write("same.jsonl", 1.01, 1.00, 1.00, 1.02, 0.99)); code != 0 {
		t.Errorf("identical sets exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, spec, base, write("slow.jsonl", 1.30, 1.31, 1.29, 1.30, 1.32)); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 30%% regression exits %d:\n%s", code, out.String())
	}
	if code := compareFiles(&out, spec, base, filepath.Join(t.TempDir(), "missing.jsonl")); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
	os.Remove(base)
}
