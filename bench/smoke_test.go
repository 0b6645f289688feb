package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The -quick smoke: every declared workload runs end to end against
// real child processes at tiny counts, and every run's summary line
// carries exactly the metrics BENCHMARK.json declares for its kind —
// each once, none undeclared — and the contract's four keys.
func TestQuickSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildHostprof(root)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []MetricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	type job struct {
		workload string
		traced   bool
	}
	var jobs []job
	for _, w := range spec.Workloads {
		jobs = append(jobs, job{w.Name, false})
	}
	for _, name := range extraWorkloads {
		jobs = append(jobs, job{name, false})
	}
	// One traced run per topology kind keeps the test short; the traced
	// procedure is the same code for all of them.
	jobs = append(jobs, job{"report_single", true}, job{"batch_cold", true})
	for _, j := range jobs {
		var out bytes.Buffer
		h := &harness{root: root, spec: spec, bin: bin, seconds: 1, quick: true, traced: j.traced, stdout: &out}
		run, err := h.runOne(context.Background(), j.workload, 5)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", j.workload, j.traced, err)
		}
		if !run.Correct {
			t.Errorf("%s traced=%v: incorrect run:\n%s", j.workload, j.traced, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", j.workload, err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
			t.Errorf("%s: summary keys %s", j.workload, got)
		}
		var metrics map[string]Metric
		if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var got []string
		for name, m := range metrics {
			got = append(got, name)
			if !j.traced && m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", j.workload, name)
			}
		}
		sort.Strings(got)
		want := names(spec.EndToEnd)
		if j.traced {
			want = names(spec.PerLayer)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s traced=%v emitted\n  %v\ndeclared\n  %v", j.workload, j.traced, got, want)
		}
		if j.traced {
			if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+j.workload+".json")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		}
	}
	// Nothing may outlive a run: no scratch directory, no child.
	left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// checkDeclared is what turns a forgotten or misspelt metric into a
// failed run.
func TestCheckDeclared(t *testing.T) {
	declared := []MetricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	run := &Run{Metrics: map[string]Metric{"a": {1, "ms"}, "b": {2, "s"}}}
	if err := checkDeclared(run, declared); err != nil {
		t.Errorf("exact match rejected: %v", err)
	}
	run.Metrics["c"] = Metric{3, "s"}
	if err := checkDeclared(run, declared); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(run.Metrics, "c")
	delete(run.Metrics, "b")
	if err := checkDeclared(run, declared); err == nil {
		t.Error("missing metric accepted")
	}
	run.Metrics["b"] = Metric{2, "ms"}
	if err := checkDeclared(run, declared); err == nil {
		t.Error("wrong unit accepted")
	}
}
