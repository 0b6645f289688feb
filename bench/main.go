// Command bench is hostprof's end-to-end and per-layer benchmark: it
// generates a seeded synthetic world, runs the built `hostprof` binary
// as child processes, drives them over loopback HTTP, checks every
// answer and prints each metric by name. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// workloadDeadline fails a run that hangs instead of letting it sit:
// the driver allows one run 180 seconds.
const workloadDeadline = 170 * time.Second

// extraWorkloads are implemented but not declared in BENCHMARK.json:
// the driver never runs them, `-workload <name>` does. report_cluster is
// report_single's traffic through a gateway and two shards — three
// processes a request on the two cores this benchmark is sized for, and
// too noisy there to gate on; its difference from report_single is the
// gateway hop.
var extraWorkloads = []string{"report_cluster"}

// Spec is the part of BENCHMARK.json the harness reads back: which
// metrics each kind of run must emit, and the bounds -compare applies.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one declared metric.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*Spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json — the repository root, whether the harness was
// started there or in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or any parent")
		}
		dir = parent
	}
}

// buildHostprof compiles cmd/hostprof into <root>/.bench_build. go
// build is a no-op when the binary is current.
func buildHostprof(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "hostprof")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/hostprof")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/hostprof: %w", err)
	}
	return out, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: one declared in BENCHMARK.json, report_cluster, or all declared ones")
		seed     = flag.Uint64("seed", 1, "world seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end run against child processes; 1: traced in-process run printing the per-layer metrics")
		out      = flag.String("out", "", "append each run's full record to this file as one JSON line")
		runs     = flag.Int("runs", 1, "repeat the selected workloads this many times")
		quick    = flag.Bool("quick", false, "tiny world and counts: a smoke test, not a measurement")
		hostprof = flag.String("hostprof", "", "path to a built cmd/hostprof (default: build it into .bench_build)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 when a metric regressed")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 && slices.Contains(extraWorkloads, *workload) {
		names = []string{*workload}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	bin := *hostprof
	if bin == "" && *traced == 0 {
		if bin, err = buildHostprof(root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}

	h := &harness{
		root: root, spec: spec, bin: bin,
		seconds: *seconds, quick: *quick, traced: *traced != 0, out: *out,
		stdout: os.Stdout,
	}
	// Ctrl-C and SIGTERM cancel the run; the deferred Close in runOne
	// then kills the children and removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			run, err := h.runOne(ctx, name, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if !run.Correct {
				code = 1
			}
		}
	}
	return code
}

// harness holds what every run of this invocation shares.
type harness struct {
	root    string
	spec    *Spec
	bin     string
	seconds int
	quick   bool
	traced  bool
	out     string
	stdout  io.Writer // where reports are printed
}

// runOne measures one workload once and prints its report. A run that
// cannot complete returns an error and prints no summary line; a run
// that completes with wrong answers prints one with correct=false.
func (h *harness) runOne(parent context.Context, name string, seed uint64) (run *Run, err error) {
	ctx, cancel := context.WithTimeout(parent, workloadDeadline)
	defer cancel()
	sup, err := newSupervisor(h.bin, filepath.Join(h.root, ".bench_build"), filepath.Join(h.root, "bench", "out"), name)
	if err != nil {
		return nil, err
	}
	// Close runs on every exit path, a panic in the harness included:
	// the panic is reported as this run's error after the children are
	// gone.
	defer func() {
		sup.Close()
		if p := recover(); p != nil {
			run, err = nil, fmt.Errorf("harness panic: %v", p)
		}
	}()

	run = &Run{
		Workload: name, Seed: seed, Seconds: h.seconds, Traced: h.traced,
		Metrics: map[string]Metric{}, Diag: map[string]Metric{},
		Env: currentEnv(h.root),
	}
	cfg := paperWorld
	if h.quick {
		cfg = quickWorld
	}
	t0 := time.Now()
	w := NewWorld(cfg, seed)
	b := &bench{ctx: ctx, sup: sup, w: w, sizes: sizesFor(h.seconds, h.quick), run: run, worldGen: time.Since(t0)}

	if h.traced {
		err = b.tracedRun(name, filepath.Join(h.root, "bench", "out"))
	} else {
		switch name {
		case "report_single":
			err = b.reportWorkload(TopologySpec{Shards: 1})
		case "report_cluster":
			err = b.reportWorkload(TopologySpec{Shards: 2})
		case "batch_cold":
			err = b.batchCold()
		case "daily_cycle":
			err = b.dailyCycle()
		default:
			err = fmt.Errorf("workload %q is declared in BENCHMARK.json but not implemented", name)
		}
	}
	if err != nil {
		if ctx.Err() != nil && parent.Err() == nil {
			err = fmt.Errorf("deadline of %s exceeded: %w", workloadDeadline, err)
		}
		return nil, err
	}
	declared := h.spec.EndToEnd
	if h.traced {
		declared = h.spec.PerLayer
	}
	if err := checkDeclared(run, declared); err != nil {
		return nil, err
	}
	run.finish()
	if h.out != "" {
		run.StreamHash = fmt.Sprintf("%016x", w.StreamHash())
		if err := run.appendTo(h.out); err != nil {
			return nil, err
		}
	}
	run.print(h.stdout)
	return run, nil
}

// checkDeclared insists that a run emitted exactly the metrics
// BENCHMARK.json declares for its kind, each with the declared unit.
func checkDeclared(run *Run, declared []MetricSpec) error {
	want := make(map[string]string, len(declared))
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, unit := range want {
		got, ok := run.Metrics[name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", name)
		}
		if got.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, got.Unit, unit)
		}
	}
	for name := range run.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}
