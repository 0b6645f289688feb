package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Env records where a run was measured, so two result files can be told
// apart when their numbers differ.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	LoadConns  int    `json:"load_conns"`
}

func currentEnv(root string) Env {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, LoadConns: loadConns(),
	}
}

// Run is everything one invocation measured on one workload. Its
// summary line (the contract's four keys) is what the driver reads;
// the whole record is what -out appends and -compare reads.
type Run struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Metrics holds the declared metrics of this kind of run:
	// end-to-end ones untraced, per-layer ones traced.
	Metrics map[string]Metric `json:"metrics"`
	// Diag holds undeclared diagnostics (loadgen.*, proc.*, set-up
	// steps): printed and recorded, never gated.
	Diag   map[string]Metric `json:"diag,omitempty"`
	Phases []Phase           `json:"phases,omitempty"`
	// RestartS and RetrainS hold every restart and retrain of the run's
	// set-ups, in order; recover_s and retrain_s are taken from them.
	RestartS []float64 `json:"restart_s,omitempty"`
	RetrainS []float64 `json:"retrain_s,omitempty"`
	Checks   []Check   `json:"checks,omitempty"`
	// Flags are validity warnings, e.g. a generator that ran late.
	Flags      []string `json:"flags,omitempty"`
	StreamHash string   `json:"stream_hash,omitempty"`
	Env        Env      `json:"env"`
}

func (r *Run) metric(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

func (r *Run) diag(name string, v float64, unit string) {
	r.Diag[name] = Metric{Value: v, Unit: unit}
}

// check records a correctness check; each counts as one attempted
// operation and, when it fails, one failed.
func (r *Run) check(name string, ok bool, format string, args ...any) {
	c := Check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *Run) flag(format string, args ...any) {
	r.Flags = append(r.Flags, fmt.Sprintf(format, args...))
}

// phase folds a load phase into the run's totals.
func (r *Run) phase(ph Phase) {
	r.Phases = append(r.Phases, ph)
	r.Attempted += ph.Sent
	r.Failed += ph.Failed
}

// summary is the contract's last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// finish settles Correct and rejects numbers the driver could not use.
func (r *Run) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check("metric_finite", false, "%s is %v", name, m.Value)
			r.Correct = false
			m.Value = 0
			r.Metrics[name] = m
		}
	}
}

// print writes the human-readable report and, last, the summary line.
func (r *Run) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d traced=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "phase %-14s %-6s conns=%d sent=%d ok=%d failed=%d elapsed=%.3fs", ph.Name, ph.Loop, ph.Conns, ph.Sent, ph.OK, ph.Failed, ph.Elapsed)
		if ph.Rate > 0 {
			fmt.Fprintf(w, " rate=%.0f/s", ph.Rate)
		}
		if ph.FirstErr != "" {
			fmt.Fprintf(w, " first_error=%q", ph.FirstErr)
		}
		fmt.Fprintln(w)
	}
	printMetrics(w, "metric", r.Metrics)
	printMetrics(w, "diag", r.Diag)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check  %-34s %s %s\n", c.Name, verdict, c.Detail)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "flag   %s\n", f)
	}
	line, _ := json.Marshal(summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, kind string, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-6s %-34s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// appendTo appends the run as one JSON line to path.
func (r *Run) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
