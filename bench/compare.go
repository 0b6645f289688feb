package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// readRuns loads a -out file: one Run per line.
func readRuns(path string) ([]Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []Run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// sample is one side's values of one (workload, metric) pairing.
type sample []float64

func (s sample) spread() float64 {
	if len(s) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(s)
	return (q3 - q1) / q2
}

// Verdict of one (workload, metric) pairing.
type Verdict string

const (
	Same       Verdict = "same"
	Regressed  Verdict = "regressed"
	Improved   Verdict = "improved"
	Unresolved Verdict = "unresolved"
)

// judge compares side b against side a for a metric with the given
// direction and bound. worse is b's median relative to a's, signed so
// that positive means worse. When either side's own spread (distance
// between its quartiles over its median) exceeds the bound the medians
// cannot be told apart and the pairing is unresolved — unless every run
// of one side beats every run of the other, which no spread explains.
func judge(a, b sample, better string, bound float64) (v Verdict, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	spread = max(a.spread(), b.spread())
	allWorse, allBetter := separated(a, b, better)
	switch {
	case spread > bound && allBetter:
		return Improved, worse, spread
	case spread > bound && allWorse && worse > bound:
		return Regressed, worse, spread
	case spread > bound:
		return Unresolved, worse, spread
	case worse > bound:
		return Regressed, worse, spread
	case worse < -bound:
		return Improved, worse, spread
	}
	return Same, worse, spread
}

// separated reports whether every value of b is worse, or better, than
// every value of a.
func separated(a, b sample, better string) (allWorse, allBetter bool) {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	if better == "higher" {
		return maxB < minA, minB > maxA
	}
	return minB > maxA, maxB < minA
}

func minMax(s sample) (lo, hi float64) {
	lo, hi = s[0], s[0]
	for _, x := range s {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files and returns the process exit code: 1 when any pairing
// regressed or any run of the second file was incorrect.
func compareFiles(w io.Writer, spec *Spec, pathA, pathB string) int {
	ra, err := readRuns(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s holds no runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	rb, err := readRuns(pathB)
	if err == nil && len(rb) == 0 {
		err = fmt.Errorf("%s holds no runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	type key struct{ workload, metric string }
	collect := func(runs []Run) (map[key]sample, int) {
		out := make(map[key]sample)
		incorrect := 0
		for _, r := range runs {
			if r.Traced {
				continue // per-layer metrics carry no bound
			}
			if !r.Correct {
				incorrect++
			}
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out, incorrect
	}
	a, _ := collect(ra)
	b, incorrect := collect(rb)

	counts := map[Verdict]int{}
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			k := key{wl.Name, m.Name}
			if len(a[k]) == 0 || len(b[k]) == 0 {
				continue
			}
			v, worse, spread := judge(a[k], b[k], m.Better, m.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-15s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, median(a[k]), median(b[k]), 100*worse, 100*spread, 100*m.Bound, v, len(a[k]), len(b[k]))
		}
	}
	var verdicts []string
	for _, v := range []Verdict{Same, Improved, Regressed, Unresolved} {
		verdicts = append(verdicts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(w, "%s; %d incorrect runs in %s\n", strings.Join(verdicts, ", "), incorrect, pathB)
	if counts[Regressed] > 0 || incorrect > 0 {
		return 1
	}
	return 0
}
