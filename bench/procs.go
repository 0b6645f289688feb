package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hostprof/internal/obs"
	"hostprof/internal/server"
)

// Proc is one child `hostprof` process.
type Proc struct {
	Name string // "serve0", "gateway": log file stem and span label
	URL  string
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait returns
}

// Supervisor owns every child process and scratch directory of a run, so
// that one Close on any exit path leaves nothing behind.
type Supervisor struct {
	bin    string // built cmd/hostprof
	tmp    string // per-run scratch under <root>/.bench_build
	logDir string // bench/out
	prefix string // workload name, prefixes log files
	procs  []*Proc
}

func newSupervisor(bin, buildDir, logDir, prefix string) (*Supervisor, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &Supervisor{bin: bin, tmp: tmp, logDir: logDir, prefix: prefix}, nil
}

// Dir returns (creating it) a scratch sub-directory of the run.
func (s *Supervisor) Dir(name string) (string, error) {
	p := filepath.Join(s.tmp, name)
	return p, os.MkdirAll(p, 0o755)
}

// basePort is the first of the loopback ports the harness prefers, one
// per process of a topology. The gateway's ring hashes shard URLs, so
// only stable URLs give every run — and every seed — the same split of
// users over shards. A preferred port that is taken (another run on the
// same box) falls back to an ephemeral one: placement then differs,
// correctness does not.
const basePort = 28430

// listenAddr reserves a loopback port by binding and releasing it; the
// child re-binds it a few milliseconds later. slot selects the
// preferred port.
func listenAddr(slot int) (string, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", basePort+slot))
	if err != nil {
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return "", err
		}
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Start launches `hostprof <args...> -addr <addr>` and waits until its
// /healthz answers. Child stderr and stdout go to
// <logDir>/<workload>-<name>.log (appended, so a restart keeps the
// first life's log).
func (s *Supervisor) Start(ctx context.Context, name, addr string, args ...string) (*Proc, error) {
	logf, err := os.OpenFile(filepath.Join(s.logDir, s.prefix+"-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append(append([]string(nil), args...), "-addr", addr)
	cmd := exec.Command(s.bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness killed with SIGKILL cannot run its clean-up; the kernel
	// then takes the children down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &Proc{Name: name, URL: "http://" + addr, args: full, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	s.procs = append(s.procs, p)
	if err := p.waitHTTP(ctx, "/healthz"); err != nil {
		return nil, err
	}
	return p, nil
}

// waitHTTP polls path until it answers 200, the process dies, or ctx
// ends.
func (p *Proc) waitHTTP(ctx context.Context, path string) error {
	start := time.Now()
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before %s answered (see its log)", p.Name, path)
		case <-ctx.Done():
			return fmt.Errorf("%s: waiting for %s: %w", p.Name, path, ctx.Err())
		default:
		}
		code, _, err := httpDo(ctx, http.MethodGet, p.URL+path, nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		// A serving shard is back within a tenth of a second, and
		// time.Sleep overshoots by a millisecond or so here: sleeping
		// between polls would add a few percent of noise to recover_s.
		// Poll back to back at first, then stop burning a core.
		if time.Since(start) < spinPoll {
			runtime.Gosched()
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

const spinPoll = 200 * time.Millisecond

// Stop sends SIGTERM (the product's graceful path: drain, flush WAL,
// final snapshot) and waits; a child still alive after 20 s is killed.
func (p *Proc) Stop() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for 20s; killed", p.Name)
	}
	p.log.Close()
	return nil
}

// kill is the unconditional teardown.
func (p *Proc) kill() {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// Close kills every child still alive and removes the run's scratch
// directory.
func (s *Supervisor) Close() {
	for _, p := range s.procs {
		p.kill()
	}
	s.procs = nil
	os.RemoveAll(s.tmp)
}

// --- /proc readings -------------------------------------------------------

// clockTick is USER_HZ; Linux fixes it at 100 on every supported
// architecture.
const clockTick = 100

// CPUSeconds returns the CPU time the process has consumed: the
// scheduler's own nanosecond run-time counters summed over its threads
// (/proc/<pid>/task/*/schedstat) where the kernel keeps them, else
// utime+stime of /proc/<pid>/stat. The latter is sampled at the 10 ms
// tick — whoever runs when the tick fires is charged all of it — which
// on a slice of half a second is a few percent of noise of its own.
func (p *Proc) CPUSeconds() (float64, error) {
	pid := p.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns / 1e9, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("non-numeric /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// PeakRSSMB returns VmHWM, the process's resident-set high-water mark.
func (p *Proc) PeakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// --- HTTP helpers ---------------------------------------------------------

// ctlClient carries the harness's control traffic (import, retrain,
// stats, scrapes); the load generator has its own transport so control
// connections never count against its connection budget.
var ctlClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}

func httpDo(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := ctlClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON GETs url and decodes a 200 answer into out.
func getJSON(ctx context.Context, url string, out any) error {
	code, body, err := httpDo(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// Stats fetches /v1/stats (merged over shards when p is a gateway).
func (p *Proc) Stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	err := getJSON(ctx, p.URL+"/v1/stats", &st)
	return st, err
}

// Readiness fetches a shard's /readyz body whatever its status code.
func (p *Proc) Readiness(ctx context.Context) (server.Readiness, error) {
	var rd server.Readiness
	_, body, err := httpDo(ctx, http.MethodGet, p.URL+"/readyz", nil)
	if err != nil {
		return rd, err
	}
	return rd, json.Unmarshal(body, &rd)
}

// Varz is a /varz scrape indexed for counter and gauge lookups.
type Varz []obs.MetricSnapshot

func (p *Proc) Varz(ctx context.Context) (Varz, error) {
	var v Varz
	err := getJSON(ctx, p.URL+"/varz", &v)
	return v, err
}

// Sum adds the values of every series called name whose labels include
// all of match (nil matches every series). Histograms contribute their
// sum of observations.
func (v Varz) Sum(name string, match map[string]string) float64 {
	var total float64
series:
	for _, m := range v {
		if m.Name != name {
			continue
		}
		for k, want := range match {
			if m.Labels[k] != want {
				continue series
			}
		}
		if m.Kind == "histogram" {
			total += m.Sum
		} else {
			total += m.Value
		}
	}
	return total
}
