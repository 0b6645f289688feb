package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/fault"
	"hostprof/internal/store"
	"hostprof/internal/synth"
)

// The chaos test needs a real SIGKILL — no deferred handlers, no
// graceful shutdown — so the test binary re-executes itself as a victim
// backend process. TestMain dispatches on an env var: the child serves
// until killed, the parent is the normal test run.
const (
	chaosChildEnv = "HOSTPROF_CHAOS_CHILD"
	chaosDirEnv   = "HOSTPROF_CHAOS_DIR"
)

func TestMain(m *testing.M) {
	if os.Getenv(chaosChildEnv) == "1" {
		chaosChild()
		return
	}
	os.Exit(m.Run())
}

// chaosChild runs a durable backend with injected WAL latency and
// serves it until the parent kills the process. FsyncAlways makes every
// acknowledged report durable by construction, which is the property
// the parent verifies after the kill.
func chaosChild() {
	fault.Set(fault.StoreWALAppend, fault.Latency(2*time.Millisecond))
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	b, err := New(Config{
		Ontology: ont,
		AdDB:     db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		DataDir:  os.Getenv(chaosDirEnv),
		Fsync:    store.FsyncAlways,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
	// The parent scans stdout for this line to find the port.
	fmt.Printf("ADDR %s\n", ln.Addr())
	http.Serve(ln, b.Handler())
}

// TestChaosSIGKILLUnderWALLatency is the crash-consistency acceptance
// test: a backend with per-append WAL latency injected is SIGKILLed
// while concurrent reporters hammer /v1/report, and the recovered store
// must hold at least every visit whose report was acknowledged over
// HTTP before the kill (FsyncAlways: ack implies fsync'd).
func TestChaosSIGKILLUnderWALLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), chaosChildEnv+"=1", chaosDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("child never reported its address (scan err: %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// Hammer the victim. Every report carries exactly one visit; a
	// completed HTTP response (200 served, or 503 not-trained — visits
	// are ingested before profiling) acknowledges that the visit was
	// WAL-appended and fsynced.
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"user":%d,"time":%d,"hosts":["chaos-%d-%d.example"]}`,
					w, 1000+i, w, i)
				resp, err := client.Post("http://"+addr+"/v1/report", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					return // the kill landed; in-flight request not acked
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
					acked.Add(1)
				}
			}
		}(w)
	}

	// Let real traffic build up, then SIGKILL mid-append (the injected
	// latency makes "mid-append" the likely phase).
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	want := acked.Load()
	if want < 50 {
		t.Fatalf("only %d reports acknowledged before the kill; victim too slow", want)
	}

	// Recover the store the way a restarted backend would.
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer st.Close()
	if got := int64(st.Len()); got < want {
		t.Fatalf("recovered %d visits, but %d reports were acknowledged before SIGKILL", got, want)
	}
	t.Logf("acked %d reports, recovered %d visits", want, st.Len())
}
