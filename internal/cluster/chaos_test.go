package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
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
	"hostprof/internal/server"
	"hostprof/internal/store"
	"hostprof/internal/synth"
)

// The cluster chaos test SIGKILLs a real shard process mid-traffic, so
// the test binary re-executes itself as shard children (the same
// pattern as the server package's WAL chaos test). TestMain dispatches
// on an env var: children serve one durable shard until killed, the
// parent runs the normal tests.
const (
	clusterChaosChildEnv = "HOSTPROF_CLUSTER_CHAOS_CHILD"
	clusterChaosDirEnv   = "HOSTPROF_CLUSTER_CHAOS_DIR"
	clusterChaosAddrEnv  = "HOSTPROF_CLUSTER_CHAOS_ADDR"
)

func TestMain(m *testing.M) {
	if os.Getenv(clusterChaosChildEnv) == "1" {
		clusterChaosChild()
		return
	}
	os.Exit(m.Run())
}

// clusterChaosChild serves one durable shard on a fixed address until
// the parent kills the process. The address is fixed (not :0) so a
// restarted shard rejoins the ring under the same name and recovers
// exactly its old keyspace.
func clusterChaosChild() {
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	b, err := server.New(server.Config{
		Ontology: ont,
		AdDB:     db,
		Train:    core.TrainConfig{Dim: 16, Epochs: 2, MinCount: 1, Workers: 1, Seed: 11, Subsample: -1},
		Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		DataDir:  os.Getenv(clusterChaosDirEnv),
		Fsync:    store.FsyncAlways,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos shard:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", os.Getenv(clusterChaosAddrEnv))
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos shard:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	http.Serve(ln, b.Handler())
}

// spawnChaosShard launches one shard child on addr over dir and blocks
// until it reports itself listening.
func spawnChaosShard(t *testing.T, addr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		clusterChaosChildEnv+"=1",
		clusterChaosDirEnv+"="+dir,
		clusterChaosAddrEnv+"="+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	got := ""
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			got = rest
			break
		}
	}
	if got == "" {
		t.Fatalf("shard child on %s never reported its address (scan err: %v)", addr, sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return cmd
}

// freeAddrs reserves n distinct loopback addresses by binding and
// releasing them. The tiny window between release and the child's bind
// is the standard fixed-port test tradeoff.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out
}

// TestChaosGatewayShardKillAndRecovery is the cluster's graceful-
// degradation acceptance test, run against real OS processes:
//
//  1. three durable shard processes serve behind one gateway; traffic
//     flows and one retrain converges every shard to one model version,
//  2. one shard is SIGKILLed mid-traffic — the gateway sheds exactly
//     that shard's keyspace (503 + Retry-After, or 502 in the transport
//     window) while every surviving shard's users are served without a
//     single failure, and batches degrade to partial results instead of
//     erroring,
//  3. the shard restarts on the same address over the same WAL — it
//     recovers its visits, the anti-entropy pass re-ships the model,
//     and the cluster converges again with the shed keyspace restored.
func TestChaosGatewayShardKillAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	addrs := freeAddrs(t, 3)
	dirs := make([]string, 3)
	urls := make([]string, 3)
	cmds := make([]*exec.Cmd, 3)
	for i := range addrs {
		dirs[i] = t.TempDir()
		urls[i] = "http://" + addrs[i]
		cmds[i] = spawnChaosShard(t, addrs[i], dirs[i])
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	gw, err := New(Config{
		Backends: urls,
		// Tests drive probes explicitly, and with the loop off every
		// scrape below sees live state.
		HealthInterval: -1,
		ShardTimeout:   3 * time.Second,
		Logger:         quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	waitAlive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got := gw.CheckHealth(context.Background()); got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("cluster never reached %d alive shards: %+v", want, gw.ClusterStatus())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitAlive(3)
	gwSrv := httptestServer(t, gw)

	// Seed traffic: every user reports one labelled session through the
	// gateway (503 pre-training is the ingested-but-untrained answer).
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	session := func(i int) []string {
		s := u.Sites[i%len(u.Sites)]
		hosts := []string{u.Hosts[s.Host].Name}
		for _, sup := range s.Support {
			hosts = append(hosts, u.Hosts[sup].Name)
		}
		return hosts
	}
	const users = 80
	for uid := 0; uid < users; uid++ {
		report(t, gwSrv, uid, session(uid), http.StatusOK, http.StatusServiceUnavailable)
	}

	// Cluster retrain: designated shard trains, everyone converges.
	resp, err := http.Post(gwSrv+"/v1/retrain", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain → %d: %s", resp.StatusCode, raw)
	}
	var trained RetrainResponse
	if err := json.Unmarshal(raw, &trained); err != nil || trained.Version == "" || trained.Partial {
		t.Fatalf("retrain response %s (err %v)", raw, err)
	}
	waitAlive(3)
	if st := gw.ClusterStatus(); !st.Converged || st.ModelVersion != trained.Version {
		t.Fatalf("cluster not converged after retrain: %+v", st)
	}

	// Prime the federated view while all three shards answer, so the
	// victim has a last-good snapshot to degrade to after the kill.
	var cmBefore ClusterMetrics
	getJSON(t, gwSrv+"/v1/cluster/metrics", &cmBefore)
	for _, s := range cmBefore.Shards {
		if s.Status != "ok" {
			t.Fatalf("pre-kill federation not healthy: %+v", cmBefore.Shards)
		}
	}
	var evBefore struct {
		Events []Event `json:"events"`
		LastID int64   `json:"last_id"`
	}
	getJSON(t, gwSrv+"/v1/cluster/events", &evBefore)

	// Hammer the gateway from 4 workers while the kill lands. Users on
	// surviving shards must never see a failure; users on the victim
	// may see 502 (transport window) or 503 (shed).
	victim := urls[1]
	var survivorFails, victimRefusals atomic.Int64
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
				uid := (w*striders + i) % users
				owner, _ := gw.Ring().Owner(uid)
				body, _ := json.Marshal(server.ReportRequest{User: uid, Time: int64(1_000_000 + i), Hosts: session(uid)})
				resp, err := client.Post(gwSrv+"/v1/report", "application/json", bytes.NewReader(body))
				if err != nil {
					survivorFails.Add(1) // gateway itself must never drop
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
				case owner == victim &&
					(resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable):
					victimRefusals.Add(1)
				default:
					t.Errorf("user %d (owner %s): HTTP %d during outage", uid, owner, resp.StatusCode)
					survivorFails.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond) // traffic flowing against 3 healthy shards
	if err := cmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[1].Wait()
	time.Sleep(500 * time.Millisecond) // mid-traffic outage window
	close(stop)
	wg.Wait()
	if survivorFails.Load() > 0 {
		t.Fatalf("%d requests for surviving shards failed during the outage", survivorFails.Load())
	}
	if victimRefusals.Load() == 0 {
		t.Fatal("no request ever hit the victim's keyspace; outage not exercised")
	}

	// The gateway saw the failure in-band; batches degrade, not die.
	waitAlive(2)
	if st := gw.ClusterStatus(); st.AliveShards != 2 {
		t.Fatalf("alive = %d after SIGKILL, want 2", st.AliveShards)
	}

	// Mid-outage observability: federation degrades the victim to its
	// last-good (stale) snapshot while the survivors scrape ok, and the
	// timeline records the liveness flap with a timestamp.
	var cmDuring ClusterMetrics
	getJSON(t, gwSrv+"/v1/cluster/metrics", &cmDuring)
	okShards := 0
	for _, s := range cmDuring.Shards {
		switch {
		case s.Backend == victim:
			if s.Status != "stale" || s.Error == "" {
				t.Fatalf("killed shard scraped as %q (err %q), want stale with error", s.Status, s.Error)
			}
		case s.Status == "ok":
			okShards++
		}
	}
	if okShards != 2 {
		t.Fatalf("federation sees %d healthy shards mid-outage, want 2: %+v", okShards, cmDuring.Shards)
	}
	if len(cmDuring.Metrics) == 0 {
		t.Fatal("federated view emptied out mid-outage")
	}
	var evDuring struct {
		Events []Event `json:"events"`
		LastID int64   `json:"last_id"`
	}
	getJSON(t, gwSrv+"/v1/cluster/events?since="+itoa(evBefore.LastID), &evDuring)
	sawDown := false
	for _, e := range evDuring.Events {
		if e.Type == EventShardDown && e.Shard == victim {
			if e.UnixNano <= 0 {
				t.Fatalf("shard_down event missing its timestamp: %+v", e)
			}
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("timeline recorded no shard_down for %s during the outage: %+v", victim, evDuring.Events)
	}
	// Two shard chunks, one per survivor.
	var batch server.ProfileBatchResponse
	sessions := make([][]string, 2*server.MaxSessionsPerBatch)
	for i := range sessions {
		sessions[i] = session(i)
	}
	body, _ := json.Marshal(server.ProfileBatchRequest{Sessions: sessions})
	resp, err = http.Post(gwSrv+"/v1/profile/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with 2/3 shards → %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &batch); err != nil || len(batch.Profiles) != len(sessions) {
		t.Fatalf("batch over survivors: %v (%d profiles)", err, len(batch.Profiles))
	}

	// Restart the victim on the same address over the same WAL: it
	// recovers its keyspace's visits, anti-entropy re-ships the model,
	// and the cluster converges again.
	cmds[1] = spawnChaosShard(t, addrs[1], dirs[1])
	waitAlive(3)
	gw.SyncModels(context.Background())
	waitAlive(3)
	st := gw.ClusterStatus()
	if !st.Converged || st.ModelVersion != trained.Version || st.ReadyShards != 3 {
		t.Fatalf("cluster did not reconverge after restart: %+v", st)
	}
	restarted := gw.shardSnapshot(victim)
	if restarted.visits == 0 {
		t.Fatal("restarted shard recovered no visits from its WAL")
	}
	// The shed keyspace serves again.
	served := 0
	for uid := 0; uid < users; uid++ {
		if owner, _ := gw.Ring().Owner(uid); owner != victim {
			continue
		}
		report(t, gwSrv, uid, session(uid), http.StatusOK)
		served++
	}
	if served == 0 {
		t.Fatal("victim owned no users; test world degenerate")
	}
	t.Logf("victim refusals during outage: %d; victim users served after recovery: %d; visits recovered: %d",
		victimRefusals.Load(), served, restarted.visits)
}

// striders decorrelates the per-worker user walk.
const striders = 17

// httptestServer serves the gateway over a real listener for the
// duration of the test.
func httptestServer(t *testing.T, gw *Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: gw.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// report posts one report and requires one of the allowed statuses.
func report(t *testing.T, baseURL string, user int, hosts []string, allowed ...int) {
	t.Helper()
	body, _ := json.Marshal(server.ReportRequest{User: user, Time: 500_000, Hosts: hosts})
	resp, err := http.Post(baseURL+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, code := range allowed {
		if resp.StatusCode == code {
			return
		}
	}
	t.Fatalf("report user %d → %d (allowed %v): %s", user, resp.StatusCode, allowed, raw)
}
