package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/fault"
	"hostprof/internal/server"
	"hostprof/internal/synth"
)

// shardDigestCounts reads record counts for a user set straight off one
// shard process's export surface.
func shardDigestCounts(t *testing.T, shardURL string, users []int) map[int]int {
	t.Helper()
	out := make(map[int]int, len(users))
	const batch = 64
	for start := 0; start < len(users); start += batch {
		end := start + batch
		if end > len(users) {
			end = len(users)
		}
		q := ""
		for i, u := range users[start:end] {
			if i > 0 {
				q += ","
			}
			q += strconv.Itoa(u)
		}
		resp, err := http.Get(shardURL + "/v1/export/digest?users=" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("digest on %s → %d: %s", shardURL, resp.StatusCode, raw)
		}
		var dr server.DigestResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		for k, d := range dr.Digests {
			u, err := strconv.Atoi(k)
			if err != nil {
				t.Fatalf("bad digest key %q", k)
			}
			out[u] = d.Count
		}
	}
	return out
}

// resizeViaHTTP posts a resize and requires one of the allowed
// statuses, returning the response status string.
func resizeViaHTTP(t *testing.T, gwURL string, backends []string, allowed ...int) string {
	t.Helper()
	body, _ := json.Marshal(ResizeRequest{Backends: backends})
	resp, err := http.Post(gwURL+"/v1/cluster/resize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ok := false
	for _, code := range allowed {
		if resp.StatusCode == code {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("resize → %d (allowed %v): %s", resp.StatusCode, allowed, raw)
	}
	var rr ResizeResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("resize body: %v: %s", err, raw)
	}
	return rr.Status
}

// waitMigrationState polls the gateway until the installed (or last)
// migration reaches the wanted state.
func waitMigrationState(t *testing.T, gw *Gateway, want string, timeout time.Duration) *MigrationStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := gw.ClusterStatus()
		if st.Migration != nil && st.Migration.State == want {
			return st.Migration
		}
		if st.Migration != nil && terminalPhase(st.Migration.State) && st.Migration.State != want {
			t.Fatalf("migration reached %q, want %q: %+v", st.Migration.State, want, st.Migration)
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never reached %q: %+v", want, st.Migration)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosClusterResizeGrowShrink is the tentpole acceptance test
// against real shard processes: grow 3→4 and then shrink 4→3, each
// under sustained report traffic, and prove zero loss — every acked
// visit is on exactly the shard the final ring names, and nowhere else
// among the members.
func TestChaosClusterResizeGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	addrs := freeAddrs(t, 4)
	urls := make([]string, 4)
	cmds := make([]*exec.Cmd, 4)
	for i := 0; i < 3; i++ {
		urls[i] = "http://" + addrs[i]
		cmds[i] = spawnChaosShard(t, addrs[i], t.TempDir())
	}
	urls[3] = "http://" + addrs[3]

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	gw, err := New(Config{
		Backends:       urls[:3],
		VirtualNodes:   8, // few, coarse ranges: fast migrations, real wraps
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
		for gw.CheckHealth(context.Background()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("cluster never reached %d alive shards: %+v", want, gw.ClusterStatus())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitAlive(3)
	gwSrv := httptestServer(t, gw)

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
	allUsers := make([]int, users)
	for uid := 0; uid < users; uid++ {
		allUsers[uid] = uid
		report(t, gwSrv, uid, session(uid), http.StatusOK, http.StatusServiceUnavailable)
	}
	resp, err := http.Post(gwSrv+"/v1/retrain", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain → %d", resp.StatusCode)
	}

	// Calibrate per-user records-per-report (the blocklist drops tracker
	// hosts, so len(session) is not it): after one seed report each,
	// whatever the owner holds for the user IS one report's worth.
	perReport := make([]int, users)
	acked := make([]atomic.Int64, users) // seed + traffic acks, per user
	{
		byOwner := map[string][]int{}
		for uid := 0; uid < users; uid++ {
			owner, _ := gw.Ring().Owner(uid)
			byOwner[owner] = append(byOwner[owner], uid)
		}
		for owner, us := range byOwner {
			for uid, n := range shardDigestCounts(t, owner, us) {
				perReport[uid] = n
			}
		}
		for uid := 0; uid < users; uid++ {
			if perReport[uid] == 0 {
				t.Fatalf("user %d seeded zero records; test world degenerate", uid)
			}
			acked[uid].Store(1)
		}
	}

	// verifyExact: every member shard holds exactly acked × perReport
	// records for the users the ring assigns it, zero for everyone else.
	// Only called with traffic stopped.
	verifyExact := func(phase string, members []string) {
		t.Helper()
		for _, member := range members {
			counts := shardDigestCounts(t, member, allUsers)
			for uid := 0; uid < users; uid++ {
				owner, _ := gw.Ring().Owner(uid)
				want := 0
				if owner == member {
					want = int(acked[uid].Load()) * perReport[uid]
				}
				if counts[uid] != want {
					t.Fatalf("%s: shard %s holds %d records for user %d, want %d (owner %s, acked %d)",
						phase, member, counts[uid], uid, want, owner, acked[uid].Load())
				}
			}
		}
	}

	// trafficDuring runs sustained reports from 4 workers while fn
	// executes, then stops them and waits. Only 200 counts as acked; a
	// 429 was shed before ingest; anything else fails the test.
	var tick atomic.Int64
	trafficDuring := func(fn func()) {
		t.Helper()
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
					ts := 1_000_000 + tick.Add(1)
					body, _ := json.Marshal(server.ReportRequest{User: uid, Time: ts, Hosts: session(uid)})
					resp, err := client.Post(gwSrv+"/v1/report", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("report user %d during resize: %v", uid, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						acked[uid].Add(1)
					case http.StatusTooManyRequests:
						// shed before ingest; not acked, nothing stored
					default:
						t.Errorf("report user %d during resize → %d", uid, resp.StatusCode)
						return
					}
				}
			}(w)
		}
		fn()
		close(stop)
		wg.Wait()
	}

	// Grow 3→4 under traffic. spawnChaosShard blocks until the joiner
	// listens; the resize plan probes it before routing to it.
	cmds[3] = spawnChaosShard(t, addrs[3], t.TempDir())
	trafficDuring(func() {
		if got := resizeViaHTTP(t, gwSrv, urls, http.StatusAccepted); got != "started" {
			t.Fatalf("grow resize answered %q", got)
		}
		waitMigrationState(t, gw, "done", 60*time.Second)
	})
	if !gw.Ring().Equal(urls) {
		t.Fatalf("ring after grow: %v", gw.Ring().Nodes())
	}
	verifyExact("after grow", urls)

	// Shrink 4→3 under traffic: the joiner leaves again, handing its
	// keyspace back.
	trafficDuring(func() {
		if got := resizeViaHTTP(t, gwSrv, urls[:3], http.StatusAccepted); got != "started" {
			t.Fatalf("shrink resize answered %q", got)
		}
		waitMigrationState(t, gw, "done", 60*time.Second)
	})
	if !gw.Ring().Equal(urls[:3]) {
		t.Fatalf("ring after shrink: %v", gw.Ring().Nodes())
	}
	// The leaver keeps its stale copy (it left; purging it is pointless)
	// — exactness is asserted over the members.
	verifyExact("after shrink", urls[:3])

	totalAcked := int64(0)
	for uid := range acked {
		totalAcked += acked[uid].Load()
	}
	t.Logf("grow+shrink under traffic: %d acked reports across %d users, zero lost", totalAcked, users)
}

// TestChaosClusterResizeSourceKill SIGKILLs a migration source
// mid-copy: the dying source's ranges abort (roll back), the migration
// parks as failed while survivors keep serving, and — after the source
// restarts over its WAL — re-POSTing the same resize resumes to
// completion with exact final placement.
func TestChaosClusterResizeSourceKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	addrs := freeAddrs(t, 4)
	urls := make([]string, 4)
	dirs := make([]string, 4)
	cmds := make([]*exec.Cmd, 4)
	for i := 0; i < 4; i++ {
		urls[i] = "http://" + addrs[i]
		dirs[i] = t.TempDir()
		cmds[i] = spawnChaosShard(t, addrs[i], dirs[i])
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	gw, err := New(Config{
		Backends:       urls[:3],
		VirtualNodes:   8,
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
		for gw.CheckHealth(context.Background()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("cluster never reached %d alive shards: %+v", want, gw.ClusterStatus())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitAlive(3)
	gwSrv := httptestServer(t, gw)

	u := synth.NewUniverse(synth.UniverseConfig{Sites: 100, Trackers: 15, Seed: 3})
	session := func(i int) []string {
		s := u.Sites[i%len(u.Sites)]
		hosts := []string{u.Hosts[s.Host].Name}
		for _, sup := range s.Support {
			hosts = append(hosts, u.Hosts[sup].Name)
		}
		return hosts
	}
	const users = 60
	allUsers := make([]int, users)
	for uid := 0; uid < users; uid++ {
		allUsers[uid] = uid
		report(t, gwSrv, uid, session(uid), http.StatusOK, http.StatusServiceUnavailable)
	}
	// Per-user expected records (one seed report each), read per owner.
	expected := make([]int, users)
	{
		byOwner := map[string][]int{}
		for uid := 0; uid < users; uid++ {
			owner, _ := gw.Ring().Owner(uid)
			byOwner[owner] = append(byOwner[owner], uid)
		}
		for owner, us := range byOwner {
			for uid, n := range shardDigestCounts(t, owner, us) {
				expected[uid] = n
			}
		}
	}
	oldRing := gw.Ring()

	// Start the grow with the copy held after its first chunk (the
	// gateway runs in this process, so its fault point is this test's to
	// arm), SIGKILL the source of a range that cannot have finished, and
	// only let the copy go on once the kill has been delivered and
	// reaped: nothing here races the migration's pace.
	killed := make(chan struct{})
	release := sync.OnceFunc(func() { close(killed) })
	defer release() // a failing test must not leave gw.Close waiting on the copy
	fault.Set(fault.MigrateCopyChunk, func() error { <-killed; return nil })
	t.Cleanup(fault.Reset)
	if got := resizeViaHTTP(t, gwSrv, urls, http.StatusAccepted); got != "started" {
		t.Fatalf("resize answered %q", got)
	}
	var victimURL string
	deadline := time.Now().Add(30 * time.Second)
	for victimURL == "" {
		if time.Now().After(deadline) {
			t.Fatalf("copy never started: %+v", gw.ClusterStatus().Migration)
		}
		st := gw.ClusterStatus().Migration
		if st != nil && st.RecordsCopied > 0 {
			// A copying range with users is held at its first chunk at the
			// latest; a range with none can finish unheld.
			for _, r := range st.RangeDetail {
				if r.State == "copying" && r.Users > 0 {
					victimURL = r.From
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim := -1
	for i, url := range urls {
		if url == victimURL {
			victim = i
		}
	}
	if victim < 0 || victim == 3 {
		t.Fatalf("victim %q is not an old member", victimURL)
	}
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait()
	release()

	failed := waitMigrationState(t, gw, "failed", 60*time.Second)
	if failed.RangesAborted == 0 {
		t.Fatalf("source died but no range aborted: %+v", failed)
	}
	// Survivors keep serving their keyspaces; the ring is still the old
	// one (no cutover happened for the whole membership).
	if !gw.Ring().Equal(urls[:3]) {
		t.Fatalf("ring changed after failed migration: %v", gw.Ring().Nodes())
	}
	servedOK := 0
	for uid := 0; uid < users; uid++ {
		owner, _ := oldRing.Owner(uid)
		if owner == urls[victim] {
			continue // shed or routed to a done range's target; not this assertion
		}
		report(t, gwSrv, uid, session(uid), http.StatusOK, http.StatusServiceUnavailable)
		servedOK++
	}
	if servedOK == 0 {
		t.Fatal("survivors owned no users; test world degenerate")
	}
	// These post-failure reports changed survivors' counts; fold them in.
	for uid := 0; uid < users; uid++ {
		owner, _ := oldRing.Owner(uid)
		if owner != urls[victim] {
			expected[uid] *= 2 // seed + post-failure report, identical host lists
		}
	}

	// Restart the victim over its WAL, then resume with the same target
	// membership.
	cmds[victim] = spawnChaosShard(t, addrs[victim], dirs[victim])
	waitAlive(4) // three old members plus the joiner the plan registered
	if got := resizeViaHTTP(t, gwSrv, urls, http.StatusAccepted); got != "resumed" {
		t.Fatalf("re-POST answered %q, want resumed", got)
	}
	done := waitMigrationState(t, gw, "done", 60*time.Second)
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}
	if !gw.Ring().Equal(urls) {
		t.Fatalf("ring after resumed grow: %v", gw.Ring().Nodes())
	}
	// Exact placement: every member holds precisely its ring-assigned
	// users' records — the WAL restart lost nothing (fsync=always), the
	// aborted ranges were recopied, sources purged.
	for _, member := range urls {
		counts := shardDigestCounts(t, member, allUsers)
		for uid := 0; uid < users; uid++ {
			owner, _ := gw.Ring().Owner(uid)
			want := 0
			if owner == member {
				want = expected[uid]
			}
			if counts[uid] != want {
				t.Fatalf("shard %s holds %d records for user %d, want %d (owner %s)",
					member, counts[uid], uid, want, owner)
			}
		}
	}
	t.Logf("source %d killed mid-copy and resumed: %d ranges, %d aborted on failure, %d records copied",
		victim, done.Ranges, failed.RangesAborted, done.RecordsCopied)
}
