package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hostprof/internal/cluster"
	"hostprof/internal/server"
)

// serveFlags are the `hostprof serve` flags every workload passes. Each
// departs from the product default for the stated reason; everything
// not listed runs at its default.
var serveFlags = []string{
	"-dim", "64", "-epochs", "3", // a daily retrain that fits three set-ups into one run
	"-prof-interval", "0", // no once-a-minute CPU capture landing in a random run
	"-log-level", "warn", // info logs one line per retrain only, but keep stderr quiet
	"-fsync", "interval", // the default, spelled out: durable store, group fsync
}

// retrainEndpoint selects a shard's /v1/retrain latency histogram.
var retrainEndpoint = map[string]string{"endpoint": "retrain"}

// importChunk is the visit count per POST /v1/import body, the
// gateway's own migration chunk size.
const importChunk = 4096

// Topology is one brought-up system under test.
type Topology struct {
	Gateway *Proc // nil for a single-process topology
	Shards  []*Proc
}

// Front is where clients send traffic.
func (t *Topology) Front() *Proc {
	if t.Gateway != nil {
		return t.Gateway
	}
	return t.Shards[0]
}

// Procs lists every server process, gateway included.
func (t *Topology) Procs() []*Proc {
	if t.Gateway != nil {
		return append([]*Proc{t.Gateway}, t.Shards...)
	}
	return t.Shards
}

// SetupTimes splits one set-up into its steps.
type SetupTimes struct {
	Start, Import, Retrain, Total time.Duration
	// Distribute is the part of a cluster retrain spent shipping the
	// model to the non-training shards: the gateway call's wall time
	// minus the training shard's own /v1/retrain handler time.
	Distribute time.Duration
	Imported   int // visits the shards accepted
}

// TopologySpec says what to start.
type TopologySpec struct {
	Shards int // 1 = single `serve`; >1 = gateway + that many shards
	ANN    bool
}

// writeWorldFiles serialises the ontology and blocklist the way
// `hostprof gen` does; the children load them from disk.
func writeWorldFiles(w *World, dir string) (ontPath, blPath string, err error) {
	ontPath = filepath.Join(dir, "ontology.jsonl")
	blPath = filepath.Join(dir, "blocklist.hosts")
	var ob bytes.Buffer
	if err := w.Ontology.WriteJSONL(&ob); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(ontPath, ob.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	var bb strings.Builder
	for _, hid := range w.Universe.TrackerIDs {
		if name := w.Universe.Hosts[hid].Name; w.Blocklist.Contains(name) {
			fmt.Fprintf(&bb, "127.0.0.1 %s\n", name)
		}
	}
	return ontPath, blPath, os.WriteFile(blPath, []byte(bb.String()), 0o644)
}

// importBodies pre-encodes the seed corpus as /v1/import chunks, one
// list per shard, users placed by the ring the gateway will build over
// the same shard URLs.
func importBodies(w *World, shardURLs []string) ([][][]byte, error) {
	owner := func(int) int { return 0 }
	if len(shardURLs) > 1 {
		ring, err := cluster.NewRing(shardURLs, 0)
		if err != nil {
			return nil, err
		}
		at := make(map[string]int, len(shardURLs))
		for i, u := range shardURLs {
			at[u] = i
		}
		owner = func(user int) int {
			node, _ := ring.Owner(user)
			return at[node]
		}
	}
	perShard := make([][]server.WireVisit, len(shardURLs))
	for _, v := range w.SeedVisits {
		i := owner(v.User)
		perShard[i] = append(perShard[i], server.WireVisit{User: v.User, Time: v.Time, Host: v.Host})
	}
	out := make([][][]byte, len(shardURLs))
	for i, visits := range perShard {
		for lo := 0; lo < len(visits); lo += importChunk {
			hi := min(lo+importChunk, len(visits))
			body, err := json.Marshal(server.ImportRequest{Visits: visits[lo:hi]})
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], body)
		}
	}
	return out, nil
}

// bringUp starts the topology, bulk-loads the seed corpus, retrains and
// waits until every process reports ready. It is the operation setup_s
// times. Encoding the import bodies is harness work and happens before
// the clock starts for the import step.
func bringUp(ctx context.Context, sup *Supervisor, w *World, spec TopologySpec, tag string) (*Topology, SetupTimes, error) {
	var st SetupTimes
	t0 := time.Now()
	dir, err := sup.Dir(tag)
	if err != nil {
		return nil, st, err
	}
	ontPath, blPath, err := writeWorldFiles(w, dir)
	if err != nil {
		return nil, st, err
	}
	topo := &Topology{}
	var urls []string
	for i := 0; i < spec.Shards; i++ {
		addr, err := listenAddr(1 + i)
		if err != nil {
			return nil, st, err
		}
		data := filepath.Join(dir, fmt.Sprintf("data%d", i))
		args := append([]string{"serve", "-ontology", ontPath, "-blocklist", blPath, "-data-dir", data}, serveFlags...)
		if spec.ANN {
			args = append(args, "-ann")
		}
		p, err := sup.Start(ctx, fmt.Sprintf("serve%d", i), addr, args...)
		if err != nil {
			return nil, st, err
		}
		topo.Shards = append(topo.Shards, p)
		urls = append(urls, p.URL)
	}
	if spec.Shards > 1 {
		addr, err := listenAddr(0)
		if err != nil {
			return nil, st, err
		}
		topo.Gateway, err = sup.Start(ctx, "gateway", addr,
			"gateway", "-backends", strings.Join(urls, ","), "-log-level", "warn")
		if err != nil {
			return nil, st, err
		}
	}
	st.Start = time.Since(t0)

	bodies, err := importBodies(w, urls)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	errc := make(chan error, len(topo.Shards))
	counts := make([]int, len(topo.Shards))
	for i, p := range topo.Shards {
		go func(i int, p *Proc) {
			for _, body := range bodies[i] {
				code, raw, err := httpDo(ctx, http.MethodPost, p.URL+"/v1/import", body)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("import into %s: HTTP %d: %s", p.Name, code, bytes.TrimSpace(raw))
				}
				var resp server.ImportResponse
				if err == nil {
					err = json.Unmarshal(raw, &resp)
				}
				if err != nil {
					errc <- err
					return
				}
				counts[i] += resp.Appended
			}
			errc <- nil
		}(i, p)
	}
	for range topo.Shards {
		if err := <-errc; err != nil {
			return nil, st, err
		}
	}
	for _, c := range counts {
		st.Imported += c
	}
	st.Import = time.Since(t1)

	t2 := time.Now()
	code, raw, err := httpDo(ctx, http.MethodPost, topo.Front().URL+"/v1/retrain", []byte("{}"))
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("retrain: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err != nil {
		return nil, st, err
	}
	st.Retrain = time.Since(t2)
	if topo.Gateway != nil {
		var rr cluster.RetrainResponse
		if err := json.Unmarshal(raw, &rr); err != nil || rr.Partial {
			return nil, st, fmt.Errorf("cluster retrain did not converge: %s", bytes.TrimSpace(raw))
		}
		vz, err := topo.Shards[0].Varz(ctx)
		if err != nil {
			return nil, st, err
		}
		st.Distribute = st.Retrain - time.Duration(vz.Sum("hostprof_http_request_seconds", retrainEndpoint)*float64(time.Second))
	}
	for _, p := range topo.Procs() {
		if err := p.waitHTTP(ctx, "/readyz"); err != nil {
			return nil, st, err
		}
	}
	st.Total = time.Since(t0)
	return topo, st, nil
}

// tearDown stops every process of the topology gracefully.
func (t *Topology) tearDown() error {
	var first error
	for _, p := range t.Procs() {
		if err := p.Stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// restartShard stops shard i with SIGTERM, starts it again on the same
// -data-dir and address, and returns the time from exec to its first
// ready /readyz — recover_s.
func (t *Topology) restartShard(ctx context.Context, sup *Supervisor, i int) (time.Duration, error) {
	old := t.Shards[i]
	if err := old.Stop(); err != nil {
		return 0, err
	}
	addr := strings.TrimPrefix(old.URL, "http://")
	// args already end in "-addr <addr>"; Start appends it again.
	t0 := time.Now()
	p, err := sup.Start(ctx, old.Name, addr, old.args[:len(old.args)-2]...)
	if err != nil {
		return 0, err
	}
	if err := p.waitHTTP(ctx, "/readyz"); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	t.Shards[i] = p
	return d, nil
}
