package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"hostprof/internal/ads"
	"hostprof/internal/core"
	"hostprof/internal/synth"
)

// TestModelExportImportRoundTrip is the model-distribution contract: a
// trained backend exports a versioned artifact over GET /v1/model, a
// second (untrained) backend installs it via PUT /v1/model and becomes
// ready at the same version, and version negotiation (If-None-Match →
// 304, same-version PUT → no-op 204) avoids redundant transfers.
func TestModelExportImportRoundTrip(t *testing.T) {
	src := newBackendFixture(t)
	src.feedVisits(t)
	if err := src.b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	version := src.b.ModelVersion()
	if version == "" {
		t.Fatal("no model version after retrain")
	}

	// Export.
	resp, err := http.Get(src.srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/model → %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(ModelVersionHeader); got != version {
		t.Fatalf("export version header %q, want %q", got, version)
	}

	// Conditional export: the version we already hold → 304, no body.
	req, _ := http.NewRequest(http.MethodGet, src.srv.URL+"/v1/model", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
		t.Fatalf("conditional GET → %d with %d body bytes, want 304 empty", resp2.StatusCode, len(body2))
	}

	// Import into a fresh backend: it becomes ready at the same version
	// without ever training.
	dst := newBackendFixture(t)
	if dst.b.Ready() {
		t.Fatal("dst ready before import")
	}
	putReq, _ := http.NewRequest(http.MethodPut, dst.srv.URL+"/v1/model", bytes.NewReader(data))
	putReq.Header.Set(ModelVersionHeader, version)
	resp3, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /v1/model → %d: %s", resp3.StatusCode, msg)
	}
	if !dst.b.Ready() {
		t.Fatal("dst not ready after import")
	}
	if got := dst.b.ModelVersion(); got != version {
		t.Fatalf("dst version %q, want %q", got, version)
	}

	// Same-version re-push is an acknowledged no-op.
	putReq2, _ := http.NewRequest(http.MethodPut, dst.srv.URL+"/v1/model", bytes.NewReader(data))
	resp4, err := http.DefaultClient.Do(putReq2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNoContent || resp4.Header.Get(ModelVersionHeader) != version {
		t.Fatalf("idempotent re-push → %d (version %q)", resp4.StatusCode, resp4.Header.Get(ModelVersionHeader))
	}

	// The imported model actually profiles: both backends agree on a
	// session profile.
	site := src.u.Hosts[src.u.Sites[0].Host].Name
	support := src.u.Hosts[src.u.Sites[0].Support[0]].Name
	ext := &Extension{BaseURL: dst.srv.URL, User: 0}
	if _, err := ext.ProfileBatch(t.Context(), [][]string{{site, support}}); err != nil {
		t.Fatalf("profile on imported model: %v", err)
	}
}

// TestServeRetrainIsAFunctionOfItsInputs: two backends with the
// training configuration serve builds — Dim and Epochs set, the rest
// left to their defaults — import the same visits and retrain on two or more
// cores; they must serve the same model artifact, byte for byte, and
// report the same last-epoch loss.
func TestServeRetrainIsAFunctionOfItsInputs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	u := synth.NewUniverse(synth.UniverseConfig{Sites: 300, Trackers: 15, Seed: 3})
	ont := synth.BuildOntology(u, synth.OntologyConfig{Coverage: 0.2, Seed: 5})
	db := ads.BuildFromOntology(ont, ads.BuildConfig{Seed: 7})
	var visits []WireVisit
	for _, v := range synth.NewPopulation(u, synth.PopulationConfig{Users: 60, Days: 2, Seed: 13}).Browse().Visits() {
		visits = append(visits, WireVisit{User: v.User, Time: v.Time, Host: v.Host})
	}
	body, err := json.Marshal(ImportRequest{Visits: visits})
	if err != nil {
		t.Fatal(err)
	}
	var artifacts [2][]byte
	var losses [2]float64
	for i := range artifacts {
		b, err := New(Config{
			Ontology: ont,
			AdDB:     db,
			Train:    core.TrainConfig{Dim: 64, Epochs: 5}, // serve's -dim and -epochs defaults
			Profile:  core.ProfilerConfig{N: 30, Agg: core.AggIDF},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := b.Handler()
		if rec := serveBody(h, http.MethodPost, "/v1/import", body); rec.Code != http.StatusOK {
			t.Fatalf("import → %d: %s", rec.Code, rec.Body)
		}
		if rec := serveBody(h, http.MethodPost, "/v1/retrain", nil); rec.Code != http.StatusNoContent {
			t.Fatalf("retrain → %d: %s", rec.Code, rec.Body)
		}
		rec := serveBody(h, http.MethodGet, "/v1/model", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/model → %d: %s", rec.Code, rec.Body)
		}
		artifacts[i] = rec.Body.Bytes()
		for _, s := range b.Metrics().Snapshot() {
			if s.Name == "hostprof_train_epoch_loss" {
				losses[i] = s.Value
			}
		}
		b.Close()
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Errorf("the same visits retrained into different models (%d and %d bytes)", len(artifacts[0]), len(artifacts[1]))
	}
	if losses[0] != losses[1] || losses[0] == 0 {
		t.Errorf("last-epoch loss %v and %v, want one nonzero value", losses[0], losses[1])
	}
}

// TestModelPutRejectsGarbage: corrupted bytes and mismatched version
// headers must not dislodge the served model.
func TestModelPutRejectsGarbage(t *testing.T) {
	fx := newBackendFixture(t)
	fx.feedVisits(t)
	if err := fx.b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	version := fx.b.ModelVersion()

	// Garbage body → 400.
	req, _ := http.NewRequest(http.MethodPut, fx.srv.URL+"/v1/model", bytes.NewReader([]byte("not a model")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT → %d, want 400", resp.StatusCode)
	}

	// Valid bytes, lying version header → 400.
	art, ok, err := fx.b.ModelArtifact()
	if !ok || err != nil {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	req2, _ := http.NewRequest(http.MethodPut, fx.srv.URL+"/v1/model", bytes.NewReader(art.Data))
	req2.Header.Set(ModelVersionHeader, "deadbeefdeadbeef")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched-version PUT → %d, want 400", resp2.StatusCode)
	}
	if got := fx.b.ModelVersion(); got != version {
		t.Fatalf("served version changed to %q after rejected pushes", got)
	}

	// GET on an untrained backend → 404.
	empty := newBackendFixture(t)
	resp3, err := http.Get(empty.srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET on untrained → %d, want 404", resp3.StatusCode)
	}
}

// TestModelPutRejectsOverflowingDim: a model whose host count times Dim
// wraps around an int to the number of weights it carries is refused
// with 400 — not a recovered panic answered with 500 — and the served
// model stays.
func TestModelPutRejectsOverflowingDim(t *testing.T) {
	fx := newBackendFixture(t)
	fx.feedVisits(t)
	if err := fx.b.Retrain(); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	version := fx.b.ModelVersion()
	// core's wire form, field for field: four hosts of 2⁶²+1 dimensions
	// (2³⁰+1 where an int has 32 bits) and four weights per matrix, since
	// 4·(2⁶²+1) wraps to 4.
	type modelWire struct {
		Version int
		Dim     int
		Hosts   []string
		Counts  []int64
		In, Out []float32
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(modelWire{Version: 1, Dim: 1<<(strconv.IntSize-2) + 1,
		Hosts: []string{"a", "b", "c", "d"}, Counts: []int64{1, 1, 1, 1},
		In: make([]float32, 4), Out: make([]float32, 4)}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, fx.srv.URL+"/v1/model", &body)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing-dim PUT → %d (%s), want 400", resp.StatusCode, msg)
	}
	if got := fx.b.ModelVersion(); got != version {
		t.Fatalf("served version changed to %q after a rejected push", got)
	}
	if !fx.b.Ready() {
		t.Fatal("backend not ready after a rejected push")
	}
}
