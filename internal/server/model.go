package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"hostprof/internal/core"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/store"
)

// Model distribution: a trained model is exported as a versioned
// artifact (GET /v1/model) and installed from one (PUT /v1/model), so a
// cluster can train on a designated node and ship the result to every
// shard. The version is a content address (see store.ModelArtifact), so
// "same version" means "byte-identical model" with no coordination.

// ModelVersionHeader carries the artifact's content version on /v1/model
// exchanges and on /readyz, so peers negotiate transfers by version
// instead of shipping megabytes to find out nothing changed.
const ModelVersionHeader = "X-Hostprof-Model-Version"

// maxModelBytes bounds a PUT /v1/model body. Artifacts scale with
// vocab×dim×16 bytes; 1 GiB covers the paper's 470K-host universe at
// dim 128 with an order of magnitude to spare.
const maxModelBytes = 1 << 30

// ModelVersion returns the content version of the currently served
// model, or "" before the first train/import.
func (b *Backend) ModelVersion() string { return b.store.ModelVersion() }

// ModelArtifact exports the current model as a transferable artifact.
// ok is false before the first train/import.
func (b *Backend) ModelArtifact() (store.ModelArtifact, bool, error) {
	return b.store.ModelArtifact()
}

// ImportModel installs a serialized model received from a peer: the
// bytes are validated by loading them, then installed through the engine
// exactly as a local retrain's model would be (fresh profiler and
// cache, store hand-over, snapshot so a crash recovers the imported
// generation). Returns the installed artifact version.
func (b *Backend) ImportModel(data []byte) (string, error) {
	model, err := core.Load(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("server: importing model: %w", err)
	}
	b.eng.Install(model, data)
	version := store.ArtifactVersion(data)
	b.met.modelImports.Inc()
	b.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model imported",
		slog.String("version", version),
		slog.Int("vocab", model.Vocab().Len()),
		slog.Int("bytes", len(data)))
	return version, nil
}

// etagOf renders a version as a strong ETag, the If-None-Match spelling
// of /v1/model's version negotiation.
func etagOf(version string) string { return `"` + version + `"` }

// matchesETag reports whether an If-None-Match header value matches the
// current version ("*" matches any extant model, per RFC 9110).
func matchesETag(header, version string) bool {
	if header == "" || version == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etagOf(version) || strings.Trim(part, `"`) == version {
			return true
		}
	}
	return false
}

// handleModelGet serves the current model artifact. Version negotiation:
// a client that already holds a version sends it as If-None-Match and
// gets 304 with the version header instead of the bytes. 404 before the
// first train/import.
func (b *Backend) handleModelGet(w http.ResponseWriter, r *http.Request) {
	art, ok, err := b.store.ModelArtifact()
	if err != nil {
		httpmw.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		httpmw.WriteError(w, http.StatusNotFound, "no model trained yet")
		return
	}
	w.Header().Set(ModelVersionHeader, art.Version)
	w.Header().Set("ETag", etagOf(art.Version))
	if matchesETag(r.Header.Get("If-None-Match"), art.Version) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(art.Data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(art.Data)
}

// handleModelPut installs a pushed model artifact. A push carrying the
// version the node already serves is acknowledged without reloading
// (204, version header) — idempotent distribution. A push whose
// X-Hostprof-Model-Version disagrees with the body's content hash is
// rejected: the artifact was corrupted in flight.
func (b *Backend) handleModelPut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpmw.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("model exceeds %d bytes", tooBig.Limit))
			return
		}
		httpmw.WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading model: %v", err))
		return
	}
	if len(data) == 0 {
		httpmw.WriteError(w, http.StatusBadRequest, "empty model body")
		return
	}
	version := store.ArtifactVersion(data)
	if want := r.Header.Get(ModelVersionHeader); want != "" && want != version {
		httpmw.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("model version mismatch: header %s, body hashes to %s", want, version))
		return
	}
	if b.ModelVersion() == version {
		w.Header().Set(ModelVersionHeader, version)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	installed, err := b.ImportModel(data)
	if err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set(ModelVersionHeader, installed)
	w.WriteHeader(http.StatusNoContent)
}

// Readiness is the /readyz body: everything a gateway or load balancer
// needs to decide whether (and how) to route to this shard.
type Readiness struct {
	// Ready is the overall verdict: trained and fully durable.
	Ready bool `json:"ready"`
	// Trained reports whether a model is being served.
	Trained bool `json:"trained"`
	// StoreDegraded reports WAL-detached memory-only operation: the
	// shard still serves, but acknowledged reports are not durable.
	StoreDegraded bool `json:"store_degraded"`
	// ModelVersion is the served model's content version ("" untrained).
	ModelVersion string `json:"model_version"`
	// Visits is the store size, a cheap freshness signal.
	Visits int `json:"visits"`
}

// Readiness snapshots the backend's readiness state.
func (b *Backend) Readiness() Readiness {
	trained := b.Ready()
	degraded := b.store.Degraded()
	return Readiness{
		Ready:         trained && !degraded,
		Trained:       trained,
		StoreDegraded: degraded,
		ModelVersion:  b.ModelVersion(),
		Visits:        b.store.Len(),
	}
}
