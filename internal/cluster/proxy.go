package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"hostprof/internal/jsonscan"
	"hostprof/internal/obs"
	"hostprof/internal/obs/httpmw"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/server"
)

// maxProxyBody caps a forwarded client request (reports and batches,
// not model artifacts).
const maxProxyBody = 4 << 20

// shedRetryAfter is the Retry-After the gateway attaches when refusing
// a down shard's keyspace: a little beyond the health-probe cadence, so
// a retrying client lands after the gateway could have noticed the
// shard's return.
const shedRetryAfter = "2"

// PartialHeader marks a scatter-gather response in which at least one
// shard's chunk failed and was degraded to per-session errors.
const PartialHeader = "X-Hostprof-Partial"

// shardAnswer is one proxied exchange, body fully read.
type shardAnswer struct {
	status int
	body   []byte
	header http.Header
}

// doShard performs one HTTP exchange with a shard within ShardTimeout.
func (g *Gateway) doShard(ctx context.Context, method, shard, path string, hdr map[string]string, body []byte) (shardAnswer, error) {
	return g.exchange(ctx, g.cfg.ShardTimeout, method, shard, path, hdr, body)
}

// exchange performs one HTTP exchange with a shard within timeout,
// recording per-shard metrics and propagating the current span's
// traceparent so the shard's handler span joins the caller's trace. A
// transport-level failure marks the shard dead (routing stops before
// the next health probe).
func (g *Gateway) exchange(ctx context.Context, timeout time.Duration, method, shard, path string, hdr map[string]string, body []byte) (shardAnswer, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, shard+path, rd)
	if err != nil {
		return shardAnswer{}, fmt.Errorf("cluster: building %s %s: %w", method, path, err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if tp := tracer.FromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	g.reg.Histogram("hostprof_gateway_shard_request_seconds", nil, obs.L("backend", shard)).
		Observe(time.Since(start).Seconds())
	if err != nil {
		g.reg.Counter("hostprof_gateway_shard_errors_total", obs.L("backend", shard)).Inc()
		g.markDead(shard, err)
		return shardAnswer{}, fmt.Errorf("cluster: %s %s on %s: %w", method, path, shard, err)
	}
	defer resp.Body.Close()
	g.reg.Counter("hostprof_gateway_shard_requests_total",
		obs.L("backend", shard), obs.L("code", strconv.Itoa(resp.StatusCode))).Inc()
	ans := shardAnswer{status: resp.StatusCode, header: resp.Header}
	if n := resp.ContentLength; n >= 0 && n <= maxProxyBody {
		// ReadAll would regrow its buffer a dozen times over a batch answer.
		ans.body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, ans.body)
	} else {
		ans.body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		g.reg.Counter("hostprof_gateway_shard_errors_total", obs.L("backend", shard)).Inc()
		return shardAnswer{}, fmt.Errorf("cluster: reading %s %s from %s: %w", method, path, shard, err)
	}
	return ans, nil
}

// shardRetries is how often a shard request the shard shed is re-sent;
// retryBase seeds the backoff and retryMax caps every wait, including a
// shard's own Retry-After.
const (
	shardRetries = 2
	retryBase    = 50 * time.Millisecond
	retryMax     = time.Second
)

// maxGatewayBatch caps the sessions of one gateway batch. The gateway
// chunks below every shard's server.MaxSessionsPerBatch, so its cap can
// exceed a single shard's.
const maxGatewayBatch = 2048

// forwardWithRetry is doShard plus the shed-retry loop: an answer that
// means "come back later" (429, or 503 with Retry-After — the same
// contract the Extension client honors) is retried up to shardRetries
// times with RetryDelay backoff before being relayed to the client.
func (g *Gateway) forwardWithRetry(ctx context.Context, method, shard, path string, hdr map[string]string, body []byte) (shardAnswer, error) {
	for attempt := 0; ; attempt++ {
		ans, err := g.doShard(ctx, method, shard, path, hdr, body)
		if err != nil {
			return ans, err
		}
		apiErr := &server.APIError{Status: ans.status, RetryAfter: ans.header.Get("Retry-After")}
		if attempt >= shardRetries || !apiErr.Retryable() {
			return ans, nil
		}
		g.met.retries.Inc()
		delay := server.RetryDelay(apiErr.RetryAfter, attempt, retryBase, retryMax)
		if sp := tracer.FromContext(ctx); sp.Recording() {
			sp.Event(fmt.Sprintf("shard retry %d after %s (HTTP %d from %s)", attempt+1, delay, ans.status, shard))
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ans, ctx.Err()
		case <-timer.C:
		}
	}
}

// relay writes a shard's answer back to the client unchanged (status,
// JSON body, Retry-After), so talking to the gateway is
// wire-indistinguishable from talking to the shard.
func relay(w http.ResponseWriter, ans shardAnswer) {
	if ct := ans.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := ans.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(ans.status)
	w.Write(ans.body)
}

// routeUser is the single-user forwarding path shared by /v1/report and
// /v1/feedback: hash the user onto the ring, shed if the owner is down,
// forward otherwise. While a migration is installed, Migration.route
// may move the owner and, for a report, hold the user's range until the
// write lands and name a target that also takes it. A failed mirror is
// handed back through the route — the client's ack stands (the source
// has the visit), and the migration repairs the target before it can
// ever cut over.
func (g *Gateway) routeUser(w http.ResponseWriter, r *http.Request, path string, user int, raw []byte, report *server.ReportRequest) {
	g.migBarrier.RLock()
	defer g.migBarrier.RUnlock()
	owner, ok := g.Ring().Owner(user)
	if !ok {
		httpmw.WriteError(w, http.StatusServiceUnavailable, "cluster: empty ring")
		return
	}
	rt := g.migration.Load().route(user, report != nil)
	defer rt.release()
	if rt.owner != "" {
		owner = rt.owner
	}
	if sp := tracer.FromContext(r.Context()); sp.Recording() {
		sp.SetAttr("shard", owner)
		sp.SetAttr("user", strconv.Itoa(user))
		if rt.mirror != "" {
			sp.SetAttr("double_write", rt.mirror)
		}
	}
	if st := g.shardSnapshot(owner); !st.alive {
		// The owning shard is down: its keyspace is shed, everyone
		// else's is unaffected. No failover — the user's history lives
		// only on the owner, and writing elsewhere would corrupt
		// placement.
		g.met.shed.Inc()
		g.noteShed(owner)
		w.Header().Set("Retry-After", shedRetryAfter)
		httpmw.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("cluster: shard %s (owner of user %d) is down; retry later", owner, user))
		return
	}
	ans, err := g.forwardWithRetry(r.Context(), http.MethodPost, owner, path,
		map[string]string{"Content-Type": "application/json"}, raw)
	if err != nil {
		w.Header().Set("Retry-After", shedRetryAfter)
		httpmw.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if rt.mirror != "" && ans.status < 300 {
		if err := g.doubleWrite(r.Context(), rt.mirror, report); err != nil {
			rt.markDirty()
			if sp := tracer.FromContext(r.Context()); sp.Recording() {
				sp.Event("double-write failed: " + err.Error())
			}
		}
	}
	relay(w, ans)
}

// doubleWrite mirrors an accepted report's visits into the migration
// target via /v1/import — the raw ingest path, which applies the same
// blocklist the source's report handler applied and skips profiling, so
// the target ends up byte-for-byte equivalent without paying for ads it
// will never serve.
func (g *Gateway) doubleWrite(ctx context.Context, target string, report *server.ReportRequest) error {
	visits := make([]server.WireVisit, len(report.Hosts))
	for i, h := range report.Hosts {
		visits[i] = server.WireVisit{User: report.User, Time: report.Time, Host: h}
	}
	body, err := json.Marshal(server.ImportRequest{Visits: visits})
	if err != nil {
		return err
	}
	ans, err := g.doShard(ctx, http.MethodPost, target, "/v1/import",
		map[string]string{"Content-Type": "application/json"}, body)
	if err == nil && ans.status != http.StatusOK {
		err = fmt.Errorf("cluster: double-write to %s answered HTTP %d", target, ans.status)
	}
	return err
}

func (g *Gateway) handleReport(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		httpmw.WriteError(w, http.StatusRequestEntityTooLarge, "cluster: report too large")
		return
	}
	var req server.ReportRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, "cluster: invalid JSON: "+err.Error())
		return
	}
	g.routeUser(w, r, "/v1/report", req.User, raw, &req)
}

func (g *Gateway) handleFeedback(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		httpmw.WriteError(w, http.StatusRequestEntityTooLarge, "cluster: feedback too large")
		return
	}
	var req server.FeedbackRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, "cluster: invalid JSON: "+err.Error())
		return
	}
	g.routeUser(w, r, "/v1/feedback", req.User, raw, nil)
}

// handleProfileBatch scatter-gathers a batch across every ready shard.
// Sessions are standalone host lists (not user-keyed) and every ready
// shard serves the same model generation, so any shard can profile any
// session: the gateway cuts the batch into chunks of the shard's own
// limit (server.MaxSessionsPerBatch), spreads them round-robin, and
// merges results in request order. A chunk whose shard fails
// degrades to per-session errors instead of failing the batch —
// responses with any degraded chunk carry the X-Hostprof-Partial
// header. A shard that refuses a chunk with a 4xx it does not ask to
// be retried has found the client's fault, not its own: the first such
// answer, in chunk order, is relayed as the whole request's, and
// nothing degrades.
//
// The gateway needs the session boundaries and nothing inside them, so
// sessions and shard results stay raw JSON: chunk bodies and the merged
// answer are spliced from the original bytes, never re-encoded.
func (g *Gateway) handleProfileBatch(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpmw.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return
	}
	var sessions []json.RawMessage
	if err == nil {
		sessions, err = jsonscan.ArrayField(raw, "sessions")
	}
	if err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, "cluster: invalid JSON: "+err.Error())
		return
	}
	for i, sess := range sessions {
		if !isStringArray(sess) {
			httpmw.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("cluster: invalid JSON: session %d is not an array of strings", i))
			return
		}
	}
	if len(sessions) > maxGatewayBatch {
		httpmw.WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cluster: %d sessions exceeds limit %d", len(sessions), maxGatewayBatch))
		return
	}
	shards := g.readyShards()
	if len(shards) == 0 {
		w.Header().Set("Retry-After", shedRetryAfter)
		httpmw.WriteError(w, http.StatusServiceUnavailable, "cluster: no ready shards")
		return
	}
	if sp := tracer.FromContext(r.Context()); sp.Recording() {
		sp.SetAttr("sessions", strconv.Itoa(len(sessions)))
		sp.SetAttr("shards", strconv.Itoa(len(shards)))
	}

	type chunk struct {
		start, end int
		shard      string
	}
	var chunks []chunk
	for i, start := 0, 0; start < len(sessions); i, start = i+1, start+server.MaxSessionsPerBatch {
		end := start + server.MaxSessionsPerBatch
		if end > len(sessions) {
			end = len(sessions)
		}
		chunks = append(chunks, chunk{start: start, end: end, shard: shards[i%len(shards)]})
	}

	results := make([]json.RawMessage, len(sessions))
	refused := make([]*shardAnswer, len(chunks))
	var (
		wg      sync.WaitGroup
		partial sync.Once
		degrade bool
	)
	for ci, c := range chunks {
		wg.Add(1)
		go func(c chunk) {
			defer wg.Done()
			body := spliceArray(`{"sessions":[`, sessions[c.start:c.end], "]}")
			ans, err := g.forwardWithRetry(r.Context(), http.MethodPost, c.shard, "/v1/profile/batch",
				map[string]string{"Content-Type": "application/json"}, body)
			if err == nil && ans.status >= 400 && ans.status < 500 &&
				!(&server.APIError{Status: ans.status, RetryAfter: ans.header.Get("Retry-After")}).Retryable() {
				refused[ci] = &ans
				return
			}
			if err == nil && ans.status != http.StatusOK {
				err = fmt.Errorf("cluster: shard %s answered HTTP %d", c.shard, ans.status)
			}
			if err == nil {
				profiles, jerr := jsonscan.ArrayField(ans.body, "profiles")
				if jerr != nil {
					err = fmt.Errorf("cluster: decoding batch from %s: %w", c.shard, jerr)
				} else if len(profiles) != c.end-c.start {
					err = fmt.Errorf("cluster: shard %s returned %d profiles for %d sessions",
						c.shard, len(profiles), c.end-c.start)
				} else {
					copy(results[c.start:c.end], profiles)
					return
				}
			}
			// Degrade this chunk only: the sessions the other shards
			// handled still come back profiled.
			partial.Do(func() { degrade = true })
			failed, _ := json.Marshal(server.ProfileResult{Error: err.Error()}) // a struct of strings cannot fail
			for i := c.start; i < c.end; i++ {
				results[i] = failed
			}
		}(c)
	}
	wg.Wait()
	for ci, ans := range refused {
		if ans != nil {
			relay(w, renumberSession(*ans, chunks[ci].start))
			return
		}
	}
	if degrade {
		g.met.batchPartial.Inc()
		w.Header().Set(PartialHeader, "1")
		if sp := tracer.FromContext(r.Context()); sp.Recording() {
			sp.Event("partial batch: at least one shard chunk degraded")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(spliceArray(`{"profiles":[`, results, "]}\n"))
}

// renumberSession rewrites a shard's "session i …" refusal of a chunk
// that starts at session start of the client's batch to name session
// start+i, as the client numbered it: the shard counts from its chunk.
// Any other answer, and every answer for the first chunk, is returned
// as it came.
func renumberSession(ans shardAnswer, start int) shardAnswer {
	var e httpmw.ErrorBody
	if start == 0 || json.Unmarshal(ans.body, &e) != nil {
		return ans
	}
	rest, ok := strings.CutPrefix(e.Error, "session ")
	digits := len(rest) - len(strings.TrimLeft(rest, "0123456789"))
	i, err := strconv.Atoi(rest[:digits])
	if !ok || err != nil {
		return ans
	}
	e.Error = "session " + strconv.Itoa(start+i) + rest[digits:]
	body, _ := json.Marshal(e) // a struct of one string cannot fail
	ans.body = append(body, '\n')
	return ans
}

// spliceArray returns prefix, the elements joined by commas, suffix.
func spliceArray(prefix string, elems []json.RawMessage, suffix string) []byte {
	n := len(prefix) + len(suffix) + len(elems)
	for _, e := range elems {
		n += len(e)
	}
	out := append(make([]byte, 0, n), prefix...)
	for i, e := range elems {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, e...)
	}
	return append(out, suffix...)
}

// isStringArray reports whether raw — one syntactically valid JSON
// value, as the decoder hands out a RawMessage — is what encoding/json
// accepts for a []string: null, or an array whose elements are strings
// or null. It only looks at the shape, and allocates nothing.
func isStringArray(raw []byte) bool {
	if string(raw) == "null" {
		return true
	}
	if len(raw) == 0 || raw[0] != '[' {
		return false
	}
	// Inside the array, at nesting depth one, every value must open
	// with '"' or be null; inside a string only the closing quote
	// matters.
	inString := false
	for i := 1; i < len(raw); i++ {
		switch c := raw[i]; {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == 'n':
			i += len("null") - 1
		case c == ' ', c == '\t', c == '\n', c == '\r', c == ',', c == ']':
		default:
			return false
		}
	}
	return true
}

// RetrainResponse is the gateway's /v1/retrain body: which shard
// trained, the resulting model version, and how distribution went.
type RetrainResponse struct {
	TrainedOn   string            `json:"trained_on"`
	Version     string            `json:"version"`
	Distributed []string          `json:"distributed"`       // peers now at Version (includes already-converged)
	Failed      map[string]string `json:"failed,omitempty"`  // peer → error
	Partial     bool              `json:"partial,omitempty"` // some peer failed to install
}

// handleRetrain implements cluster-wide training: the designated shard
// (first alive backend in configured order) retrains over its own
// keyspace, then the gateway pulls the versioned artifact once and
// pushes it to every other alive shard. The call is synchronous; 200
// means the cluster converged, 207-style partial success is flagged in
// the body and by a 200 + "partial": true (failed peers converge later
// via the health loop's anti-entropy).
func (g *Gateway) handleRetrain(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RetrainTimeout)
	defer cancel()
	trainer := g.trainNode()
	if trainer == "" {
		w.Header().Set("Retry-After", shedRetryAfter)
		httpmw.WriteError(w, http.StatusServiceUnavailable, "cluster: no alive shard to train on")
		return
	}
	if sp := tracer.FromContext(ctx); sp.Recording() {
		sp.SetAttr("trainer", trainer)
	}
	// Training legitimately takes longer than a serving request, so the
	// exchange gets RetrainTimeout, not ShardTimeout.
	start := time.Now()
	ans, err := g.exchange(ctx, g.cfg.RetrainTimeout, http.MethodPost, trainer, "/v1/retrain",
		map[string]string{"Content-Type": "application/json"}, []byte("{}"))
	if err != nil {
		httpmw.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if ans.status < 200 || ans.status >= 300 {
		relay(w, ans)
		return
	}
	g.log.Info("cluster retrain finished",
		slog.String("trainer", trainer), slog.Duration("took", time.Since(start)))

	out, err := g.distributeModel(ctx, trainer)
	if err != nil {
		httpmw.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	// Refresh health state so /v1/cluster reflects convergence
	// immediately rather than after the next probe tick.
	g.CheckHealth(ctx)
	httpmw.WriteJSON(w, http.StatusOK, out)
}

// distributeModel pulls the artifact from one shard and pushes it to
// every other alive shard that is not already at that version.
func (g *Gateway) distributeModel(ctx context.Context, from string) (RetrainResponse, error) {
	out := RetrainResponse{TrainedOn: from, Failed: map[string]string{}}
	version, err := g.shipModel(ctx, from, g.aliveShards(), func(peer string, err error) {
		if err != nil {
			out.Failed[peer] = err.Error()
			out.Partial = true
			g.log.Warn("model push failed", slog.String("peer", peer), slog.String("err", err.Error()))
		} else {
			out.Distributed = append(out.Distributed, peer)
		}
	})
	if err != nil {
		return RetrainResponse{}, fmt.Errorf("cluster: pulling model from %s: %w", from, err)
	}
	out.Version = version
	if len(out.Failed) == 0 {
		out.Failed = nil
	}
	return out, nil
}

// shipModel fetches from's model artifact once and pushes it to each
// peer other than from that does not already serve that version. done
// sees each peer's outcome: a nil err for a peer that now serves
// version, pushed or not. The error returned is the fetch's.
func (g *Gateway) shipModel(ctx context.Context, from string, peers []string, done func(peer string, err error)) (string, error) {
	version, data, err := g.fetchModel(ctx, from)
	if err != nil {
		return "", err
	}
	for _, peer := range peers {
		if peer == from {
			continue
		}
		var err error
		if g.shardSnapshot(peer).modelVersion != version {
			err = g.pushModel(ctx, peer, version, data)
		}
		done(peer, err)
	}
	return version, nil
}

// fetchModel GETs a shard's model artifact, using the gateway's cached
// copy when the shard still serves the cached version (If-None-Match →
// 304 spares re-transferring a multi-MB artifact every sync tick).
func (g *Gateway) fetchModel(ctx context.Context, from string) (version string, data []byte, err error) {
	g.mu.Lock()
	cachedVersion, cachedData := g.modelVersion, g.modelData
	g.mu.Unlock()
	hdr := map[string]string{}
	if cachedVersion != "" {
		hdr["If-None-Match"] = `"` + cachedVersion + `"`
	}
	ans, err := g.doShard(ctx, http.MethodGet, from, "/v1/model", hdr, nil)
	if err != nil {
		return "", nil, err
	}
	switch ans.status {
	case http.StatusNotModified:
		return cachedVersion, cachedData, nil
	case http.StatusOK:
		version = ans.header.Get(server.ModelVersionHeader)
		if version == "" {
			return "", nil, fmt.Errorf("shard %s served a model without a version header", from)
		}
		g.mu.Lock()
		g.modelVersion, g.modelData = version, ans.body
		g.mu.Unlock()
		return version, ans.body, nil
	default:
		return "", nil, fmt.Errorf("shard %s answered HTTP %d to GET /v1/model", from, ans.status)
	}
}

// pushModel PUTs an artifact to a peer with its version header, so the
// peer verifies content integrity before installing, and counts the
// push. The peer's recorded state is left to the caller: the next probe
// notices the new version and logs the model_version/shard_ready edges.
func (g *Gateway) pushModel(ctx context.Context, peer, version string, data []byte) error {
	ans, err := g.doShard(ctx, http.MethodPut, peer, "/v1/model", map[string]string{
		"Content-Type":            "application/octet-stream",
		server.ModelVersionHeader: version,
	}, data)
	if err == nil && ans.status != http.StatusNoContent {
		err = fmt.Errorf("peer %s answered HTTP %d to PUT /v1/model: %s",
			peer, ans.status, bytes.TrimSpace(ans.body))
	}
	if err != nil {
		g.met.pushErrors.Inc()
		return err
	}
	g.met.modelPushes.Inc()
	return nil
}

// SyncModels is the health loop's anti-entropy pass: when alive shards
// disagree on model version (a restarted shard that recovered an older
// generation, a peer that missed a distribution), re-ship the
// designated source's artifact until everyone matches. The source is
// the first alive configured backend serving any model — the same
// order retrain uses, so sync and retrain never fight.
func (g *Gateway) SyncModels(ctx context.Context) {
	var source, want string
	g.mu.Lock()
	for _, name := range g.backends {
		if s := g.shards[name]; s != nil && s.alive && s.modelVersion != "" {
			source, want = name, s.modelVersion
			break
		}
	}
	if source == "" {
		g.mu.Unlock()
		return
	}
	var stale []string
	for _, name := range g.backends {
		if s := g.shards[name]; s != nil && s.alive && s.modelVersion != want {
			stale = append(stale, name)
		}
	}
	g.mu.Unlock()
	if len(stale) == 0 {
		return
	}
	var converged []string
	version, err := g.shipModel(ctx, source, stale, func(peer string, err error) {
		if err != nil {
			g.log.Warn("model sync: push failed", slog.String("peer", peer), slog.String("err", err.Error()))
			return
		}
		converged = append(converged, peer)
	})
	if err != nil {
		g.log.Warn("model sync: fetch failed", slog.String("source", source), slog.String("err", err.Error()))
		return
	}
	for _, peer := range converged {
		g.mu.Lock()
		if s := g.shards[peer]; s != nil {
			s.modelVersion = version
			s.ready = s.alive && !s.degraded
		}
		g.mu.Unlock()
		g.log.Info("model sync: peer converged", slog.String("peer", peer), slog.String("version", version))
	}
}

// shardGet is one alive shard's answer to a fanned-out GET.
type shardGet struct {
	ans shardAnswer
	err error
}

// getAlive GETs path on every alive shard at once through doShard. An
// empty result means no shard is alive. partial reports that the ring
// holds shards the gateway holds dead and did not ask, so an answer built
// from the rest lacks theirs.
func (g *Gateway) getAlive(ctx context.Context, path string) (out []shardGet, partial bool) {
	shards := g.aliveShards()
	partial = len(shards) < len(g.Ring().Nodes())
	out = make([]shardGet, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			out[i].ans, out[i].err = g.doShard(ctx, http.MethodGet, shard, path, nil, nil)
		}(i, shard)
	}
	wg.Wait()
	return out, partial
}

// handleStats aggregates /v1/stats across alive shards: visit and user
// counts sum (placement partitions users), impression and click maps
// merge, CTR is recomputed from the merged totals, and Trained reports
// whether every alive shard serves a model. The answer is marked
// partial unless every shard of the ring answered.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	answers, partial := g.getAlive(r.Context(), "/v1/stats")
	if len(answers) == 0 {
		httpmw.WriteError(w, http.StatusServiceUnavailable, "cluster: no alive shards")
		return
	}
	agg := server.Stats{Trained: true, Impressions: map[string]int64{}, Clicks: map[string]int64{}, CTRPercent: map[string]float64{}}
	reached := 0
	for _, a := range answers {
		var st server.Stats
		if a.err != nil || a.ans.status != http.StatusOK || json.Unmarshal(a.ans.body, &st) != nil {
			continue
		}
		reached++
		agg.Visits += st.Visits
		agg.Users += st.Users
		agg.Trained = agg.Trained && st.Trained
		if st.VocabSize > agg.VocabSize {
			agg.VocabSize = st.VocabSize
		}
		for k, v := range st.Impressions {
			agg.Impressions[k] += v
		}
		for k, v := range st.Clicks {
			agg.Clicks[k] += v
		}
	}
	if reached == 0 {
		httpmw.WriteError(w, http.StatusBadGateway, "cluster: no shard answered stats")
		return
	}
	for k, imp := range agg.Impressions {
		if imp > 0 {
			agg.CTRPercent[k] = 100 * float64(agg.Clicks[k]) / float64(imp)
		}
	}
	if partial || reached < len(answers) {
		w.Header().Set(PartialHeader, "1")
	}
	httpmw.WriteJSON(w, http.StatusOK, agg)
}

// handleTraces answers GET /debug/traces (and ?trace=<id>, in either
// format) with the cluster's traces, assembled at read time: the
// gateway's own retained traces merged by ID with each alive shard's
// answer to the same read. Shards are asked for JSON whatever the
// format, since only that merges. A shard's 404 means it holds no half;
// any other failure, or a shard held dead and not asked, leaves its half
// out and marks the answer partial.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("trace")
	path := "/debug/traces"
	var own []tracer.TraceJSON
	if id != "" {
		path += "?trace=" + url.QueryEscape(id)
		if tr, ok := g.tr.TraceByID(id); ok {
			own = []tracer.TraceJSON{tr}
		}
	} else {
		own = g.tr.Traces()
	}
	sources := [][]tracer.TraceJSON{own}
	answers, partial := g.getAlive(r.Context(), path)
	if partial {
		w.Header().Set(PartialHeader, "1")
	}
	for _, a := range answers {
		if a.err == nil && a.ans.status == http.StatusNotFound {
			continue
		}
		var body struct {
			Traces []tracer.TraceJSON `json:"traces"`
		}
		if a.err != nil || a.ans.status != http.StatusOK || json.Unmarshal(a.ans.body, &body) != nil {
			w.Header().Set(PartialHeader, "1")
			continue
		}
		sources = append(sources, body.Traces)
	}
	traces := tracer.Merge(sources...)
	if id != "" && len(traces) == 0 {
		http.Error(w, "no such trace", http.StatusNotFound)
		return
	}
	tracer.WriteTraces(w, r, traces)
}

// handleCluster serves the operator view: ring membership, per-shard
// health and model versions, convergence.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, g.ClusterStatus())
}
