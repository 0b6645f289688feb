package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hostprof/internal/obs/httpmw"
	"hostprof/internal/obs/tracer"
)

// Extension is the client side of the experiment: the paper's Chrome
// extension, which reported the user's hostname sequence every 10
// minutes, received replacement ads, and posted back what was displayed
// and clicked.
type Extension struct {
	// BaseURL of the backend, e.g. "http://127.0.0.1:8420".
	BaseURL string
	// User is the random install ID (the paper assigned one per
	// installation and stored nothing else about the user).
	User int
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Tracer, when non-nil and enabled, wraps every call in a client
	// span and sends a W3C traceparent header, so the backend's handler
	// spans join the client's trace.
	Tracer *tracer.Tracer
	// MaxRetries re-sends a request the backend shed (429, always) or
	// declined with an explicit Retry-After on 503 — the two answers
	// that mean "come back later", not "this request is wrong". Each
	// retry waits per RetryDelay: the server's Retry-After when given,
	// exponential backoff otherwise, both capped at RetryMax. A 503
	// without Retry-After (e.g. model-not-trained, where the report's
	// visits were already ingested) is never retried. 0 disables
	// retries — every call maps to exactly one HTTP exchange.
	MaxRetries int
	// RetryBase seeds the exponential backoff (default 100ms).
	RetryBase time.Duration
	// RetryMax caps every retry wait, including server-requested ones
	// (default 2s) — a misbehaving Retry-After cannot stall the client.
	RetryMax time.Duration
}

func (e *Extension) client() *http.Client {
	if e.HTTPClient != nil {
		return e.HTTPClient
	}
	return http.DefaultClient
}

// post sends a JSON body and decodes a JSON response into out (nil out
// accepts 2xx with any body). The call is wrapped in a span named op
// and carries the span's traceparent. Shed answers are retried per
// MaxRetries; the span covers every attempt.
func (e *Extension) post(ctx context.Context, op, path string, in, out any) error {
	ctx, span := e.Tracer.StartSpan(ctx, op)
	defer span.End()
	span.SetAttr("path", path)
	body, err := json.Marshal(in)
	if err != nil {
		err = fmt.Errorf("server client: encoding %s: %w", path, err)
		span.Error(err)
		return err
	}
	for attempt := 0; ; attempt++ {
		err := e.postOnce(ctx, span, path, body, out)
		var apiErr *APIError
		if err == nil || attempt >= e.MaxRetries || !errors.As(err, &apiErr) || !apiErr.Retryable() {
			if err != nil {
				span.Error(err)
			}
			return err
		}
		delay := RetryDelay(apiErr.RetryAfter, attempt, e.retryBase(), e.retryMax())
		span.Event(fmt.Sprintf("retry %d after %s (HTTP %d, Retry-After %q)",
			attempt+1, delay, apiErr.Status, apiErr.RetryAfter))
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			span.Error(ctx.Err())
			return ctx.Err()
		case <-timer.C:
		}
	}
}

func (e *Extension) retryBase() time.Duration {
	if e.RetryBase > 0 {
		return e.RetryBase
	}
	return 100 * time.Millisecond
}

func (e *Extension) retryMax() time.Duration {
	if e.RetryMax > 0 {
		return e.RetryMax
	}
	return 2 * time.Second
}

// postOnce is one HTTP exchange of post's retry loop.
func (e *Extension) postOnce(ctx context.Context, span *tracer.Span, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("server client: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := span.Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := e.client().Do(req)
	if err != nil {
		return fmt.Errorf("server client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	span.SetAttr("code", fmt.Sprint(resp.StatusCode))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		apiErr := &APIError{Status: resp.StatusCode}
		// The backend wraps errors as {"error": "..."}; fall back to the
		// raw body for proxies and older servers.
		var eb httpmw.ErrorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			apiErr.Message = eb.Error
		} else {
			apiErr.Message = string(bytes.TrimSpace(raw))
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			apiErr.RetryAfter = ra
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server client: decoding %s: %w", path, err)
	}
	return nil
}

// RetryDelay computes how long to wait before retry number attempt
// (0-based): the server's Retry-After when it parses to a positive
// duration, jittered exponential backoff from base otherwise — both
// capped at max, so neither a hostile header nor deep backoff can stall
// a caller. The exponential path uses equal jitter — uniform in
// [d/2, d] where d = base<<attempt — so a population of clients shed at
// the same instant (one overloaded shard refusing a burst) does not
// retry in lockstep and re-create the burst; a server-scheduled
// Retry-After is honored exactly, since the server already chose the
// time. Shared by the Extension client and the cluster gateway's shard
// retries.
func RetryDelay(retryAfter string, attempt int, base, max time.Duration) time.Duration {
	if secs, err := strconv.ParseInt(strings.TrimSpace(retryAfter), 10, 64); err == nil && secs > 0 {
		// Compare before multiplying: secs·1e9 wraps for a large header.
		if secs > int64(max/time.Second) {
			return max
		}
		return time.Duration(secs) * time.Second
	}
	d := base << attempt
	if d > max || d <= 0 { // <<-overflow guard
		d = max
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// APIError is a non-2xx backend answer.
type APIError struct {
	Status  int
	Message string
	// RetryAfter echoes the Retry-After header when the backend shed the
	// request (429), so callers can back off as instructed.
	RetryAfter string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("server client: HTTP %d: %s", e.Status, e.Message)
}

// Retryable reports whether the answer means "come back later": a shed
// request (429) or an explicitly scheduled 503 (Retry-After present).
// A bare 503 is a state answer (model not trained, shard down hard) —
// retrying it blind would duplicate work the backend already did, so it
// is surfaced instead.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return e.RetryAfter != ""
	}
	return false
}

// Report sends the hostnames observed since the last report and returns
// the backend's replacement-ad list (empty when the backend cannot
// profile the session yet).
func (e *Extension) Report(now int64, hosts []string) ([]WireAd, error) {
	return e.ReportContext(context.Background(), now, hosts)
}

// ReportContext is Report under a caller context: cancellation applies
// to the HTTP exchange, and a span carried by ctx becomes the parent of
// the client span (and, through traceparent, of the server's handler
// span).
func (e *Extension) ReportContext(ctx context.Context, now int64, hosts []string) ([]WireAd, error) {
	var resp ReportResponse
	err := e.post(ctx, "client.report", "/v1/report",
		ReportRequest{User: e.User, Time: now, Hosts: hosts}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Ads, nil
}

// ProfileBatch profiles many sessions in one round trip, returning one
// result per session in request order. Individual sessions can fail
// (empty, nothing labelled reachable) without failing the batch; those
// results carry Error instead of Categories.
func (e *Extension) ProfileBatch(ctx context.Context, sessions [][]string) ([]ProfileResult, error) {
	var resp ProfileBatchResponse
	err := e.post(ctx, "client.profile_batch", "/v1/profile/batch",
		ProfileBatchRequest{Sessions: sessions}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Profiles, nil
}

// RetrainContext asks the backend to refit its model on everything
// reported so far (operator endpoint; the paper ran this daily). The
// call blocks until the retrain — possibly one already in flight that
// this request joined — finishes, or ctx ends.
func (e *Extension) RetrainContext(ctx context.Context) error {
	return e.post(ctx, "client.retrain", "/v1/retrain", struct{}{}, nil)
}

// PushTrace posts locally captured span records to the backend's
// /debug/traces collector, so a distributed trace can be inspected in
// one place. Spans keep their trace IDs; the server merges them with
// its own half of each trace.
func (e *Extension) PushTrace(ctx context.Context, spans []tracer.SpanData) error {
	body, err := json.Marshal(map[string][]tracer.SpanData{"spans": spans})
	if err != nil {
		return fmt.Errorf("server client: encoding spans: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		e.BaseURL+"/debug/traces", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("server client: pushing trace: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client().Do(req)
	if err != nil {
		return fmt.Errorf("server client: pushing trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: "trace push rejected"}
	}
	return nil
}
