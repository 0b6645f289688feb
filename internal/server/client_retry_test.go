package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hostprof/internal/engine"
	"hostprof/internal/obs/httpmw"
)

// TestClientRetriesShedRequests: a 429 + Retry-After answer is retried
// with bounded backoff until the backend admits the request; the caller
// sees one successful call, not three errors.
func TestClientRetriesShedRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			httpmw.WriteError(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	ext := &Extension{
		BaseURL:    srv.URL,
		MaxRetries: 3,
		// Retry-After says 1s; RetryMax bounds it so the test stays fast
		// and a hostile header cannot stall a client.
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
	}
	start := time.Now()
	if err := ext.Feedback(1, "original", false); err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend saw %d calls, want 3", got)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retries took %s; Retry-After was not bounded by RetryMax", elapsed)
	}
}

// TestClientRetryBudgetExhausted: a persistently shedding backend
// surfaces the final 429 after MaxRetries attempts.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		httpmw.WriteError(w, http.StatusTooManyRequests, "still overloaded")
	}))
	defer srv.Close()

	ext := &Extension{BaseURL: srv.URL, MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}
	err := ext.Feedback(1, "original", false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if got := calls.Load(); got != 3 { // 1 initial + 2 retries
		t.Fatalf("backend saw %d calls, want 3", got)
	}
}

// TestClientDoesNotRetryBare503: 503 without Retry-After is a state
// answer (e.g. model not trained — the report's visits were already
// ingested); blind replay would duplicate them.
func TestClientDoesNotRetryBare503(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpmw.WriteError(w, http.StatusServiceUnavailable, engine.ErrNotTrained.Error())
	}))
	defer srv.Close()

	ext := &Extension{BaseURL: srv.URL, MaxRetries: 5, RetryBase: time.Millisecond}
	_, err := ext.Report(1, []string{"a.example"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend saw %d calls, want 1 (no retry)", got)
	}
}

// TestClientRetryHonorsContext: cancellation during a retry wait
// returns promptly with the context error.
func TestClientRetryHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		httpmw.WriteError(w, http.StatusTooManyRequests, "overloaded")
	}))
	defer srv.Close()

	ext := &Extension{BaseURL: srv.URL, MaxRetries: 10, RetryBase: 50 * time.Millisecond, RetryMax: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := ext.FeedbackContext(ctx, 1, "original", false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestRetryDelay pins the backoff schedule: server-scheduled waits are
// honored exactly but capped; otherwise the wait is equal-jittered
// exponential — uniform in [d/2, d] for d = base<<attempt, never above
// max.
func TestRetryDelay(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	exact := []struct {
		retryAfter string
		attempt    int
		want       time.Duration
	}{
		{"1", 0, time.Second},
		{"60", 0, 2 * time.Second}, // server ask capped
		// Asks whose seconds overflow a Duration when multiplied must
		// still cap, not wrap negative or small.
		{"9223372037", 0, 2 * time.Second},
		{"18446744074", 0, 2 * time.Second},
		{"9223372036854775807", 0, 2 * time.Second},
	}
	for _, c := range exact {
		if got := RetryDelay(c.retryAfter, c.attempt, base, max); got != c.want {
			t.Errorf("RetryDelay(%q, %d) = %s, want %s", c.retryAfter, c.attempt, got, c.want)
		}
	}
	jittered := []struct {
		retryAfter string
		attempt    int
		lo, hi     time.Duration
	}{
		{"", 0, 50 * time.Millisecond, 100 * time.Millisecond},
		{"", 1, 100 * time.Millisecond, 200 * time.Millisecond},
		{"", 4, 800 * time.Millisecond, 1600 * time.Millisecond},
		{"", 5, time.Second, 2 * time.Second},  // capped at max before jitter
		{"", 63, time.Second, 2 * time.Second}, // shift overflow guarded
		{"0", 2, 200 * time.Millisecond, 400 * time.Millisecond},
		{"soon", 0, 50 * time.Millisecond, 100 * time.Millisecond}, // unparseable → backoff
	}
	for _, c := range jittered {
		for i := 0; i < 50; i++ {
			got := RetryDelay(c.retryAfter, c.attempt, base, max)
			if got < c.lo || got > c.hi {
				t.Fatalf("RetryDelay(%q, %d) = %s, want in [%s, %s]", c.retryAfter, c.attempt, got, c.lo, c.hi)
			}
		}
	}
	// The jitter must actually vary — a constant answer means the random
	// draw was dropped somewhere.
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		seen[RetryDelay("", 4, base, max)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("200 draws of RetryDelay produced %d distinct value(s); jitter is not applied", len(seen))
	}
}
