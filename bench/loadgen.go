package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Call is one pre-encoded request of a phase. Check inspects the answer
// and returns an error when it is wrong; a wrong answer counts as a
// failed request exactly like a transport error does.
type Call struct {
	Body  []byte
	Check func(status int, body []byte) error
}

// Phase is what one load phase observed.
type Phase struct {
	Name     string  `json:"name"`
	Loop     string  `json:"loop"`                 // "open" or "closed"
	Rate     float64 `json:"rate_per_s,omitempty"` // open loop only
	Conns    int     `json:"conns"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Failed   int     `json:"failed"`
	Elapsed  float64 `json:"elapsed_s"`
	FirstErr string  `json:"first_error,omitempty"`
	// Slices holds the per-slice numbers of a sliced phase (see
	// runSliced), kept in the -out record for post-mortems.
	Slices []SliceStat `json:"slices,omitempty"`

	// LatMS[i] is request i's latency in milliseconds, in schedule
	// order: from its intended send time in an open loop, from its
	// actual send in a closed loop. Failed requests keep their slot
	// (a refusal is not faster than an answer).
	LatMS []float64 `json:"-"`
	// LateMS[i] is how far behind schedule request i left the
	// generator (open loop only).
	LateMS []float64 `json:"-"`
}

// SliceStat is what one slice of a measured phase saw.
type SliceStat struct {
	P50MS     float64 `json:"p50_ms"`
	TailMS    float64 `json:"tail_ms"`
	PerSecond float64 `json:"ok_per_s"`
	CPUMS     float64 `json:"server_cpu_ms_per_call"`
}

// loadConns is the harness's connection and sender budget: the load is
// sized to the box so that the generator never needs more cores than it
// leaves the servers.
func loadConns() int { return min(runtime.NumCPU(), 4) }

// newLoadClient returns a client limited to conns connections.
func newLoadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// timerSlack is how early a sender wakes before a request is due. On
// the boxes this runs on time.Sleep overshoots by 0.5 to 1.4 ms — a
// third of a report's whole latency — so the sender sleeps to within
// timerSlack of the due time and yields in a loop for the rest. At 250
// requests per second that costs the generator under a fifth of a core.
const timerSlack = 1500 * time.Microsecond

func waitUntil(due time.Time) {
	if wait := time.Until(due); wait > timerSlack {
		time.Sleep(wait - timerSlack)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// send performs one call and reports whether it succeeded.
func send(ctx context.Context, client *http.Client, url string, c Call) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(c.Body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if c.Check != nil {
		return c.Check(resp.StatusCode, body)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// runPhase sends calls over conns sender goroutines. With rate > 0 it is
// an open loop: call i is due at start + i/rate whatever happened to
// the calls before it, and its latency runs from that instant, so a
// stall is charged to every request queued behind it (no coordinated
// omission). With rate == 0 it is a closed loop: each sender issues its
// next call as soon as the previous one returns.
func runPhase(ctx context.Context, name string, client *http.Client, url string, calls []Call, rate float64, conns int) Phase {
	ph := Phase{
		Name: name, Loop: "closed", Rate: rate, Conns: conns,
		LatMS: make([]float64, len(calls)),
	}
	var gap time.Duration
	if rate > 0 {
		ph.Loop = "open"
		ph.LateMS = make([]float64, len(calls))
		gap = time.Duration(float64(time.Second) / rate)
	}
	var (
		next     atomic.Int64
		failed   atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now()
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) || ctx.Err() != nil {
					return
				}
				from := time.Now()
				if gap > 0 {
					due := start.Add(time.Duration(i) * gap)
					waitUntil(due)
					ph.LateMS[i] = float64(time.Since(due)) / float64(time.Millisecond)
					from = due
				}
				err := send(ctx, client, url, calls[i])
				ph.LatMS[i] = float64(time.Since(from)) / float64(time.Millisecond)
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("call %d: %v", i, err))
				}
			}
		}()
	}
	wg.Wait()
	ph.Elapsed = time.Since(start).Seconds()
	ph.Sent = min(int(next.Load()), len(calls))
	ph.Failed = int(failed.Load())
	ph.OK = ph.Sent - ph.Failed
	if e, _ := firstErr.Load().(string); e != "" {
		ph.FirstErr = e
	}
	return ph
}
