package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// The coordinated-omission test: a server that stalls once for 200 ms
// behind a single connection. An open loop must charge the stall to
// every request that was due while it lasted, because their users were
// waiting; timing from the actual send would show one slow request and
// hide the rest.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stallAt, stall = 10, 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	calls := make([]Call, 40)
	for i := range calls {
		calls[i] = Call{Body: []byte("{}")}
	}
	client := newLoadClient(1)
	defer client.CloseIdleConnections()
	// 100 requests per second: 20 requests fall due during the stall.
	ph := runPhase(context.Background(), "stall", client, srv.URL, calls, 100, 1)
	if ph.Failed != 0 || ph.Sent != len(calls) {
		t.Fatalf("sent %d failed %d: %s", ph.Sent, ph.Failed, ph.FirstErr)
	}
	if ph.LatMS[stallAt] < 200 {
		t.Errorf("the stalled request took %.1f ms, want at least 200", ph.LatMS[stallAt])
	}
	// Request stallAt+5 was due 50 ms into the stall: it waited at least
	// the remaining 150 ms, none of which its own service time explains.
	if got := ph.LatMS[stallAt+5]; got < 140 {
		t.Errorf("request due 50 ms into the stall reports %.1f ms; the stall was omitted", got)
	}
	if got := ph.LateMS[stallAt+5]; got < 140 {
		t.Errorf("lateness of the queued request is %.1f ms; the generator did not report running late", got)
	}
	// Before the stall the generator keeps its schedule.
	if got := ph.LateMS[stallAt-2]; got > 20 {
		t.Errorf("lateness before the stall is %.1f ms", got)
	}
	// The backlog drains: the last request is back near its service time.
	if got := ph.LatMS[len(calls)-1]; got > 100 {
		t.Errorf("last request still reports %.1f ms; the backlog should have drained", got)
	}
}

func TestClosedLoopCountsWrongAnswersAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := newLoadClient(2)
	defer client.CloseIdleConnections()
	ph := runPhase(context.Background(), "shed", client, srv.URL, make([]Call, 6), 0, 2)
	if ph.Sent != 6 || ph.Failed != 6 || ph.OK != 0 || ph.FirstErr == "" {
		t.Errorf("sent=%d ok=%d failed=%d err=%q; every 429 must count as failed", ph.Sent, ph.OK, ph.Failed, ph.FirstErr)
	}
}
