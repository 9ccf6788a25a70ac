package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler stall must show in the latency of the requests queued
// behind it, because latency is timed from when each request was due,
// not from when the client got round to sending it.
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	var reqs []request
	for i := 0; i < 30; i++ {
		reqs = append(reqs, request{"/", time.Duration(i) * 10 * time.Millisecond})
	}
	_, out := openLoop(srv.Client(), srv.URL, reqs, 1)
	for i, o := range out {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, o.status, o.err)
		}
	}
	// Request 2 stalls from about 20ms to 170ms; requests 3..7 were due
	// inside the stall and waited for it.
	for i := 3; i <= 7; i++ {
		due := reqs[i].due
		lat := out[i].latency(due)
		if min := 20*time.Millisecond + stall - due - 5*time.Millisecond; lat < min {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, due, lat, min)
		}
		if service := out[i].done - out[i].sent; lat <= service {
			t.Errorf("request %d: latency %v does not include the %v it waited to be sent", i, lat, out[i].sent-due)
		}
	}
	if lat := out[29].latency(reqs[29].due); lat > stall/2 {
		t.Errorf("request 29, due after the backlog cleared, has latency %v", lat)
	}
}

// The backlog counts every request from its due time to its answer, so
// requests queued behind a slow one add up even before they are sent.
func TestBacklogPeakCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	var sc schedule
	for _, due := range []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms} {
		sc.reqs = append(sc.reqs, request{"/", due})
	}
	ep := episode{out: []outcome{
		{sent: 0, done: 25 * ms},
		{sent: 25 * ms, done: 26 * ms},
		{sent: 26 * ms, done: 27 * ms},
		{sent: 30 * ms, done: 40 * ms}, // answered as request 4 falls due
		{sent: 40 * ms, done: 41 * ms},
	}}
	if got := ep.backlogPeak(sc); got != 3 {
		t.Errorf("backlog peak %d, want 3", got)
	}
}
