package main

import (
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled HTTP GET: path relative to the server and the
// offset from the start of the schedule at which it is due.
type request struct {
	path string
	due  time.Duration
}

// outcome records one request. Times are offsets from the schedule's
// start; latency is done minus due, so a stall that delays sending
// counts against every request it delays, not only the stalled one.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
	err        error
}

// spinWindow is how long before a due time a client stops sleeping and
// starts yielding in a loop: timer wake-ups can be late by about this
// much, and the yield loop gives the CPU to any runnable goroutine, so it
// only burns time nothing else wants.
const spinWindow = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (o outcome) latency(due time.Duration) time.Duration { return o.done - due }

// openLoop sends reqs on their schedule from conns client goroutines,
// each holding at most one request (and so one connection) at a time. A
// client takes the next request in schedule order, waits until it is
// due, sends it and reads the whole body. A request due while every
// client is busy is sent late; the lateness shows in sent-due. It
// returns the schedule's start time with the outcomes.
func openLoop(client *http.Client, base string, reqs []request, conns int) (time.Time, []outcome) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				waitUntil(start.Add(reqs[i].due))
				o := outcome{sent: time.Since(start)}
				resp, err := client.Get(base + reqs[i].path)
				if err == nil {
					o.status = resp.StatusCode
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				o.err = err
				o.done = time.Since(start)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return start, out
}
