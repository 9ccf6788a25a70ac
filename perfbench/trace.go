package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the ID of the span that caused
// it (0 for a root). Count is how many operations the span covers, for
// spans that wrap a batch of identical calls (Step loops, arbiter loops).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil or disabled
// Tracer records nothing and costs one branch per call, so the untraced
// runs that produce end-to-end numbers go through the same code.
type Tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, epoch: time.Now()} }

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// Record adds a span that has already ended, for calls timed by code
// that must not pay for tracing while it runs (the open-loop clients).
func (t *Tracer) Record(name string, parent int, start, end time.Time, count int64) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Count: count})
}

// End closes span id, recording that it covered count operations.
func (t *Tracer) End(id int, count int64) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// LayerTime sums self-time and operation counts per span name.
type LayerTime struct {
	Self  time.Duration
	Count int64
}

// SelfTimes computes, for every span name, the sum of each span's
// duration minus the part of its interval that its children cover.
// Children may overlap each other (concurrent requests under one parent),
// so the covered part is the length of the union of the children's
// intervals clipped to the parent, never their plain sum.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]LayerTime{}
	for _, s := range spans {
		covered := unionLen(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - covered)
		lt.Count += s.Count
		out[s.Name] = lt
	}
	return out
}

// unionLen is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func unionLen(spans []Span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeTrace writes the fingerprint line and every span, one JSON object
// per line, to path.
func writeTrace(path string, fp fingerprint, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(fp); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
