package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Overlapping children cover [10, 50] once, not 20+30 times.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		// A child running past its parent only covers up to the parent's end.
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35, Count: 7},
	}
	got := SelfTimes(spans)
	want := map[string]LayerTime{
		"parent":     {Self: 50},
		"child":      {Self: 20 + 20 + 30},
		"grandchild": {Self: 10, Count: 7},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.Begin("x", 0)
	tr.End(id, 1)
	tr.Record("y", 0, time.Now(), time.Now(), 1)
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("disabled tracer kept %d spans", n)
	}
	tr = newTracer(true)
	p := tr.Begin("p", 0)
	c := tr.Begin("c", p)
	tr.End(c, 3)
	tr.End(p, 1)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Count != 3 || s[0].End < s[1].End {
		t.Fatalf("unexpected spans %+v", s)
	}
}
