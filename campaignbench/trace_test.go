package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAttributeSelfTime checks the self-time arithmetic on a synthetic
// span tree:
//
//	campaign [0,10)
//	├── parser [1,2)
//	└── device [3,9)
//	    └── exec [4,8)
//	harness [11,12)
//	sema [20,23) (replay)
//
// with a traced wall window of 14 s.
func TestAttributeSelfTime(t *testing.T) {
	s := func(layer string, start, end float64, parent int, replay bool) Span {
		return Span{Layer: layer, Fn: layer + ".fn", Start: int64(start * 1e9), End: int64(end * 1e9), Parent: parent, Case: 0, Replay: replay}
	}
	spans := []Span{
		s("campaign", 0, 10, -1, false),
		s("parser", 1, 2, 0, false),
		s("device", 3, 9, 0, false),
		s("exec", 4, 8, 2, false),
		s("harness", 11, 12, -1, false),
		s("sema", 20, 23, -1, true),
	}
	a := Attribute(spans, 14)
	want := map[string]float64{"campaign": 3, "parser": 1, "device": 2, "exec": 4, "harness": 1}
	sum := 0.0
	for layer, self := range want {
		if got := a.Layers.get(layer).Self; !near(got, self) {
			t.Errorf("%s self = %v, want %v", layer, got, self)
		}
		sum += a.Layers.get(layer).Self
	}
	if got := a.Layers.get("sema").Calls; got != 0 {
		t.Errorf("replay span counted in the wall layers: %d calls", got)
	}
	if got := a.Replay.get("sema").Self; !near(got, 3) {
		t.Errorf("replay sema self = %v, want 3", got)
	}
	if !near(a.Unattributed, 14-11) {
		t.Errorf("unattributed = %v, want 3", a.Unattributed)
	}
	if !near(sum+a.Unattributed, 14) {
		t.Errorf("self times %v + unattributed %v != wall 14", sum, a.Unattributed)
	}
	if got := a.Fns.get("device/device.fn").Durations; len(got) != 1 || !near(got[0], 6) {
		t.Errorf("device durations = %v, want [6]", got)
	}

	var m Attribution
	m.Merge(a)
	m.Merge(a)
	if got := m.Layers.get("exec"); got.Calls != 2 || !near(got.Self, 8) {
		t.Errorf("merged exec = %d calls %v s, want 2 calls 8 s", got.Calls, got.Self)
	}
	if !near(m.Unattributed, 6) {
		t.Errorf("merged unattributed = %v, want 6", m.Unattributed)
	}
}

// TestTracerNesting checks that Begin/End on one goroutine record the
// open span as the parent and restore it on End.
func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.Case = 7
	outer := tr.Begin("campaign", "RunMatrix")
	tr.Do("exec", "Kernel.Run", func() {})
	tr.End(outer)
	tr.Do("harness", "MergeShards", func() {})
	if got := tr.Spans[1].Parent; got != outer {
		t.Errorf("inner parent = %d, want %d", got, outer)
	}
	if got := tr.Spans[2].Parent; got != -1 {
		t.Errorf("top-level parent = %d, want -1", got)
	}
	for i, sp := range tr.Spans {
		if sp.Case != 7 || sp.End < sp.Start {
			t.Errorf("span %d = %+v", i, sp)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); !near(got, 4) {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
