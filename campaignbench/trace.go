package main

import (
	"math"
	"sort"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Parent indexes the enclosing span (-1 for a
// top-level span); Case is the campaign case the call served (-1 when it
// served none). Replay spans time a layer that is only reachable inside
// another layer's call by feeding it the round's inputs again after the
// traced wall window; they are reported apart from the wall-time sum.
type Span struct {
	Layer  string `json:"layer"`
	Fn     string `json:"fn"`
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Case   int    `json:"case"`
	Replay bool   `json:"replay,omitempty"`
}

// Tracer keeps spans in memory for one single-goroutine traced run. Spans
// nest strictly (Begin/End pairs on one goroutine), so the open span is
// the parent of the next one.
type Tracer struct {
	t0     time.Time
	Spans  []Span
	open   int
	Case   int
	replay bool
}

// NewTracer starts the trace clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), open: -1, Case: -1} }

// Begin opens a span and returns its id for End.
func (t *Tracer) Begin(layer, fn string) int {
	t.Spans = append(t.Spans, Span{
		Layer: layer, Fn: fn, Start: t.now(), Parent: t.open, Case: t.Case, Replay: t.replay,
	})
	t.open = len(t.Spans) - 1
	return t.open
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	t.Spans[id].End = t.now()
	t.open = t.Spans[id].Parent
}

// Do times fn as one span.
func (t *Tracer) Do(layer, name string, fn func()) {
	id := t.Begin(layer, name)
	fn()
	t.End(id)
}

// Replaying marks every span opened from now on as a replay span.
func (t *Tracer) Replaying() { t.replay = true }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// LayerTotals is one layer's share of a trace.
type LayerTotals struct {
	Calls int
	// Self is the layer's span time minus the part of it covered by child
	// spans, in seconds.
	Self float64
	// Durations holds each span's full duration in seconds, for
	// per-call percentiles.
	Durations []float64
}

// Attribution is the per-layer breakdown of a trace.
type Attribution struct {
	Layers totals
	// Fns breaks the layers down by called function ("layer/fn").
	Fns totals
	// Replay holds the replay spans' layers, outside the wall-time sum.
	Replay totals
	// Unattributed is the traced wall time not covered by any layer's
	// self time: layer self times plus Unattributed equal the wall time.
	Unattributed float64
}

// Attribute computes per-layer self time. wall is the traced wall window
// in seconds; only non-replay spans count toward it.
func Attribute(spans []Span, wall float64) Attribution {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	a := Attribution{Layers: totals{}, Fns: totals{}, Replay: totals{}}
	sum := 0.0
	for i, s := range spans {
		m := a.Layers
		if s.Replay {
			m = a.Replay
		}
		self := float64(s.End-s.Start-child[i]) / 1e9
		dur := float64(s.End-s.Start) / 1e9
		m.add(s.Layer, self, dur)
		a.Fns.add(s.Layer+"/"+s.Fn, self, dur)
		if !s.Replay {
			sum += self
		}
	}
	a.Unattributed = wall - sum
	return a
}

// totals maps a layer (or function) name to its totals.
type totals map[string]*LayerTotals

func (m totals) add(name string, self, dur float64) {
	lt := m[name]
	if lt == nil {
		lt = &LayerTotals{}
		m[name] = lt
	}
	lt.Calls++
	lt.Self += self
	lt.Durations = append(lt.Durations, dur)
}

func (m totals) merge(src totals) {
	for name, lt := range src {
		d := m[name]
		if d == nil {
			d = &LayerTotals{}
			m[name] = d
		}
		d.Calls += lt.Calls
		d.Self += lt.Self
		d.Durations = append(d.Durations, lt.Durations...)
	}
}

// get returns name's totals, zero when it never ran.
func (m totals) get(name string) *LayerTotals {
	if lt := m[name]; lt != nil {
		return lt
	}
	return &LayerTotals{}
}

// Merge adds another attribution's totals into a (traces of several
// rounds are attributed round by round, then summed).
func (a *Attribution) Merge(b Attribution) {
	if a.Layers == nil {
		a.Layers, a.Fns, a.Replay = totals{}, totals{}, totals{}
	}
	a.Layers.merge(b.Layers)
	a.Fns.merge(b.Fns)
	a.Replay.merge(b.Replay)
	a.Unattributed += b.Unattributed
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of xs, which must be positive; 0
// for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
