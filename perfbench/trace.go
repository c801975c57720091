package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the module.
// Times are seconds from the tracer's start.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// ReqID ties the spans of one request together; for HTTP requests
	// it is also sent as X-Request-ID.
	ReqID string  `json:"req_id,omitempty"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so traced and untraced runs share one code path.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(parent int, layer, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, ReqID: req, Start: now, End: now})
	return len(t.spans)
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a finished span with explicit host times, for spans
// rebuilt from measurements taken elsewhere (load-generator samples,
// server-reported timings). It returns the span's ID.
func (t *Tracer) Add(parent int, layer, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, ReqID: req,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type interval struct{ lo, hi float64 }

// unionLength returns the total length covered by the intervals
// clipped to [lo, hi].
func unionLength(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// SelfTimes returns each layer's self time in seconds: a span's
// duration minus the part of its interval its children cover, summed
// over the layer's spans.
func SelfTimes(spans []Span) map[string]float64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Layer] += (s.End - s.Start) - unionLength(children[s.ID], s.Start, s.End)
	}
	return self
}

// Coverage returns the share of [lo, hi] that some span covers.
func Coverage(spans []Span, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return unionLength(ivs, lo, hi) / (hi - lo)
}

// finishTrace writes the span file and folds the trace summary into
// the outcome: self time per layer, the share of the traced phase
// [lo, hi] (seconds from the tracer's start) that spans into the module
// cover (the benchmark's own "bench" spans excluded), the span count, and the
// tracing overhead (traced minus untraced wall time).
func finishTrace(o options, out *outcome, tr *Tracer, lo, hi float64, tracedWall, untracedWall time.Duration) error {
	spansPath, _ := traceFiles(o)
	if err := tr.WriteFile(spansPath); err != nil {
		return err
	}
	spans := tr.Spans()
	self := SelfTimes(spans)
	for _, l := range traceLayers {
		out.Metrics["self_s."+l] = self[l]
	}
	var inner []Span
	for _, s := range spans {
		if s.Layer != "bench" {
			inner = append(inner, s)
		}
	}
	out.Metrics["trace.coverage_frac"] = Coverage(inner, lo, hi)
	out.Metrics["trace.overhead_s"] = (tracedWall - untracedWall).Seconds()
	out.Metrics["trace.spans"] = float64(len(spans))
	out.notef("trace: %d spans in %s", len(spans), spansPath)
	return nil
}
