package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Layer is the module
// whose public function was called; Parent is the span that caused it
// (-1 for a root). Spans of one repetition share Workload and Rep.
type Span struct {
	ID       int
	Parent   int
	Layer    string
	Name     string
	Workload string
	Rep      int
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
}

// Tracer records spans in memory. The nil *Tracer is the "tracing off"
// tracer: Do just runs the function, so the harness calls the same
// code with and without tracing and end-to-end numbers are never
// measured through it.
type Tracer struct {
	epoch    time.Time
	workload string

	mu    sync.Mutex
	rep   int
	spans []Span
}

// NewTracer starts a tracer for one workload.
func NewTracer(workload string) *Tracer {
	return &Tracer{epoch: time.Now(), workload: workload}
}

// SetRep labels the spans recorded from now on with a repetition id.
func (t *Tracer) SetRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// Do runs f inside a span and returns the span's id, for use as the
// parent of spans f's callees record. On the nil tracer it only runs f
// (and returns -1).
func (t *Tracer) Do(parent int, layer, name string, f func(id int)) int {
	if t == nil {
		f(-1)
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name,
		Workload: t.workload, Rep: t.rep, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	f(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return id
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// — concurrent calls — cover their union once, and a child is clipped
// to its parent's interval).
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// LayerSelfTimes sums span self times per layer.
func LayerSelfTimes(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// SpanTotal sums the durations of the spans with the given layer and
// name (all reps).
func SpanTotal(spans []Span, layer, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto): microsecond timestamps, one track per
// layer.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace writes spans as Chrome-trace JSON.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
