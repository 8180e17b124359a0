package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Parent: -1, Layer: "bench", Name: "rep", Start: 0, End: 100 * ms},
		// Two overlapping children cover their union once...
		{ID: 1, Parent: 0, Layer: "meshfem", Name: "Build", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Layer: "mesh", Name: "BuildHalo", Start: 20 * ms, End: 50 * ms},
		// ...a child is clipped to its parent...
		{ID: 3, Parent: 0, Layer: "solver", Name: "Run", Start: 90 * ms, End: 120 * ms},
		// ...and a grandchild only reduces its own parent.
		{ID: 4, Parent: 2, Layer: "mesh", Name: "inner", Start: 25 * ms, End: 35 * ms},
		// A second root is untouched by the first tree.
		{ID: 5, Parent: -1, Layer: "simd", Name: "micro", Start: 200 * ms, End: 260 * ms},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{0: 50 * ms, 1: 20 * ms, 2: 20 * ms, 3: 30 * ms, 4: 10 * ms, 5: 60 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	layers := LayerSelfTimes(spans)
	if layers["mesh"] != 30*ms || layers["bench"] != 50*ms {
		t.Errorf("layer self times = %v", layers)
	}
	if got := spansUnder(spans, "rep"); len(got) != 5 {
		t.Errorf("spansUnder kept %d spans, want the 5 of the rep tree", len(got))
	}
}

func TestTracerRecordsParentsAndNilTracerOnlyRuns(t *testing.T) {
	tr := NewTracer("w")
	tr.SetRep(3)
	var inner int
	outer := tr.Do(-1, "bench", "rep", func(id int) {
		inner = tr.Do(id, "core", "NewSession", func(int) { time.Sleep(time.Millisecond) })
	})
	spans := tr.Spans()
	if len(spans) != 2 || spans[inner].Parent != outer || spans[inner].Rep != 3 || spans[inner].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[outer].End < spans[inner].End || spans[inner].End-spans[inner].Start < time.Millisecond {
		t.Errorf("span intervals not nested: %+v", spans)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Errorf("chrome trace did not round-trip: %v, %d events", err, len(doc.TraceEvents))
	}

	var off *Tracer
	ran := false
	if id := off.Do(-1, "core", "x", func(int) { ran = true }); id != -1 || !ran || off.Spans() != nil {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
}
