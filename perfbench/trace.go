package main

import (
	"os"

	"fastbfs/internal/obs"
)

// spanTotals folds completed spans into per-name totals: inclusive
// duration and self time (duration minus the part its direct children
// cover), in seconds, plus the count of spans of each name.
type spanTotals struct {
	self  map[string]float64
	incl  map[string]float64
	count map[string]int
}

func newSpanTotals() *spanTotals {
	return &spanTotals{self: map[string]float64{}, incl: map[string]float64{}, count: map[string]int{}}
}

// add folds one trace's span events. Children are emitted before their
// parents, so child time is summed per parent ID first.
func (t *spanTotals) add(events []obs.Event) {
	childDur := map[int64]float64{}
	for _, e := range events {
		if e.Kind == obs.KindSpan && e.Parent != 0 {
			childDur[e.Parent] += e.Dur
		}
	}
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		t.incl[e.Name] += e.Dur
		t.self[e.Name] += e.Dur - childDur[e.ID]
		t.count[e.Name]++
	}
}

// selfMS is the summed self time of spans named name, in milliseconds.
func (t *spanTotals) selfMS(name string) float64 { return t.self[name] * 1e3 }

// inclMS is the summed inclusive duration of spans named name, in
// milliseconds.
func (t *spanTotals) inclMS(name string) float64 { return t.incl[name] * 1e3 }

// writeTrace writes events as JSONL (the format cmd/tracecat reads);
// the sink buffers and closes the file.
func writeTrace(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	return sink.Close()
}
