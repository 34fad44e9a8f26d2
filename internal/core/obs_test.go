package core

import (
	"math"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestTraceCoversExecTime is the tentpole's acceptance check at the
// engine level: on a simulated streaming run, the leaf spans tile the
// virtual timeline, so their durations must sum to the clock-derived
// ExecTime (well within the 5% criterion — the only untraced work is
// span-free bookkeeping, which advances no virtual time at all).
func TestTraceCoversExecTime(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}

	col := &obs.Collect{}
	tr := obs.New(col)
	opts := Options{Base: xstream.Options{
		MemoryBudget:  4096, // forces the streaming path
		StreamBufSize: 512,
		Sim:           xstream.DefaultSim(),
		Tracer:        tr,
		Root:          maxDegreeVertex(m, edges),
	}}
	res, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}

	sum := obs.Summarize(col.Events())
	exec := res.Metrics.ExecTime
	if exec <= 0 {
		t.Fatalf("sim run reported ExecTime %v", exec)
	}
	if rel := math.Abs(sum.LeafTotal-exec) / exec; rel > 0.05 {
		t.Errorf("leaf spans cover %.6fs of %.6fs exec time (%.1f%% off, want ≤5%%)",
			sum.LeafTotal, exec, 100*rel)
	}

	// One iteration span per metrics iteration, with matching frontier.
	if len(sum.Iters) == 0 {
		t.Fatal("trace has no iterations")
	}
	var iterRows int
	for _, ip := range sum.Iters {
		if ip.Iter >= 0 {
			iterRows++
			it := res.Metrics.Iterations[ip.Iter]
			if got := ip.Attrs["frontier"]; got != int64(it.Frontier) {
				t.Errorf("iter %d frontier attr = %d, metrics say %d", ip.Iter, got, it.Frontier)
			}
		}
	}
	if iterRows != len(res.Metrics.Iterations) {
		t.Errorf("trace has %d iterations, metrics %d", iterRows, len(res.Metrics.Iterations))
	}

	// Live counters agree with the post-mortem record.
	if got := sum.Counters[obs.CtrEdgesStreamed]; got != res.Metrics.EdgesStreamed() {
		t.Errorf("edges_streamed counter = %d, metrics %d", got, res.Metrics.EdgesStreamed())
	}
	if got := sum.Counters[obs.CtrVisited]; got != int64(res.Visited) {
		t.Errorf("visited counter = %d, result %d", got, res.Visited)
	}
	if got := sum.Counters[obs.CtrCancellations]; got != int64(res.Metrics.Cancellations) {
		t.Errorf("cancellations counter = %d, metrics %d", got, res.Metrics.Cancellations)
	}
	if got := sum.Counters[obs.CtrStayBufferWaits]; got != res.Metrics.StayBufferWaits {
		t.Errorf("stay_buffer_waits counter = %d, metrics %d", got, res.Metrics.StayBufferWaits)
	}

	// The expected §III phases all appear.
	want := map[string]bool{"load": false, "gather": false, "scatter": false, "shuffle": false, "stay-write": false}
	for _, ph := range sum.Phases {
		if _, ok := want[ph]; ok {
			want[ph] = true
		} else {
			t.Errorf("unexpected phase %q", ph)
		}
	}
	for ph, seen := range want {
		if !seen {
			t.Errorf("phase %q missing from trace", ph)
		}
	}
}

// TestTraceInMemoryPath checks the in-memory fast path emits a coherent
// trace too (wall-clock here: no sim, durations are real seconds).
func TestTraceInMemoryPath(t *testing.T) {
	m, edges, err := gen.BinaryTree(255)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	col := &obs.Collect{}
	opts := Options{Base: xstream.Options{Tracer: obs.New(col)}} // default 1 GiB budget → in-memory
	res, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(col.Events())
	var iterRows int
	for _, ip := range sum.Iters {
		if ip.Iter >= 0 {
			iterRows++
		}
	}
	if iterRows != len(res.Metrics.Iterations) {
		t.Errorf("trace has %d iterations, metrics %d", iterRows, len(res.Metrics.Iterations))
	}
	// The in-memory trim path shows up as the stay-write phase.
	found := false
	for _, ph := range sum.Phases {
		if ph == "stay-write" {
			found = true
		}
	}
	if !found {
		t.Errorf("in-memory trim not traced; phases = %v", sum.Phases)
	}
}
