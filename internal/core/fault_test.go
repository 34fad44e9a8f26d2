package core

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Fault-injection tests: storage failures must surface as errors from
// Run — never panics, never silently wrong results — and the engine must
// not leak working files beyond what the failure interrupted.

func storedGraph(t *testing.T) (*storage.Mem, graph.Meta) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

func TestRunSurfacesUpdateWriteFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("update disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_upd") {
			return boom
		}
		return nil
	})
	_, err := envRun(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestRunSurfacesVertexWriteFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("vertex disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_vtx_") {
			return boom
		}
		return nil
	})
	_, err := envRun(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestRunSurvivesStayWriteFailure(t *testing.T) {
	// A failing stay write must NOT fail the run: the stay file is an
	// optimization; the engine falls back to the previous input, exactly
	// like a cancellation.
	vol, m := storedGraph(t)
	boom := errors.New("stay disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			return boom
		}
		return nil
	})
	// Pin the residency cache off: this test is about the stay-file
	// fallback path, which a promoted partition never takes.
	res, err := envRun(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}, ResidencyBudget: ResidencyOff})
	if err != nil {
		t.Fatalf("stay-write failure killed the run: %v", err)
	}
	// Must match a healthy run's result.
	vol2, _ := storedGraph(t)
	want, err := envRun(vol2, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d after stay failures, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("failed stay writes should be recorded as cancellations")
	}
}

func TestRunSurfacesPrepareFailure(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("no space at all")
	vol.FailWrites(func(name string, written int64) error { return boom })
	_, err := envRun(vol, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, Sim: xstream.DefaultSim()}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Only the dataset survives; no half-written working files.
	for _, f := range vol.List() {
		if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) {
			t.Errorf("leftover file %s after failed run", f)
		}
	}
}

func TestParallelScatterFaultAbortsCleanly(t *testing.T) {
	// An update-stream write failing mid-scatter with many workers in
	// flight must surface exactly one error from Run (the injected one,
	// not a panic or a secondary error masking it), abort every shard,
	// and leak no goroutines — the pool joins its workers even on the
	// error path, and the stay writer shuts down behind it.
	warm, wm := storedGraph(t)
	if _, err := envRun(warm, wm.Name, Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	boom := errors.New("update disk full mid-scatter")
	for i := 0; i < 10; i++ {
		vol, m := storedGraph(t)
		var updWrites atomic.Int64
		vol.FailWrites(func(name string, written int64) error {
			// Fail partway into an update stream, once several chunks of
			// shards are already merged and more are in flight. The call
			// count covers wrapped volumes (the FASTBFS_FAULTS chaos cell)
			// that batch a file into one write at publish time, where the
			// offset never advances past the first chunk.
			if strings.Contains(name, "_upd") && (written >= 512 || updWrites.Add(1) >= 3) {
				return boom
			}
			return nil
		})
		_, err := envRun(vol, m.Name, Options{Base: xstream.Options{
			MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
		}})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: err = %v, want the injected fault", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across 10 aborted parallel runs", before, after)
	}
}

func TestParallelScatterSurvivesStayFaults(t *testing.T) {
	// Stay-write failures with multiple scatter workers: still not fatal
	// (the shard merge feeds the stay file on the engine thread; its
	// failure downgrades to a cancellation exactly as in serial mode).
	vol, m := storedGraph(t)
	boom := errors.New("stay disk full")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			return boom
		}
		return nil
	})
	opts := Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}, ResidencyBudget: ResidencyOff} // stay-file path under test: keep partitions on the device
	res, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatalf("stay-write failure killed the parallel run: %v", err)
	}
	vol2, _ := storedGraph(t)
	want, err := envRun(vol2, m.Name, Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, ScatterWorkers: 8, Sim: xstream.DefaultSim(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d after stay failures, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("failed stay writes should be recorded as cancellations")
	}
}

func TestRunSurfacesGatherReadFailure(t *testing.T) {
	// Gather-side fault point: a permanent read fault on an update stream
	// (a dead sector under the gather's input) must fail the run with
	// ErrIOFailed — retrying is pointless — and leak no goroutines even
	// though the failure lands between a partition's gather and its
	// scatter with prefetches in flight.
	warm, wm := storedGraph(t)
	if _, err := envRun(warm, wm.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		vol, m := storedGraph(t)
		faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: uint64(i + 1), PReadP: 1, Match: "_upd"})
		_, err := envRun(faulty, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}})
		if !errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("run %d: err = %v, want ErrIOFailed", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across gather-fault runs", before, after)
	}
}

func TestResidentPromotionFaultAbortsCleanly(t *testing.T) {
	// Resident-promotion fault point: with an unbounded residency budget,
	// iteration 0's scatter captures every partition into RAM — a
	// permanent read fault on the partition edge input mid-capture must
	// surface ErrIOFailed (the error path also refunds the reservation)
	// and leak no goroutines.
	warm, wm := storedGraph(t)
	if _, err := envRun(warm, wm.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}, ResidencyBudget: ResidencyUnbounded}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		vol, m := storedGraph(t)
		// Match only the per-partition working edge files (the promoting
		// scatter's input), not the stored dataset Prepare reads.
		faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: uint64(i + 1), PReadP: 1, Match: "fastbfs_edge_"})
		_, err := envRun(faulty, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}, ResidencyBudget: ResidencyUnbounded})
		if !errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("run %d: err = %v, want ErrIOFailed", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across promotion-fault runs", before, after)
	}
}

func TestRunByteIdenticalUnderTransientFaults(t *testing.T) {
	// The PR's acceptance criterion: transient read+write faults at
	// p=0.05 over the whole volume must leave the BFS result
	// byte-identical to the fault-free run, with the retries visible in
	// the run metrics, zero failures past the (deepened) budget, no
	// leaked goroutines and no leaked working files.
	opts := func() Options {
		return Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}
	}
	refVol, m := storedGraph(t)
	want, err := envRun(refVol, m.Name, opts())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	vol, _ := storedGraph(t)
	faulty := storage.NewFaulty(vol, storage.FaultSpec{Seed: 42, ReadP: 0.05, WriteP: 0.05})
	o := opts()
	// p=0.05 makes a default-budget exhaustion (p^4 per op) just likely
	// enough to flake over a whole run; 12 attempts puts it at p^12.
	o.Base.RetryAttempts = 12
	res, err := envRun(faulty, m.Name, o)
	if err != nil {
		t.Fatalf("run under transient faults: %v", err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d under faults, want %d", res.Visited, want.Visited)
	}
	if !slices.Equal(res.Levels, want.Levels) || !slices.Equal(res.Parents, want.Parents) {
		t.Fatal("result not byte-identical to the fault-free run")
	}
	if res.Metrics.IORetries == 0 {
		t.Fatal("no retries recorded under p=0.05 fault injection")
	}
	if res.Metrics.IOFailures != 0 {
		t.Fatalf("%d I/O failures leaked past the retry budget", res.Metrics.IOFailures)
	}
	// Zero file leaks: only the stored dataset survives the run.
	for _, f := range vol.List() {
		if f != graph.EdgeFileName(m.Name) && f != graph.ConfFileName(m.Name) && f != graph.ReverseFileName(m.Name) {
			t.Errorf("leftover working file %s", f)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the faulted run", before, after)
	}
}

func TestXStreamSurfacesWriteFailureToo(t *testing.T) {
	vol, m := storedGraph(t)
	boom := errors.New("boom")
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_upd") {
			return boom
		}
		return nil
	})
	_, err := envRunXStream(vol, m.Name, xstream.Options{MemoryBudget: 4096, Sim: xstream.DefaultSim()})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

func TestWallModeCancellationViaSlowWriter(t *testing.T) {
	// Wall-clock mode: delay the real stay-writer goroutine so TryUse
	// times out, exercising the real-time cancellation path end-to-end.
	vol, m := storedGraph(t)
	vol.FailWrites(func(name string, written int64) error {
		if strings.Contains(name, "_stay") {
			// Slow, not failing: the hook runs on the writer goroutine.
			time.Sleep(3 * time.Millisecond)
		}
		return nil
	})
	opts := Options{
		Base:      xstream.Options{MemoryBudget: 4096, StreamBufSize: 256},
		GraceWall: 1, // nanoseconds: effectively immediate timeout
		// Keep partitions on the device: a promoted partition never
		// writes the stay file this test slows down.
		ResidencyBudget: ResidencyOff,
	}
	res, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	vol2, _ := storedGraph(t)
	want, err := envRun(vol2, m.Name, Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != want.Visited {
		t.Fatalf("visited %d with slow stay writer, want %d", res.Visited, want.Visited)
	}
	if res.Metrics.Cancellations == 0 {
		t.Fatal("expected wall-mode cancellations with a slow stay writer and ~zero grace")
	}
}
