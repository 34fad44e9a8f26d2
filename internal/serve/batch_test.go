package serve_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
)

// Batch execution tests (DESIGN.md §13). Run with -race: the batcher is
// shared mutable state between every Submit and the runner goroutines.

// refBFSCapped is refBFS with an iteration cap, for batches grouped on
// MaxIterations.
func refBFSCapped(t *testing.T, e serve.Engine, vol storage.Volume, name string, root graph.VertexID, maxIter int) ([]uint32, []graph.VertexID) {
	t.Helper()
	o := smallBase()
	o.Base.Root = root
	o.Base.MaxIterations = maxIter
	res, err := runEngine(context.Background(), e, vol, name, o)
	if err != nil {
		t.Fatalf("reference %s bfs from %d (cap %d): %v", e, root, maxIter, err)
	}
	return res.Levels, res.Parents
}

// TestBatchedQueriesMatchSerialRuns is the equivalence property the
// whole feature stands on: K concurrent queries answered through the
// batcher return levels AND parents byte-identical to their serial
// standalone runs — across batch sizes {1, 7, 32}, duplicate roots,
// both batchable engines, and mixed MaxIterations groups. The cache is
// disabled so every query actually rides a batch.
func TestBatchedQueriesMatchSerialRuns(t *testing.T) {
	vol, m := storedGraph(t)
	for _, bs := range []int{1, 7, 32} {
		t.Run(fmt.Sprintf("size%d", bs), func(t *testing.T) {
			svc, err := newService(vol, m.Name, serve.Config{
				MaxInFlight: 2, MaxQueue: 64, CacheEntries: -1,
				BatchSize: bs, BatchWait: 30 * time.Millisecond,
				Base: smallBase(),
			})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()

			const K = 24
			queries := make([]serve.Query, K)
			for i := range queries {
				queries[i] = serve.Query{
					Algorithm: serve.AlgoBFS,
					Engine:    []serve.Engine{serve.EngineFastBFS, serve.EngineXStream}[i%2],
					// 8 distinct roots over 24 queries: every root is
					// submitted concurrently by several queries.
					Root: graph.VertexID((i % 8) * 7),
					// Capped queries ride along but must take the solo
					// path: the algo engine's cap semantics differ from
					// the BFS engines', so batching them would break
					// byte-identity with their standalone runs.
					MaxIterations: []int{0, 0, 0, 2}[i%4],
				}
			}
			results := make([]outcome, K)
			var wg sync.WaitGroup
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q serve.Query) {
					defer wg.Done()
					res, err := svc.Submit(context.Background(), q)
					results[i] = outcome{res, err}
				}(i, q)
			}
			wg.Wait()

			for i, out := range results {
				q := queries[i]
				if out.err != nil {
					t.Fatalf("query %d (%s root %d cap %d): %v", i, q.Engine, q.Root, q.MaxIterations, out.err)
				}
				wantLv, wantPar := refBFSCapped(t, q.Engine, vol, m.Name, q.Root, q.MaxIterations)
				if !reflect.DeepEqual(out.res.Levels, wantLv) {
					t.Errorf("query %d (%s root %d cap %d): batched levels differ from serial run", i, q.Engine, q.Root, q.MaxIterations)
				}
				if !reflect.DeepEqual(out.res.Parents, wantPar) {
					t.Errorf("query %d (%s root %d cap %d): batched parents differ from serial run", i, q.Engine, q.Root, q.MaxIterations)
				}
				if out.res.Batched != (q.MaxIterations == 0) {
					t.Errorf("query %d (cap %d): Batched = %v; uncapped queries batch, capped ones go solo", i, q.MaxIterations, out.res.Batched)
				}
			}

			const uncapped = K * 3 / 4 // i%4 == 3 carries a cap
			st := svc.Stats()
			if st.BatchQueries != uncapped {
				t.Errorf("BatchQueries = %d, want %d", st.BatchQueries, uncapped)
			}
			if st.BatchRuns < 1 || st.BatchRuns > K {
				t.Errorf("BatchRuns = %d out of range [1,%d]", st.BatchRuns, K)
			}
			if bs > 1 && st.BatchCoalesced == 0 {
				t.Errorf("no coalesced queries at batch size %d with %d concurrent submits", bs, K)
			}
			if st.Completed != K {
				t.Errorf("Completed = %d, want %d", st.Completed, K)
			}
			if st.DeviceBytes <= 0 {
				t.Error("DeviceBytes not accounted for batch runs")
			}
			if bs > 1 && st.BatchBytesSaved <= 0 {
				t.Errorf("BatchBytesSaved = %d at batch size %d", st.BatchBytesSaved, bs)
			}

			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			assertOnlyDataset(t, vol, m)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines grew %d -> %d across the drained batched load", before, after)
			}
		})
	}
}

// TestBatchFillsResultCache: a root first answered inside a batch must
// hit the LRU cache on its next submission (satellite: demuxed results
// populate the cache per-root).
func TestBatchFillsResultCache(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := newService(vol, m.Name, serve.Config{
		MaxInFlight: 2, MaxQueue: 32, CacheEntries: 32,
		BatchSize: 8, BatchWait: 30 * time.Millisecond,
		Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	roots := []graph.VertexID{3, 9, 9, 27, 27, 27} // duplicates share a batch bit
	var wg sync.WaitGroup
	for _, r := range roots {
		wg.Add(1)
		go func(r graph.VertexID) {
			defer wg.Done()
			if _, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: r}); err != nil {
				t.Errorf("batched submit root %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()

	base := svc.Stats()
	for _, r := range []graph.VertexID{3, 9, 27} {
		res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: r})
		if err != nil {
			t.Fatalf("repeat root %d: %v", r, err)
		}
		if !res.Cached {
			t.Errorf("repeat root %d missed the cache after a batched answer", r)
		}
		if res.Batched {
			t.Errorf("repeat root %d: cache hit claims batch provenance", r)
		}
		ref := refBFS(t, serve.EngineFastBFS, vol, m.Name, r)
		if !reflect.DeepEqual(res.Levels, ref.Levels) || !reflect.DeepEqual(res.Parents, ref.Parents) {
			t.Errorf("root %d: cached batch result differs from serial run", r)
		}
	}
	if st := svc.Stats(); st.CacheHits != base.CacheHits+3 {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, base.CacheHits+3)
	}
}

// batchGate pins batch runs (working-file prefix "b") mid-write so
// member cancellation can be exercised while the shared run is
// observably in flight.
func newBatchGate(vol *storage.Mem) *writeGate {
	g := &writeGate{gate: make(chan struct{})}
	g.on.Store(true)
	vol.FailWrites(func(name string, written int64) error {
		if g.on.Load() && strings.HasPrefix(name, "b") {
			<-g.gate
		}
		return nil
	})
	return g
}

// TestBatchMemberCancellationIsTruthful: a member cancelled while its
// batch is in flight reports its own cancellation immediately; the
// batch keeps running and delivers correct results to the survivors.
func TestBatchMemberCancellationIsTruthful(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := newService(vol, m.Name, serve.Config{
		MaxInFlight: 1, MaxQueue: 8, CacheEntries: -1,
		BatchSize: 8, BatchWait: 50 * time.Millisecond,
		Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := newBatchGate(vol)

	victimCtx, cancelVictim := context.WithCancel(context.Background())
	var victim, survivor outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res, err := svc.Submit(victimCtx, serve.Query{Algorithm: serve.AlgoBFS, Root: 5})
		victim = outcome{res, err}
	}()
	go func() {
		defer wg.Done()
		res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 11})
		survivor = outcome{res, err}
	}()

	// Both members join one batch; the gate holds its run mid-write.
	waitFor(t, func() bool { return svc.Stats().BatchQueries == 2 }, "batch to start executing")
	cancelVictim()
	waitFor(t, func() bool { return svc.Stats().BatchEvicted == 1 }, "victim to leave the batch")
	gate.release()
	wg.Wait()

	if !errors.Is(victim.err, errs.ErrCancelled) || !errors.Is(victim.err, context.Canceled) {
		t.Errorf("victim err = %v, want ErrCancelled wrapping context.Canceled", victim.err)
	}
	if victim.res != nil {
		t.Error("cancelled member still received a result")
	}
	if survivor.err != nil {
		t.Fatalf("survivor: %v", survivor.err)
	}
	ref := refBFS(t, serve.EngineFastBFS, vol, m.Name, 11)
	if !reflect.DeepEqual(survivor.res.Levels, ref.Levels) || !reflect.DeepEqual(survivor.res.Parents, ref.Parents) {
		t.Error("survivor's result differs from its serial run after a co-member cancelled")
	}
	st := svc.Stats()
	if st.Cancelled != 1 || st.Completed != 1 {
		t.Errorf("cancelled=%d completed=%d, want 1 and 1", st.Cancelled, st.Completed)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	assertOnlyDataset(t, vol, m)
}

// TestBatchAbandonment: when every member leaves, the shared run is
// cancelled (errs.ErrBatchAbandoned as the cause) instead of computing
// for nobody, working files are reclaimed, and the service keeps
// serving.
func TestBatchAbandonment(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := newService(vol, m.Name, serve.Config{
		MaxInFlight: 1, MaxQueue: 8, CacheEntries: -1,
		BatchSize: 8, BatchWait: 50 * time.Millisecond,
		Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := newBatchGate(vol)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errsCh := make(chan error, 2)
	for _, r := range []graph.VertexID{4, 8} {
		wg.Add(1)
		go func(r graph.VertexID) {
			defer wg.Done()
			_, err := svc.Submit(ctx, serve.Query{Algorithm: serve.AlgoBFS, Root: r})
			errsCh <- err
		}(r)
	}
	waitFor(t, func() bool { return svc.Stats().BatchQueries == 2 }, "batch to start executing")
	cancel()
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("abandoning member err = %v, want ErrCancelled", err)
		}
	}
	gate.release()
	if st := svc.Stats(); st.BatchEvicted != 2 {
		t.Errorf("BatchEvicted = %d, want 2", st.BatchEvicted)
	}

	// The abandoned run's cancellation must not poison later queries.
	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Root: 4})
	if err != nil {
		t.Fatalf("submit after abandonment: %v", err)
	}
	ref := refBFS(t, serve.EngineFastBFS, vol, m.Name, 4)
	if !reflect.DeepEqual(res.Levels, ref.Levels) || !reflect.DeepEqual(res.Parents, ref.Parents) {
		t.Error("post-abandonment result differs from serial run")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	assertOnlyDataset(t, vol, m)
}

// TestBatchGraphChiBypass: graphchi queries take the solo path even
// with batching on — its traversal order yields different (valid)
// parent trees, and batching promises byte-identity with the query's
// own engine.
func TestBatchGraphChiBypass(t *testing.T) {
	vol, m := storedGraph(t)
	svc, err := newService(vol, m.Name, serve.Config{
		MaxInFlight: 2, MaxQueue: 8, CacheEntries: -1,
		BatchSize: 32, BatchWait: 10 * time.Millisecond,
		Base: smallBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	res, err := svc.Submit(context.Background(), serve.Query{Algorithm: serve.AlgoBFS, Engine: serve.EngineGraphChi, Root: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batched {
		t.Error("graphchi query was batched")
	}
	ref := refBFS(t, serve.EngineGraphChi, vol, m.Name, 6)
	if !reflect.DeepEqual(res.Levels, ref.Levels) || !reflect.DeepEqual(res.Parents, ref.Parents) {
		t.Error("graphchi bypass result differs from serial run")
	}
	if st := svc.Stats(); st.BatchQueries != 0 {
		t.Errorf("BatchQueries = %d for a graphchi-only load, want 0", st.BatchQueries)
	}
}
