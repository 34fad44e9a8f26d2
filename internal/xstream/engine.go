package xstream

import (
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/stream"
)

// EngineName identifies X-Stream in metrics and file prefixes.
const EngineName = "xstream"

// RunInMemory is the fast path when the whole graph fits the memory
// budget: one streaming load of the edge list, then pure in-memory
// iterations (the paper's Fig. 9 cliff at 4 GB). The trim callback, when
// non-nil, lets FastBFS compact the in-memory edge array each iteration;
// X-Stream passes nil and rescans everything. engineName labels the
// metrics record.
func RunInMemory(rt *Runtime, engineName string, trim func(edges []graph.Edge, level []uint32) []graph.Edge) (*Result, error) {
	run := metrics.Run{Engine: engineName, SwitchIteration: -1}
	tr := rt.Tracer()
	ctr := obs.NewEngineCounters(tr)
	runSpan := tr.Span("run").Attr("in_memory", 1)
	lds := runSpan.Child("load")

	// One full sequential load of the dataset.
	sc, err := stream.NewEdgeScanner(rt.Vol, graph.EdgeFileName(rt.Meta.Name), rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	// The loaded edge list lives in a stream.Resident — the same
	// representation the FastBFS residency cache promotes partitions
	// into — so the in-memory path is "everything resident from the
	// start" rather than a separate structure.
	live := stream.NewResident(int64(rt.Meta.Edges))
	for {
		e, ok, err := sc.Next()
		if err != nil {
			sc.Close()
			return nil, err
		}
		if !ok {
			break
		}
		if err := rt.Meta.CheckEdge(e); err != nil {
			sc.Close()
			return nil, err
		}
		if err := live.Append(e); err != nil {
			sc.Close()
			return nil, err
		}
	}
	rt.BytesRead += sc.BytesRead()
	sc.Close()
	ctr.BytesRead.Set(rt.BytesRead)
	lds.Attr("edges", live.Count()).End()

	level := make([]uint32, rt.Meta.Vertices)
	parent := make([]graph.VertexID, rt.Meta.Vertices)
	for i := range level {
		level[i] = NoLevel
		parent[i] = graph.NoVertex
	}
	rt.Compute(float64(rt.Meta.Vertices) * rt.Costs.PerVertex)
	level[rt.Opts.Root] = 0
	parent[rt.Opts.Root] = rt.Opts.Root
	visited := uint64(1)
	ctr.Visited.Add(1)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(rt.Meta.Vertices) + 1
	}
	// The in-memory path has no destination partitions to route by, so
	// the pool's shards hold a single slot; chunk-order merge still
	// reproduces the sequential update order exactly.
	pool := stream.NewScatterPool(rt.Opts.ScatterWorkers, rt.Opts.StreamBufSize/graph.EdgeBytes, 1)
	pool.ChunkCounter = ctr.ScatterChunks
	pool.BusyCounter = ctr.ScatterBusyNs
	pool.FaultHook = rt.Opts.FaultHook
	ctr.ScatterWorkers.Set(int64(pool.Workers()))
	for iter := uint32(0); int(iter) < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		itSpan := runSpan.Child("iteration").SetIter(int(iter))
		ctr.Iteration.Set(int64(iter))
		itRow := metrics.Iteration{Index: int(iter), Frontier: 0}
		ss := itSpan.Child("scatter")
		edges := live.Edges()
		var updates []graph.Update
		err := pool.RunSlice(edges, func(chunk []graph.Edge, out *stream.Shard) {
			for _, e := range chunk {
				if level[e.Src] == iter {
					out.ByPart[0] = append(out.ByPart[0], graph.Update{Dst: e.Dst, Parent: e.Src})
				}
			}
		}, func(s *stream.Shard) error {
			updates = append(updates, s.ByPart[0]...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		itRow.EdgesStreamed = int64(len(edges))
		ctr.Edges.Add(int64(len(edges)))
		ctr.UpdatesEmitted.Add(int64(len(updates)))
		rt.RAMScan(live.Bytes())
		rt.Compute(float64(len(edges))*rt.Costs.ScatterPerEdge + float64(len(updates))*rt.Costs.AppendPerUpdate)
		ss.Attr("edges", int64(len(edges))).Attr("emitted", int64(len(updates))).End()
		gs := itSpan.Child("gather")
		var newly uint64
		for _, u := range updates {
			if level[u.Dst] == NoLevel {
				level[u.Dst] = iter + 1
				parent[u.Dst] = u.Parent
				newly++
			}
		}
		rt.Compute(float64(len(updates)) * rt.Costs.GatherPerUpdate)
		gs.Attr("applied", int64(len(updates))).End()
		ctr.UpdatesApplied.Add(int64(len(updates)))
		ctr.Visited.Add(int64(newly))
		visited += newly
		itRow.Updates = int64(len(updates))
		itRow.NewlyVisited = newly
		if trim != nil {
			ts := itSpan.Child("stay-write")
			before := len(edges)
			live.Replace(trim(edges, level))
			kept := int(live.Count())
			itRow.StayEdges = int64(kept)
			itRow.TrimActive = true
			run.TrimmedEdges += int64(before - kept)
			rt.Compute(float64(before) * rt.Costs.AppendPerStay)
			ts.Attr("stay_edges", int64(kept)).End()
			ctr.StayEdges.Add(int64(kept))
		}
		run.Iterations = append(run.Iterations, itRow)
		ctr.Frontier.Set(int64(newly))
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(newly)).
			Attr("edges", itRow.EdgesStreamed).End()
		tr.EmitCounters()
		if len(updates) == 0 {
			break
		}
	}
	runSpan.Attr("visited", int64(visited)).End()
	tr.EmitCounters()

	res := &Result{Levels: level, Parents: parent, Visited: visited}
	rt.TranslateResult(res)
	run.Visited = visited
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}
