package core

import (
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// runInMemory is the fast path when the whole graph fits the memory
// budget (the paper's Fig. 9 cliff at 4 GB): one streaming load of the
// edge list, then pure in-memory iterations. The loaded edges live in a
// stream.Resident — the representation the residency cache promotes
// partitions into — and the vertex state is one Verts over the whole
// vertex space, so each iteration is the streaming loop's kernel with
// everything resident from the start: the same classify over the RAM
// slice, the same gather-apply, the same trim policy. Only the order
// differs: an iteration scatters level iter, gathers level iter+1, and
// then (trimming on) compacts the edge array to the sources not yet
// expanded — unvisited or just discovered, the streaming trim rule's
// survivors one level later.
func (e *engine) runInMemory() (*Result, error) {
	rt := e.rt
	run := metrics.Run{Engine: e.name, SwitchIteration: -1}
	e.tr = rt.Tracer()
	e.ctr = obs.NewEngineCounters(e.tr)
	runSpan := e.tr.Span("run").Attr("in_memory", 1)
	lds := runSpan.Child("load")
	live, err := e.loadResident()
	if err != nil {
		return nil, err
	}
	e.ctr.BytesRead.Set(rt.BytesRead)
	lds.Attr("edges", live.Count()).End()

	n := rt.Meta.Vertices
	v := &xstream.Verts{Level: make([]uint32, n), Parent: make([]graph.VertexID, n)}
	for i := range v.Level {
		v.Level[i] = xstream.NoLevel
		v.Parent[i] = graph.NoVertex
	}
	rt.Compute(float64(n) * rt.Costs.PerVertex)
	rt.MarkRoot(v)
	// The whole-graph state is the engine's one partition.
	e.parts = make([]partState, 1)
	e.visited = 1
	e.ctr.Visited.Add(1)

	maxIter := rt.Opts.MaxIterations
	if maxIter <= 0 {
		maxIter = int(n) + 1
	}
	e.pool = rt.NewScatterPool(e.ctr)
	var ups updateList
	for iter := 0; iter < maxIter; iter++ {
		if err := rt.Checkpoint(); err != nil {
			return nil, err
		}
		itSpan := runSpan.Child("iteration").SetIter(iter)
		e.ctr.Iteration.Set(int64(iter))
		itRow := metrics.Iteration{Index: iter}
		ss := itSpan.Child("scatter")
		edges := live.Edges()
		ups = ups[:0]
		scanned, emitted, _, err := e.scatter(v, nil, edges, uint32(iter), &ups, nil)
		if err != nil {
			return nil, err
		}
		ss.Attr("edges", scanned).Attr("emitted", emitted).End()
		itRow.EdgesStreamed = scanned
		if err := e.gather(&e.parts[0], v, "", ups, uint32(iter)+1, &itRow, itSpan.Child("gather"), nil); err != nil {
			return nil, err
		}
		if !e.opts.DisableTrimming {
			ts := itSpan.Child("stay-write")
			if e.trimActive(iter) {
				// NoLevel is the maximum uint32, so "level >= iter+1"
				// keeps exactly the unvisited and just-discovered sources.
				kept := edges[:0]
				for _, edge := range edges {
					if v.Level[edge.Src] >= uint32(iter)+1 {
						kept = append(kept, edge)
					}
				}
				live.Replace(kept)
			}
			stays := live.Count()
			itRow.StayEdges = stays
			itRow.TrimActive = true
			e.trimmed += scanned - stays
			rt.Compute(float64(scanned) * rt.Costs.AppendPerStay)
			ts.Attr("stay_edges", stays).End()
			e.ctr.StayEdges.Add(stays)
		}
		run.Iterations = append(run.Iterations, itRow)
		e.ctr.Frontier.Set(int64(itRow.NewlyVisited))
		itSpan.Attr("frontier", int64(itRow.Frontier)).
			Attr("new", int64(itRow.NewlyVisited)).
			Attr("edges", itRow.EdgesStreamed).End()
		e.tr.EmitCounters()
		if len(ups) == 0 {
			break
		}
	}
	runSpan.Attr("visited", int64(e.visited)).End()
	e.tr.EmitCounters()

	res := &Result{Levels: v.Level, Parents: v.Parent, Visited: e.visited}
	rt.TranslateResult(res)
	run.Visited = e.visited
	run.TrimmedEdges = e.trimmed
	rt.FinishMetrics(&run)
	res.Metrics = run
	return res, nil
}

// loadResident reads the whole dataset edge list into RAM in one
// sequential pass, validating every edge against the graph's meta.
func (e *engine) loadResident() (*stream.Resident, error) {
	rt := e.rt
	sc, err := stream.NewEdgeScanner(rt.Vol, graph.EdgeFileName(rt.Meta.Name), rt.MainTiming(), rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	live := stream.NewResident(int64(rt.Meta.Edges))
	for {
		edge, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := rt.Meta.CheckEdge(edge); err != nil {
			return nil, err
		}
		if err := live.Append(edge); err != nil {
			return nil, err
		}
	}
	rt.BytesRead += sc.BytesRead()
	return live, nil
}
