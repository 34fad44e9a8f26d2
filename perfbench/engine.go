package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fastbfs"
	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/xstream"
)

// size holds the input sizes of every workload; the tests run the same
// code on tinySize.
type size struct {
	rmatScale, rmatEdgeFactor   int
	pathLen                     uint64
	serveScale, serveEdgeFactor int
	// setupReps is how often set-up runs at least; setup_s is the
	// median. Set-ups shorter than a few milliseconds repeat until
	// minSetupTotal has passed, so their median is steady too.
	setupReps int
	// simQueries is how many of the measured roots the untimed
	// simulated-testbed pass replays (traced runs only).
	simQueries int
	serve      serveSize
}

var fullSize = size{
	rmatScale: 16, rmatEdgeFactor: 16,
	pathLen:    400,
	serveScale: 14, serveEdgeFactor: 8,
	setupReps:  3,
	simQueries: 3,
	serve:      fullServe,
}

var tinySize = size{
	rmatScale: 9, rmatEdgeFactor: 8,
	pathLen:    60,
	serveScale: 8, serveEdgeFactor: 8,
	setupReps:  2,
	simQueries: 1,
	serve:      tinyServe,
}

// minSetupTotal is the least total time set-up repeats for, and
// maxSetupReps bounds the repetitions.
const (
	minSetupTotal = time.Second
	maxSetupReps  = 1000
)

// setUpMore reports whether set-up should run again after the given
// durations (seconds).
func setUpMore(cfg runConfig, times []float64) bool {
	return len(times) < cfg.size.setupReps || sumF(times) < minSetupTotal.Seconds() && len(times) < maxSetupReps
}

// simFactor scales the simulated HDD's positioning cost down to the
// benchmark's graph sizes, as cmd/benchfig's "small" scale does.
const simFactor = 2048

// engineSpec describes one engine workload.
type engineSpec struct {
	generate func(cfg runConfig) (fastbfs.Meta, []fastbfs.Edge, error)
	store    fastbfs.StoreOptions
	// budget picks the memory budget from the stored graph's metadata.
	budget func(stored fastbfs.Meta) uint64
	// roots picks the query roots.
	roots func(cfg runConfig, m fastbfs.Meta, edges []fastbfs.Edge) []fastbfs.VertexID
}

// graphSeed generates the R-MAT graphs. The graph is fixed; the
// workload seed draws what a caller chooses: roots, the hot set and the
// arrival schedule.
const graphSeed = 42

func rmatGraph(cfg runConfig) (fastbfs.Meta, []fastbfs.Edge, error) {
	return fastbfs.GenerateRMAT(cfg.size.rmatScale, cfg.size.rmatEdgeFactor, graphSeed)
}

// rmatStore is how cmd/gengraph -codec delta -reorder stores a graph.
var rmatStore = fastbfs.StoreOptions{Codec: fastbfs.CodecDelta, Reverse: true, ReorderByDegree: true}

// seededRoots returns up to 256 distinct roots with at least one
// out-edge, in an order drawn from the seed.
func seededRoots(cfg runConfig, m fastbfs.Meta, edges []fastbfs.Edge) []fastbfs.VertexID {
	deg := graph.Degrees(m.Vertices, edges)
	rng := rand.New(rand.NewSource(cfg.seed))
	var roots []fastbfs.VertexID
	for _, v := range rng.Perm(int(m.Vertices)) {
		if deg[v] > 0 {
			roots = append(roots, fastbfs.VertexID(v))
			if len(roots) == 256 {
				break
			}
		}
	}
	return roots
}

var rmatStreamSpec = engineSpec{
	generate: rmatGraph,
	store:    rmatStore,
	// A tenth of the stored graph: far below the in-memory threshold,
	// so every query streams its partitions from the volume.
	budget: func(m fastbfs.Meta) uint64 { return m.StoredBytes / 10 },
	roots:  seededRoots,
}

var rmatInMemSpec = engineSpec{
	generate: rmatGraph,
	store:    rmatStore,
	budget:   func(fastbfs.Meta) uint64 { return 1 << 30 },
	roots:    seededRoots,
}

// pathDeepSpec is the high-diameter graph of the abl-trimstart
// ablation: a path 0→1→…→n-1 plus a back edge v→v/2 from every even
// vertex. BFS from 0 takes one level per vertex. The graph has no
// random part, so the seed does not change it.
var pathDeepSpec = engineSpec{
	generate: func(cfg runConfig) (fastbfs.Meta, []fastbfs.Edge, error) {
		n := cfg.size.pathLen
		edges := make([]fastbfs.Edge, 0, n-1+n/2)
		for v := uint64(0); v+1 < n; v++ {
			edges = append(edges, fastbfs.Edge{Src: fastbfs.VertexID(v), Dst: fastbfs.VertexID(v + 1)})
		}
		for v := uint64(2); v < n; v += 2 {
			edges = append(edges, fastbfs.Edge{Src: fastbfs.VertexID(v), Dst: fastbfs.VertexID(v / 2)})
		}
		return fastbfs.Meta{Name: fmt.Sprintf("pathdeep%d", n), Vertices: n, Edges: uint64(len(edges))}, edges, nil
	},
	store: fastbfs.StoreOptions{Codec: fastbfs.CodecFixed, Reverse: true},
	budget: func(m fastbfs.Meta) uint64 {
		// A tenth of the fixed-width edge list, but at least one page.
		return max(m.DataBytes()/10, 4096)
	},
	roots: func(runConfig, fastbfs.Meta, []fastbfs.Edge) []fastbfs.VertexID {
		return []fastbfs.VertexID{0}
	},
}

func runRMATStream(ctx context.Context, cfg runConfig) (*report, error) {
	return runEngine(ctx, cfg, rmatStreamSpec)
}

func runRMATInMem(ctx context.Context, cfg runConfig) (*report, error) {
	return runEngine(ctx, cfg, rmatInMemSpec)
}

func runPathDeep(ctx context.Context, cfg runConfig) (*report, error) {
	return runEngine(ctx, cfg, pathDeepSpec)
}

// engineOptions pins every engine option the benchmark depends on, so
// no library default or environment variable decides them.
func engineOptions(budget uint64, codec fastbfs.Codec) fastbfs.Options {
	return fastbfs.Options{
		Base: fastbfs.EngineOptions{
			MemoryBudget:    budget,
			Threads:         4,
			StreamBufSize:   1 << 20,
			PrefetchBuffers: 2,
			ScatterWorkers:  workers(),
			Direction:       xstream.DirectionTopDown,
			Codec:           codec,
			Sim:             nil, // wall clock
		},
		ResidencyBudget: core.ResidencyOff,
		StayBufCount:    8,
		GraceWall:       50 * time.Millisecond,
	}
}

// storedGraph is a workload graph after set-up.
type storedGraph struct {
	meta  fastbfs.Meta // as stored (codec, stored bytes)
	edges []fastbfs.Edge
	vol   fastbfs.Volume
	dir   string
}

// storeGraph generates the workload graph and stores it on an OS
// volume under dir.
func storeGraph(ctx context.Context, cfg runConfig, dir string, generate func(runConfig) (fastbfs.Meta, []fastbfs.Edge, error), opts fastbfs.StoreOptions) (*storedGraph, error) {
	m, edges, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	vol, err := fastbfs.NewOSVolume(dir)
	if err != nil {
		return nil, err
	}
	if err := fastbfs.StoreGraph(ctx, vol, m, edges, opts); err != nil {
		return nil, err
	}
	return &storedGraph{meta: m, edges: edges, vol: vol, dir: dir}, nil
}

// loadStoredMeta replaces g.meta with the stored metadata (codec,
// stored bytes); it is read after set-up is timed.
func (g *storedGraph) loadStoredMeta() error {
	m, err := fastbfs.LoadMeta(g.vol, g.meta.Name)
	g.meta = m
	return err
}

// engineRun is the state of one engine workload run.
type engineRun struct {
	cfg   runConfig
	g     *storedGraph
	opts  fastbfs.Options
	roots []fastbfs.VertexID
	next  int
	csr   *bfs.CSR
	rep   *report
	// tv wraps the graph's volume for traced queries; events collects
	// their spans, renumbered so IDs stay unique across queries.
	tv     *timedVolume
	events []obs.Event
	lastID int64
	// csrMS collects the reference BFS times, the in-memory floor.
	csrMS []float64
}

// phase is what one measured loop observed.
type phase struct {
	latMS []float64
	rt    rtCounters
	// Traced loops only:
	io         ioTotals
	spans      *spanTotals
	iterations int
	edges      int64
	skipped    int
	emitted    int64
	newly      int64
	stayBytes  int64
	stayFiles  int
	cancelled  int
	inMemLoad  float64 // ms
	inMemIters float64 // ms
	runSpanMS  float64
}

func runEngine(ctx context.Context, cfg runConfig, spec engineSpec) (*report, error) {
	// Set-up runs several times, each into a fresh directory; setup_s is
	// the median and the last copy is measured. Like serve-mixed's
	// warm-up, each set-up ends with one query that query_ms does not
	// count, so the first query's one-off costs (page cache, heap
	// growth) are paid here. It also keeps path-deep's set-up, whose
	// graph is stored in well under a millisecond, from being a handful
	// of file-system calls whose cost swings with the host.
	var g *storedGraph
	var opts fastbfs.Options
	var roots []fastbfs.VertexID
	var setupTimes []float64
	for i := 0; setUpMore(cfg, setupTimes); i++ {
		if g != nil {
			if err := os.RemoveAll(g.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		g, err = storeGraph(ctx, cfg, filepath.Join(cfg.workdir, fmt.Sprintf("graph%d", i)), spec.generate, spec.store)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := g.loadStoredMeta(); err != nil {
			return nil, err
		}
		roots = spec.roots(cfg, g.meta, g.edges)
		if len(roots) == 0 {
			return nil, fmt.Errorf("graph %s has no vertex with an out-edge", g.meta.Name)
		}
		opts = engineOptions(spec.budget(g.meta), g.meta.Codec)
		opts.Base.Root = roots[len(roots)-1]
		if _, err := fastbfs.Run(ctx, fastbfs.EngineFastBFS, g.vol, g.meta.Name, opts); err != nil {
			return nil, fmt.Errorf("set-up warm-up query: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	csr, err := bfs.BuildCSR(g.meta, g.edges)
	if err != nil {
		return nil, err
	}
	e := &engineRun{
		cfg:   cfg,
		g:     g,
		opts:  opts,
		roots: roots,
		csr:   csr,
		rep:   &report{endToEnd: metricSet{}, perLayer: metricSet{}},
	}
	rep := e.rep
	rep.note("graph %s: %d vertices, %d edges, codec %s; memory budget %d bytes; set-up ran %d times",
		g.meta.Name, g.meta.Vertices, g.meta.Edges, g.meta.Codec, e.opts.Base.MemoryBudget, len(setupTimes))

	if !cfg.trace {
		p, _ := e.measure(ctx, cfg.seconds, false)
		n := len(p.latMS)
		rep.note("%d queries measured", n)
		m := rep.endToEnd
		m.set("setup_s", median(setupTimes), "s")
		m.set("query_ms.p50", median(p.latMS), "ms")
		m.set("query_ms.p90", quantile(p.latMS, 0.9), "ms")
		m.set("alloc_mb_per_query", ratio(float64(p.rt.allocBytes)/1e6, float64(n)), "MB")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		m.set("max_qps", ratio(float64(n), sumF(p.latMS)/1e3), "1/s")
		rep.note("fail_ratio %.4g (%d of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
		return rep, nil
	}

	e.tv = newTimedVolume(g.vol)
	base, tr := e.measure(ctx, cfg.seconds, true)
	if err := e.layerMetrics(ctx, base, tr); err != nil {
		return nil, err
	}
	return rep, writeTrace(cfg.traceFile, e.events)
}

// measure runs sequential queries until d has passed, at least one,
// checking every answer outside the timed call. With traced set the
// queries alternate: untraced ones count in base, traced ones in tr, so
// both halves see the same conditions and their difference is the
// tracing overhead.
func (e *engineRun) measure(ctx context.Context, d time.Duration, traced bool) (base, tr *phase) {
	base, tr = &phase{spans: newSpanTotals()}, &phase{spans: newSpanTotals()}
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline) || traced && len(tr.latMS) == 0; i++ {
		if traced && i%2 == 1 {
			e.query(ctx, tr, true)
		} else {
			e.query(ctx, base, false)
		}
	}
	return base, tr
}

// query runs and checks one query from the next root. A traced query
// runs with an engine tracer collecting spans in memory, over the
// timed volume.
func (e *engineRun) query(ctx context.Context, p *phase, traced bool) {
	root := e.roots[e.next%len(e.roots)]
	e.next++
	opts := e.opts
	opts.Base.Root = root
	vol := e.g.vol
	var col *obs.Collect
	var io0 ioTotals
	if traced {
		col = &obs.Collect{}
		opts.Base.Tracer = obs.New(col)
		vol = e.tv
		io0 = e.tv.totals()
	}
	before := sampleRuntime(traced)
	start := time.Now()
	res, err := fastbfs.Run(ctx, fastbfs.EngineFastBFS, vol, e.g.meta.Name, opts)
	lat := time.Since(start)
	p.rt.add(before, sampleRuntime(traced))
	e.rep.attempted++
	if err != nil {
		e.rep.failed++
		e.rep.note("query from root %d failed: %v", root, err)
		return
	}
	p.latMS = append(p.latMS, ms(lat))

	csrStart := time.Now()
	ref := bfs.RunCSR(e.g.meta, e.csr, root)
	e.csrMS = append(e.csrMS, ms(time.Since(csrStart)))
	if err := checkEngineResult(e.g.meta, e.g.edges, root, res, ref); err != nil {
		e.rep.failed++
		e.rep.wrong++
		e.rep.note("wrong answer from root %d: %v", root, err)
	}
	if traced {
		p.io = p.io.add(e.tv.totals().sub(io0))
		evs := col.Events()
		p.fold(evs, &res.Metrics)
		e.keep(evs, fmt.Sprintf("q%d-root%d", e.next-1, root))
	}
}

// keep appends one traced query's events to the run's trace, tagged
// with a per-query trace ID.
func (e *engineRun) keep(evs []obs.Event, trace string) {
	base := e.lastID
	for _, ev := range evs {
		ev.Trace = trace
		if ev.ID != 0 {
			ev.ID += base
			e.lastID = max(e.lastID, ev.ID)
		}
		if ev.Parent != 0 {
			ev.Parent += base
		}
		e.events = append(e.events, ev)
	}
}

// fold adds one traced query's spans and counters to the phase.
func (p *phase) fold(events []obs.Event, run *fastbfs.RunMetrics) {
	p.spans.add(events)
	trimIters := map[int]bool{}
	for _, it := range run.Iterations {
		if it.TrimActive {
			trimIters[it.Index] = true
		}
	}
	var ctr map[string]int64
	inMem := false
	for _, ev := range events {
		switch {
		case ev.Kind == obs.KindCounters:
			ctr = ev.Counters
		case ev.Kind != obs.KindSpan:
		case ev.Name == "scatter" && trimIters[ev.Iter] && ev.Attrs["resident"] == 0:
			p.stayFiles++
		case ev.Name == "run":
			p.runSpanMS += ev.Dur * 1e3
			inMem = ev.Attrs["in_memory"] == 1
		}
	}
	if inMem {
		// The in-memory path's spans: one load, then the iterations.
		t := newSpanTotals()
		t.add(events)
		p.inMemLoad += t.selfMS("load")
		p.inMemIters += t.inclMS("iteration")
	}
	p.iterations += len(run.Iterations)
	p.edges += run.EdgesStreamed()
	p.skipped += run.Skipped
	p.cancelled += run.Cancellations
	p.emitted += ctr[obs.CtrUpdatesEmitted]
	p.newly += int64(run.Visited) - 1
	p.stayBytes += ctr[obs.CtrStayBytes]
}

func (t ioTotals) add(o ioTotals) ioTotals {
	return ioTotals{t.read + o.read, t.written + o.written, t.opens + o.opens, t.creates + o.creates, t.busy + o.busy}
}

// layerMetrics fills the per-layer metrics of a traced engine run.
func (e *engineRun) layerMetrics(ctx context.Context, base, tr *phase) error {
	m := e.rep.perLayer
	n := float64(len(tr.latMS))
	per := func(x float64) float64 { return ratio(x, n) }

	m.set("storage.read_mb_per_query", per(float64(tr.io.read)/1e6), "MB")
	m.set("storage.write_mb_per_query", per(float64(tr.io.written)/1e6), "MB")
	m.set("storage.busy_ms_per_query", per(ms(tr.io.busy)), "ms")
	m.set("storage.opens_per_query", per(float64(tr.io.opens)), "count")

	if err := graphLayer(m, e.g); err != nil {
		return err
	}

	s := tr.spans
	m.set("core.scatter_ms", per(s.selfMS("scatter")), "ms")
	m.set("core.shuffle_ms", per(s.selfMS("shuffle")), "ms")
	m.set("core.gather_ms", per(s.selfMS("gather")), "ms")
	m.set("core.stay_write_ms", per(s.selfMS("stay-write")), "ms")
	m.set("core.load_ms", per(s.selfMS("load")), "ms")
	m.set("core.iteration_self_ms", per(s.selfMS("iteration")), "ms")
	m.set("core.run_self_ms", per(s.selfMS("run")), "ms")
	m.set("core.unattributed_ms", per(sumF(tr.latMS)-tr.runSpanMS), "ms")
	m.set("core.ms_per_level", ratio(sumF(tr.latMS), float64(tr.iterations)), "ms")
	m.set("core.iterations", per(float64(tr.iterations)), "count")
	m.set("core.edges_streamed", per(float64(tr.edges)), "count")
	m.set("core.stay_bytes", per(float64(tr.stayBytes)), "B")
	m.set("core.updates_useful_ratio", ratio(float64(tr.newly), float64(tr.emitted)), "ratio")
	m.set("core.stay_adopted_ratio", ratio(float64(tr.stayFiles-tr.cancelled), float64(tr.stayFiles)), "ratio")
	m.set("core.skipped_partitions", per(float64(tr.skipped)), "count")

	m.set("xstream.inmem_load_ms", per(tr.inMemLoad), "ms")
	m.set("xstream.inmem_traverse_ms", per(tr.inMemIters), "ms")

	floor := median(e.csrMS)
	m.set("bfs.csr_ms.p50", floor, "ms")
	m.set("bfs.floor_ratio", ratio(median(base.latMS), floor), "ratio")

	if err := e.simLayer(ctx, m); err != nil {
		return err
	}
	tr.rt.setRuntimeLayer(m, len(tr.latMS))
	m.set("trace.overhead_ms", median(tr.latMS)-median(base.latMS), "ms")

	e.rep.note("%d untraced and %d traced queries; untraced p50 %.3f ms, traced p50 %.3f ms",
		len(base.latMS), len(tr.latMS), median(base.latMS), median(tr.latMS))
	e.rep.note("per traced query: run span %.3f ms of %.3f ms wall; storage busy %.3f ms",
		per(tr.runSpanMS), per(sumF(tr.latMS)), per(ms(tr.io.busy)))
	return nil
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// graphLayer times decoding the stored edge file through graph's
// reader (median of three passes) and reports the stored size.
func graphLayer(m metricSet, g *storedGraph) error {
	var ns []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, edges, err := graph.LoadEdges(g.vol, g.meta.Name)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", g.meta.Name, err)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(edges)))
	}
	size, err := g.vol.Size(graph.EdgeFileName(g.meta.Name))
	if err != nil {
		return err
	}
	m.set("graph.decode_ns_per_edge", median(ns), "ns/edge")
	m.set("graph.stored_bytes_per_edge", float64(size)/float64(g.meta.Edges), "B/edge")
	return nil
}

// simLayer replays the first measured roots on the simulated testbed,
// untimed, over an in-memory copy of the graph: the paper's yardstick
// (execution time, bytes moved, iowait ratio), on the virtual clock.
func (e *engineRun) simLayer(ctx context.Context, m metricSet) error {
	vol := fastbfs.NewMemVolume()
	if err := fastbfs.StoreGraph(ctx, vol, e.g.meta, e.g.edges, fastbfs.StoreOptions{
		Codec: e.g.meta.Codec, Reverse: true, ReorderByDegree: e.g.meta.Reordered,
	}); err != nil {
		return err
	}
	var exec, iowait, read, written float64
	k := min(e.cfg.size.simQueries, len(e.roots))
	for _, root := range e.roots[:k] {
		opts := e.opts
		opts.Base.Root = root
		opts.Base.Sim = fastbfs.ScaledSim(simFactor)
		res, err := fastbfs.Run(ctx, fastbfs.EngineFastBFS, vol, e.g.meta.Name, opts)
		if err != nil {
			return fmt.Errorf("simulated run from root %d: %w", root, err)
		}
		exec += res.Metrics.ExecTime
		iowait += res.Metrics.IOWait
		read += float64(res.Metrics.BytesRead)
		written += float64(res.Metrics.BytesWritten)
	}
	kf := float64(k)
	m.set("disksim.exec_s", exec/kf, "s")
	m.set("disksim.read_mb", read/kf/1e6, "MB")
	m.set("disksim.written_mb", written/kf/1e6, "MB")
	m.set("disksim.iowait_ratio", ratio(iowait, exec), "ratio")
	return nil
}
