// Package xstream holds the scaffolding of the X-Stream edge-centric
// graph engine (Roy et al., SOSP'13) specialized to BFS — the system the
// FastBFS paper modifies and its primary baseline.
//
// X-Stream partitions the vertex set into balanced intervals, stores
// each partition's out-edges in its own streaming file, and runs
// bulk-synchronous iterations of scatter (stream edges, emit updates
// shuffled by destination partition) and gather (stream updates, apply
// to in-memory vertex state). It never sorts edges — "no preprocessing
// needed" — and re-streams the *entire* edge set every iteration, which
// is exactly the indiscriminate I/O FastBFS trims away.
//
// The paper builds FastBFS by modifying X-Stream, so the out-of-core
// scatter/gather loop exists once, in internal/core: the X-Stream
// baseline is that loop with trimming and selective scheduling off
// (core.RunXStream). This package keeps what the loop, GraphChi and the
// in-memory fast path share: options, the run's runtime (partitioning,
// clock, byte accounting, working-file names, the initial
// streaming-partition split), the per-partition vertex store, the
// direction scaffolding and RunInMemory.
package xstream

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// PerVertexMemBytes is the modelled in-memory footprint per vertex of a
// loaded partition (8 bytes of state plus buffer overhead); the memory
// budget divided by this determines the partition count, as in §II-B
// ("the vertices partitioning makes sure that each partition and its
// intermediate data can fit into memory").
const PerVertexMemBytes = 16

// InMemoryFactor is how many times the binary edge-list size must fit in
// the memory budget before the engine switches to the in-memory fast
// path (edges + an update set + working room, matching the paper's
// observation that rmat22's 768 MB ran in memory at 4 GB but not 2 GB).
const InMemoryFactor = 3

// SimConfig selects simulated-time mode and carries the device and cost
// models. A nil SimConfig in Options means wall-clock mode: the engine
// still moves every byte through the volume but reports elapsed real
// time instead of modelled time.
type SimConfig struct {
	CPU   disksim.CPU
	Costs disksim.Costs
	// MainDisk holds the graph: edge files, vertex files and (for
	// FastBFS in single-disk mode) stay files.
	MainDisk *disksim.Device
	// AuxDisk, when non-nil, is the paper's "additional disk": update
	// streams and the stay-out stream are placed there (Fig. 10).
	AuxDisk *disksim.Device
	// StayDisk, when non-nil, dedicates a device to the stay-out stream
	// ("FastBFS can appoint the stay list writing to a different disk",
	// §II-C2), overriding the per-iteration alternation. With a slow
	// dedicated stay disk the grace-and-cancel path becomes observable.
	StayDisk *disksim.Device
}

// DefaultSim returns a single-HDD simulation matching the paper's
// testbed defaults.
func DefaultSim() *SimConfig {
	return &SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDD("hdd0"),
	}
}

// Clone returns a deep copy of the simulation configuration with fresh
// (zero-state) devices. A disksim.Device accumulates fluid state and
// traffic counters during a run, so concurrent engine runs must never
// share one; the serving layer clones the configured SimConfig per
// query. Clone of nil is nil (wall-clock mode passes through).
func (s *SimConfig) Clone() *SimConfig {
	if s == nil {
		return nil
	}
	return &SimConfig{
		CPU:      s.CPU,
		Costs:    s.Costs,
		MainDisk: s.MainDisk.Clone(),
		AuxDisk:  s.AuxDisk.Clone(),
		StayDisk: s.StayDisk.Clone(),
	}
}

// ScaledSim returns a single-HDD simulation whose positioning cost is
// scaled down by factor, for benchmarks whose datasets are scaled down
// by the same factor from the paper's (see disksim.HDDScaled).
func ScaledSim(factor float64) *SimConfig {
	return &SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDDScaled("hdd0", factor),
	}
}

// Options configures an engine run. The zero value is not usable; call
// (*Options).SetDefaults or fill the fields. The engines read no
// environment variable: commands map flags, settings files and FASTBFS_*
// variables onto these fields (internal/runconfig).
type Options struct {
	// Root is the BFS source vertex.
	Root graph.VertexID
	// MemoryBudget is the working memory in bytes (the paper evaluates
	// 256 MB – 4 GB). It determines the partition count and whether the
	// in-memory fast path triggers. Default 1 GiB.
	MemoryBudget uint64
	// Partitions overrides the partition count derived from
	// MemoryBudget when nonzero. GraphChi uses it because its memory
	// shard holds edges, not just vertices, so its interval count is
	// edge-bound.
	Partitions int
	// Threads is the compute thread count (Fig. 8). Default 4.
	Threads int
	// StreamBufSize is the stream buffer size in bytes. Default 1 MiB.
	StreamBufSize int
	// PrefetchBuffers is the read-ahead depth of edge and update
	// scanners ("the number of edge buffers can be more than one for
	// pre-fetching", §III). Default 2; set negative to disable.
	PrefetchBuffers int
	// ScatterWorkers is the number of goroutines classifying edge
	// chunks in the scatter phase. 0 means runtime.NumCPU(); negative
	// forces the serial path (1). Results are byte-identical for every
	// setting — see internal/stream/parallel.go for the contract.
	ScatterWorkers int
	// Sim enables simulated timing; nil runs in wall-clock mode.
	Sim *SimConfig
	// FilePrefix namespaces the engine's working files on the volume.
	// Defaults to the engine name.
	FilePrefix string
	// KeepFiles leaves working files on the volume after the run
	// (useful for debugging and tests).
	KeepFiles bool
	// MaxIterations caps the iteration count as a safety net; default
	// vertices + 1.
	MaxIterations int
	// Tracer, when non-nil, receives spans and live counters from the
	// run (see internal/obs). In sim mode the virtual clock is installed
	// as its time source, so traces are in simulated seconds. Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// RetryAttempts overrides the transient-fault retry budget (total
	// tries per I/O operation, first call included). 0 keeps
	// stream.DefaultRetryAttempts; chaos runs with high injected fault
	// rates raise it so exhaustion stays improbable.
	RetryAttempts int
	// Direction selects the traversal direction policy for the streaming
	// engines: pure top-down (the default), pure bottom-up after the
	// root iteration, or the Beamer-style automatic hybrid (see
	// internal/bfs/directionopt.go for the in-memory reference). Bottom-up
	// iterations stream the reverse-edge partitions split from the
	// dataset's .rev file; `auto` on a graph stored without one falls
	// back to pure top-down (counted, never an error), while an explicit
	// `bottomup` on such a graph is ErrBadOptions. Empty means topdown.
	// The in-memory fast path ignores the direction (it has no device
	// traffic to save).
	Direction Direction
	// DirectionAlpha and DirectionBeta are the hybrid heuristic's switch
	// ratios (Beamer's α and β): switch to bottom-up when the frontier's
	// emitted-edge count exceeds unexplored/α, back to top-down when the
	// frontier shrinks below vertices/β. Defaults 14 and 24, matching
	// the in-memory reference.
	DirectionAlpha int
	DirectionBeta  int
	// Codec selects the edge codec for the run's working files —
	// partition splits, stay and reverse-stay rewrites, the reverse
	// split. Empty takes the dataset's stored codec; the resolution
	// happens in NewRuntimeContext (see Runtime.Codec).
	Codec graph.Codec
	// FaultHook, when non-nil, runs before every scatter chunk — the
	// chaos-testing seam behind the daemon's -panic-root flag. A hook
	// that panics exercises panic isolation: the scatter pool recovers
	// it into a stream.PanicError (wrapping errs.ErrInternal) that
	// aborts only the run that raised it.
	FaultHook func()
}

// SetDefaults fills unset fields with defaults.
func (o *Options) SetDefaults(engineName string) {
	if o.MemoryBudget == 0 {
		o.MemoryBudget = 1 << 30
	}
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.StreamBufSize == 0 {
		o.StreamBufSize = stream.DefaultBufSize
	}
	if o.PrefetchBuffers == 0 {
		o.PrefetchBuffers = 2
	}
	if o.PrefetchBuffers < 0 {
		o.PrefetchBuffers = 0
	}
	if o.ScatterWorkers == 0 {
		o.ScatterWorkers = runtime.NumCPU()
	}
	if o.ScatterWorkers < 1 {
		o.ScatterWorkers = 1
	}
	if o.FilePrefix == "" {
		o.FilePrefix = engineName
	}
	if o.Direction == "" {
		o.Direction = DirectionTopDown
	}
	if o.DirectionAlpha <= 0 {
		o.DirectionAlpha = DefaultDirectionAlpha
	}
	if o.DirectionBeta <= 0 {
		o.DirectionBeta = DefaultDirectionBeta
	}
}

// Result is the output of an engine run: the BFS tree plus the
// measurement record.
type Result struct {
	Levels  []uint32
	Parents []graph.VertexID
	Visited uint64
	Metrics metrics.Run
}

// Runtime bundles the pieces of a run shared by X-Stream and FastBFS:
// the volume, partitioning, virtual clock (nil in wall mode), byte
// accounting and naming.
type Runtime struct {
	Vol   storage.Volume
	Meta  graph.Meta
	Parts *graph.Partitioning
	Opts  Options

	// ctx is the run's cancellation context (never nil). Engines poll it
	// through Checkpoint at iteration and partition boundaries.
	ctx context.Context

	Clock *disksim.Clock
	Costs disksim.Costs

	// Retry is the run's transient-fault retry policy; every stream the
	// engines build through MainTiming/AuxTiming shares it, so its
	// counters are the run-wide retry/failure totals.
	Retry *stream.Retrier

	// Codec is the resolved working-file codec (never empty): Options.Codec
	// when set, else the dataset's stored codec. Engines pass it to every
	// edge-carrying working-file writer; readers sniff, so mixed inputs
	// (raw dataset + delta stays) always stream correctly.
	Codec graph.Codec

	// Perm, non-nil iff the dataset was stored with degree reordering, maps
	// between original and stored vertex labels. The runtime operates
	// entirely in stored space — Opts.Root is remapped at construction —
	// and results are translated back at the collection boundary, so
	// callers never see stored labels.
	Perm *graph.Permutation

	BytesRead    int64
	BytesWritten int64

	// fileReady maps a file name to its pending write-behind barrier:
	// the last background flush that must complete before a reader can
	// depend on the file's contents (time-model only; data is always
	// complete).
	fileReady map[string]*disksim.AsyncOp

	wallStart time.Time

	// countVol is set when the volume is a storage.Counting wrapper; its
	// delta over the run feeds DeviceStats in wall mode, where there is
	// no simulated device to report on.
	countVol *storage.Counting
	startIO  storage.IOStats

	// OutDeg is the per-vertex out-degree table, built during Prepare
	// when the run may go bottom-up (Direction != topdown). Bottom-up
	// iterations use it to compute the newly-formed frontier's
	// out-degree sum for the switch-back heuristic. Like the frontier
	// bitmaps, its 4 bytes/vertex live outside the modelled memory
	// budget (the paper's budget covers partition state, not global
	// scalars).
	OutDeg []uint32

	// VisitedBits mirrors the vertex files' visited state in RAM
	// (vertices/8 bytes, outside the modelled budget like OutDeg),
	// maintained only when the run may go bottom-up. Bottom-up passes
	// consult it to drop in-edges of vertices that are already visited
	// — they can never yield a bottom-up candidate, and dropping them is
	// what makes bottom-up iterations read fewer bytes than a full edge
	// scan.
	VisitedBits *Bitset
}

// Tracer returns the run's tracer (nil when tracing is disabled; all
// obs methods are no-ops on nil).
func (rt *Runtime) Tracer() *obs.Tracer { return rt.Opts.Tracer }

// Context returns the run's cancellation context (never nil).
func (rt *Runtime) Context() context.Context { return rt.ctx }

// Checkpoint polls the run's context: it returns nil while the run may
// continue, and an error wrapping both errs.ErrCancelled and the
// context's cause once the query is cancelled or past its deadline.
// Engines call it at iteration and partition boundaries — the points
// where abandoning the run leaves no half-written state behind (the
// deferred Cleanup and stay-writer drain then release buffers and
// working files).
func (rt *Runtime) Checkpoint() error {
	select {
	case <-rt.ctx.Done():
		return fmt.Errorf("%s: %w: %w", rt.Opts.FilePrefix, errs.ErrCancelled, context.Cause(rt.ctx))
	default:
		return nil
	}
}

// RegisterReady records a file's write-behind barrier.
func (rt *Runtime) RegisterReady(name string, op *disksim.AsyncOp) {
	if op == nil {
		return
	}
	rt.fileReady[name] = op
}

// AwaitFile stalls the clock until the named file's write-behind barrier
// has completed (no-op for files written synchronously or in wall mode).
func (rt *Runtime) AwaitFile(name string) {
	op, ok := rt.fileReady[name]
	if !ok {
		return
	}
	delete(rt.fileReady, name)
	if rt.Clock != nil {
		rt.Clock.WaitUntil(rt.Clock.BgCompletion(op))
	}
}

// NewRuntime validates options against a stored graph and prepares the
// shared run state with a background (never-cancelled) context.
func NewRuntime(vol storage.Volume, graphName string, opts Options) (*Runtime, error) {
	return NewRuntimeContext(context.Background(), vol, graphName, opts)
}

// NewRuntimeContext is NewRuntime bound to a cancellation context: the
// run's engine observes ctx through Runtime.Checkpoint.
func NewRuntimeContext(ctx context.Context, vol storage.Volume, graphName string, opts Options) (*Runtime, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	retry := stream.NewRetrier(ctx, uint64(opts.Root)+1)
	retry.Attempts = opts.RetryAttempts
	retry.RetryCounter = opts.Tracer.Counter(obs.CtrIORetries)
	retry.FailureCounter = opts.Tracer.Counter(obs.CtrIOFailures)
	var m graph.Meta
	if err := retry.Do("load meta "+graphName, func() error {
		var e error
		m, e = graph.LoadMeta(vol, graphName)
		return e
	}); err != nil {
		return nil, err
	}
	if uint64(opts.Root) >= m.Vertices {
		return nil, fmt.Errorf("xstream: root %d outside vertex space [0,%d): %w", opts.Root, m.Vertices, errs.ErrBadOptions)
	}
	if _, err := ParseDirection(string(opts.Direction)); err != nil {
		return nil, err
	}
	codec, err := graph.ParseCodec(string(opts.Codec))
	if err != nil {
		return nil, fmt.Errorf("xstream: %w", err)
	}
	if opts.Codec == "" {
		codec = m.EdgeCodec()
	}
	// A reordered dataset's edges carry stored labels; load the stored
	// permutation and move the root into stored space (validated above in
	// the caller's original space). Results translate back on collection.
	var perm *graph.Permutation
	if m.Reordered {
		if err := retry.Do("load perm "+graphName, func() error {
			var e error
			perm, e = graph.LoadPerm(vol, graphName, m.Vertices)
			return e
		}); err != nil {
			return nil, err
		}
		opts.Root = perm.ToStored(opts.Root)
	}
	p := opts.Partitions
	if p <= 0 {
		p = graph.PartitionsForMemory(m.Vertices, PerVertexMemBytes, opts.MemoryBudget)
	}
	if uint64(p) > m.Vertices {
		p = int(m.Vertices)
	}
	parts, err := graph.NewPartitioning(m.Vertices, p)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Vol: vol, Meta: m, Parts: parts, Opts: opts, ctx: ctx, Retry: retry,
		Codec: codec, Perm: perm,
		fileReady: make(map[string]*disksim.AsyncOp), wallStart: time.Now()}
	if opts.Sim != nil {
		if opts.Sim.MainDisk == nil {
			return nil, fmt.Errorf("xstream: SimConfig requires MainDisk")
		}
		rt.Clock = disksim.NewClock(opts.Sim.CPU, opts.Threads)
		rt.Costs = opts.Sim.Costs
		// Trace in simulated seconds: span timestamps then line up with
		// the clock-derived ExecTime in the metrics record.
		opts.Tracer.SetTimeSource(rt.Clock.Now)
	}
	// Find a Counting volume even under the fault-injection wrapper.
	inner := vol
	for {
		if f, ok := inner.(*storage.Faulty); ok {
			inner = f.Inner()
			continue
		}
		break
	}
	if cv, ok := inner.(*storage.Counting); ok {
		rt.countVol = cv
		rt.startIO = cv.Stats()
	}
	return rt, nil
}

// InMemory reports whether the whole graph fits the memory budget.
func (rt *Runtime) InMemory() bool {
	need := InMemoryFactor*rt.Meta.DataBytes() + 2*PerVertexMemBytes*rt.Meta.Vertices
	return rt.Opts.MemoryBudget >= need
}

// MainTiming returns the stream timing for the main disk. Wall mode
// still carries the run's retry policy — retries are wall-clock-only
// and exist in both modes.
func (rt *Runtime) MainTiming() stream.Timing {
	if rt.Clock == nil {
		return stream.Timing{Retry: rt.Retry}
	}
	return stream.Timing{Clock: rt.Clock, Device: rt.Opts.Sim.MainDisk, Retry: rt.Retry,
		MemBW: rt.Costs.MemBandwidth}
}

// AuxTiming returns the stream timing for the update/stay-out disk —
// the additional disk when configured, otherwise the main disk.
func (rt *Runtime) AuxTiming() stream.Timing {
	if rt.Clock == nil {
		return stream.Timing{Retry: rt.Retry}
	}
	if rt.Opts.Sim.AuxDisk != nil {
		return stream.Timing{Clock: rt.Clock, Device: rt.Opts.Sim.AuxDisk, Retry: rt.Retry,
			MemBW: rt.Costs.MemBandwidth}
	}
	return rt.MainTiming()
}

// NewScatterPool builds the run's scatter worker pool. The chunk size
// is the stream buffer's edge capacity, so chunk boundaries line up
// with scanner refills and — critically — depend only on the buffer
// size, never on the worker count, keeping output bytes deterministic.
func (rt *Runtime) NewScatterPool(ctr obs.EngineCounters) *stream.ScatterPool {
	chunk := rt.Opts.StreamBufSize / graph.EdgeBytes
	sp := stream.NewScatterPool(rt.Opts.ScatterWorkers, chunk, rt.Parts.P())
	sp.ChunkCounter = ctr.ScatterChunks
	sp.BusyCounter = ctr.ScatterBusyNs
	sp.FaultHook = rt.Opts.FaultHook
	ctr.ScatterWorkers.Set(int64(sp.Workers()))
	return sp
}

// Compute charges thread-scaled compute work (no-op in wall mode).
func (rt *Runtime) Compute(seconds float64) {
	if rt.Clock != nil {
		rt.Clock.Compute(seconds)
	}
}

// RAMScan charges the serial memory-bandwidth cost of scanning n bytes
// of a resident in-memory partition. A RAM scan is a single sequential
// sweep, so it does not scale with the thread count the way per-edge
// classification compute does; it is also what replaces a device read,
// so it must hit the clock even when per-edge costs are zeroed. No-op
// in wall mode or when the cost model has no memory bandwidth.
func (rt *Runtime) RAMScan(n int64) {
	if rt.Clock == nil || rt.Costs.MemBandwidth <= 0 || n <= 0 {
		return
	}
	rt.Clock.ComputeSerial(float64(n) / rt.Costs.MemBandwidth)
}

// FinishMetrics fills the timing and device fields of a metrics record.
func (rt *Runtime) FinishMetrics(run *metrics.Run) {
	run.Graph = rt.Meta.Name
	run.BytesRead = rt.BytesRead
	run.BytesWritten = rt.BytesWritten
	run.IORetries = rt.Retry.Retries()
	run.IOFailures = rt.Retry.Failures()
	if rt.Clock != nil {
		run.ExecTime = rt.Clock.Now()
		run.IOWait = rt.Clock.IOWait()
		run.ComputeTime = rt.Clock.ComputeTime()
		devs := []*disksim.Device{rt.Opts.Sim.MainDisk}
		if rt.Opts.Sim.AuxDisk != nil {
			devs = append(devs, rt.Opts.Sim.AuxDisk)
		}
		if rt.Opts.Sim.StayDisk != nil {
			devs = append(devs, rt.Opts.Sim.StayDisk)
		}
		for _, d := range devs {
			run.Devices = append(run.Devices, metrics.DeviceStats{
				Name: d.Name, BytesRead: d.BytesRead(), BytesWritten: d.BytesWritten(),
				BusyTime: d.BusyTime(), Ops: d.Ops(),
			})
		}
	} else {
		run.ExecTime = time.Since(rt.wallStart).Seconds()
		if rt.countVol != nil {
			// Wall mode has no simulated devices; report the counting
			// volume's delta over the run instead.
			d := rt.countVol.Stats().Sub(rt.startIO)
			run.Devices = append(run.Devices, metrics.DeviceStats{
				Name: rt.countVol.Name(), BytesRead: d.BytesRead, BytesWritten: d.BytesWritten,
				Ops: d.ReadOps + d.WriteOps,
			})
		}
	}
}

// File names for the engine's working set.

// EdgeFile is partition p's out-edge file.
func (rt *Runtime) EdgeFile(p int) string { return fmt.Sprintf("%s_edge_%d", rt.Opts.FilePrefix, p) }

// VertexFile is partition p's vertex-state file.
func (rt *Runtime) VertexFile(p int) string { return fmt.Sprintf("%s_vtx_%d", rt.Opts.FilePrefix, p) }

// UpdateFile is partition p's update file in stream set `set` (0 or 1 —
// the two update stream sets whose roles switch each iteration, §III).
func (rt *Runtime) UpdateFile(set, p int) string {
	return fmt.Sprintf("%s_upd%d_%d", rt.Opts.FilePrefix, set, p)
}

// StayFile is partition p's stay file generated in iteration iter. The
// name carries the full iteration (a per-generation name, not a
// two-slot alternation): the engine may hold up to three generations at
// once — the current input, the fallback it replaced (kept until the
// input survives a verified read) and the pending write — and under
// checkpointing a file named by the last durable manifest must never be
// truncated by a later Create. Superseded generations are removed as
// soon as they stop being referenced.
func (rt *Runtime) StayFile(iter, p int) string {
	return fmt.Sprintf("%s_stay%d_%d", rt.Opts.FilePrefix, iter, p)
}

// Cleanup removes every working file with the run's prefix.
func (rt *Runtime) Cleanup() {
	if rt.Opts.KeepFiles {
		return
	}
	prefix := rt.Opts.FilePrefix + "_"
	for _, name := range rt.Vol.List() {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			rt.Vol.Remove(name)
		}
	}
}

// Prepare splits the stored raw edge list into per-partition streaming
// edge files — X-Stream's cheap, sort-free setup pass (one sequential
// read of the dataset plus one sequential write; contrast with
// GraphChi's shard sort). It returns the per-partition edge counts.
func (rt *Runtime) Prepare() ([]int64, error) {
	tm := rt.MainTiming()
	sc, err := stream.NewEdgeScanner(rt.Vol, graph.EdgeFileName(rt.Meta.Name), tm, rt.Opts.StreamBufSize)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	if rt.Opts.Direction != DirectionTopDown {
		rt.OutDeg = make([]uint32, rt.Meta.Vertices)
		rt.VisitedBits = NewBitset(rt.Meta.Vertices)
	}
	outs := make([]*stream.Writer[graph.Edge], rt.Parts.P())
	for p := range outs {
		w, err := stream.NewCodecEdgeWriter(rt.Vol, rt.EdgeFile(p), tm, rt.Opts.StreamBufSize, rt.Codec)
		if err != nil {
			for _, o := range outs[:p] {
				o.Abort()
			}
			return nil, err
		}
		w.SetAsync() // write-behind; readers barrier through AwaitFile
		outs[p] = w
	}
	for {
		e, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := rt.Meta.CheckEdge(e); err != nil {
			return nil, err
		}
		if rt.OutDeg != nil {
			rt.OutDeg[e.Src]++
		}
		if err := outs[rt.Parts.Of(e.Src)].Append(e); err != nil {
			return nil, err
		}
	}
	rt.Compute(float64(rt.Meta.Edges) * rt.Costs.ScatterPerEdge)
	counts := make([]int64, len(outs))
	for p, o := range outs {
		counts[p] = o.Count()
		if err := o.Close(); err != nil {
			return nil, err
		}
		rt.BytesWritten += o.BytesWritten()
		rt.RegisterReady(rt.EdgeFile(p), o.LastOp())
	}
	rt.BytesRead += sc.BytesRead()
	return counts, nil
}

// Verts is one partition's in-memory vertex state: BFS level (NoLevel =
// unvisited) and parent.
type Verts struct {
	Lo     graph.VertexID
	Level  []uint32
	Parent []graph.VertexID
}

// NoLevel marks an unvisited vertex in a Verts array and on disk.
const NoLevel = uint32(0xFFFFFFFF)

// vertRecBytes is the on-disk size of one vertex record (level, parent).
const vertRecBytes = 8

type vertRec struct {
	level  uint32
	parent graph.VertexID
}

// InitVerts returns a fresh all-unvisited vertex state for partition p.
func (rt *Runtime) InitVerts(p int) *Verts {
	lo, hi := rt.Parts.Interval(p)
	n := int(hi - lo)
	v := &Verts{Lo: lo, Level: make([]uint32, n), Parent: make([]graph.VertexID, n)}
	for i := range v.Level {
		v.Level[i] = NoLevel
		v.Parent[i] = graph.NoVertex
	}
	rt.Compute(float64(n) * rt.Costs.PerVertex)
	return v
}

// LoadVerts reads partition p's vertex-state file into memory.
func (rt *Runtime) LoadVerts(p int) (*Verts, error) {
	return rt.LoadVertsFile(p, rt.VertexFile(p))
}

// LoadVertsFile is LoadVerts from an explicitly named vertex file —
// checkpointed runs keep one vertex file per iteration generation, so
// resume must name which generation to load.
func (rt *Runtime) LoadVertsFile(p int, name string) (*Verts, error) {
	rt.AwaitFile(name)
	lo, hi := rt.Parts.Interval(p)
	n := int(hi - lo)
	sc, err := stream.NewScanner(rt.Vol, name, rt.MainTiming(), rt.Opts.StreamBufSize, vertRecBytes,
		func(b []byte) vertRec {
			u := graph.GetUpdate(b) // same layout: two little-endian uint32
			return vertRec{level: uint32(u.Dst), parent: u.Parent}
		})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	v := &Verts{Lo: lo, Level: make([]uint32, n), Parent: make([]graph.VertexID, n)}
	for i := 0; i < n; i++ {
		rec, ok, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("xstream: vertex file %s truncated at record %d of %d", name, i, n)
		}
		v.Level[i] = rec.level
		v.Parent[i] = rec.parent
	}
	rt.BytesRead += sc.BytesRead()
	rt.Compute(float64(n) * rt.Costs.PerVertex)
	return v, nil
}

// SaveVerts writes partition p's vertex state back to disk ("the updated
// vertices of each partition should be saved back to disk after each
// iteration", §II-A).
func (rt *Runtime) SaveVerts(p int, v *Verts) error {
	return rt.SaveVertsFile(p, rt.VertexFile(p), v)
}

// SaveVertsFile is SaveVerts to an explicitly named vertex file (see
// LoadVertsFile).
func (rt *Runtime) SaveVertsFile(p int, name string, v *Verts) error {
	w, err := stream.NewWriter(rt.Vol, name, rt.MainTiming(), rt.Opts.StreamBufSize, vertRecBytes,
		func(b []byte, rec vertRec) {
			graph.PutUpdate(b, graph.Update{Dst: graph.VertexID(rec.level), Parent: rec.parent})
		})
	if err != nil {
		return err
	}
	w.SetAsync() // write-behind; next LoadVerts barriers through AwaitFile
	for i := range v.Level {
		if err := w.Append(vertRec{level: v.Level[i], parent: v.Parent[i]}); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	rt.BytesWritten += w.BytesWritten()
	rt.RegisterReady(name, w.LastOp())
	rt.Compute(float64(len(v.Level)) * rt.Costs.PerVertex)
	return nil
}

// MarkRoot marks the root vertex visited at level 0 if it falls in v.
func (rt *Runtime) MarkRoot(v *Verts) bool {
	root := rt.Opts.Root
	lo := v.Lo
	if uint64(root) < uint64(lo) || int(root-lo) >= len(v.Level) {
		return false
	}
	v.Level[root-lo] = 0
	v.Parent[root-lo] = root
	if rt.VisitedBits != nil {
		rt.VisitedBits.Set(root)
	}
	return true
}

// CollectResult assembles the final BFS tree from every partition's
// vertex file. It does not charge I/O time: dumping the result is
// outside the measured execution, like the paper's output step.
func (rt *Runtime) CollectResult() (*Result, error) {
	return rt.CollectResultFrom(rt.VertexFile)
}

// CollectResultFrom is CollectResult reading each partition's vertex
// state from the file nameFor(p) — resume from a checkpoint collects
// the manifest's recorded generation instead of the default names.
func (rt *Runtime) CollectResultFrom(nameFor func(p int) string) (*Result, error) {
	res := &Result{
		Levels:  make([]uint32, rt.Meta.Vertices),
		Parents: make([]graph.VertexID, rt.Meta.Vertices),
	}
	for p := 0; p < rt.Parts.P(); p++ {
		name := nameFor(p)
		var b []byte
		if err := rt.Retry.Do("collect "+name, func() error {
			var e error
			b, e = storage.ReadAll(rt.Vol, name)
			return e
		}); err != nil {
			return nil, err
		}
		lo, hi := rt.Parts.Interval(p)
		if len(b) != int(hi-lo)*vertRecBytes {
			return nil, fmt.Errorf("xstream: vertex file %s has %d bytes, want %d", name, len(b), int(hi-lo)*vertRecBytes)
		}
		for i := 0; i < int(hi-lo); i++ {
			u := graph.GetUpdate(b[i*vertRecBytes:])
			res.Levels[int(lo)+i] = uint32(u.Dst)
			res.Parents[int(lo)+i] = u.Parent
			if uint32(u.Dst) != NoLevel {
				res.Visited++
			}
		}
	}
	rt.TranslateResult(res)
	return res, nil
}

// TranslateResult maps a result computed in the stored label space of a
// reordered dataset back to original labels (no-op otherwise). Engines
// that assemble a Result without CollectResult — the in-memory fast
// path — must call it before returning.
func (rt *Runtime) TranslateResult(res *Result) {
	if rt.Perm == nil {
		return
	}
	res.Levels = graph.ReindexByPerm(rt.Perm, res.Levels)
	res.Parents = rt.Perm.TranslateParents(res.Parents)
}
