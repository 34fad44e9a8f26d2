package core

import (
	"testing"
	"testing/quick"

	"fastbfs/internal/bfs"
	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// checkAgainstReference runs FastBFS and the in-memory reference and
// verifies the levels match and the parent tree validates.
func checkAgainstReference(t *testing.T, m graph.Meta, edges []graph.Edge, root graph.VertexID, opts Options) *Result {
	t.Helper()
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	opts.Base.Root = root
	res, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bfs.Run(m, edges, root)
	if err != nil {
		t.Fatal(err)
	}
	got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Equal(ref, got); err != nil {
		t.Fatalf("fastbfs disagrees with reference: %v", err)
	}
	if err := bfs.Validate(m, edges, got); err != nil {
		t.Fatalf("fastbfs tree invalid: %v", err)
	}
	return res
}

func smallOpts() Options {
	return Options{Base: xstream.Options{
		MemoryBudget:  4096,
		StreamBufSize: 512,
		Sim:           xstream.DefaultSim(),
	}}
}

func TestFastBFSFixtures(t *testing.T) {
	cases := []struct {
		name  string
		gen   func() (graph.Meta, []graph.Edge, error)
		root  graph.VertexID
		visit uint64
	}{
		{"path", func() (graph.Meta, []graph.Edge, error) { return gen.Path(50) }, 0, 50},
		{"star", func() (graph.Meta, []graph.Edge, error) { return gen.Star(200) }, 0, 200},
		{"cycle", func() (graph.Meta, []graph.Edge, error) { return gen.Cycle(64) }, 7, 64},
		{"btree", func() (graph.Meta, []graph.Edge, error) { return gen.BinaryTree(255) }, 0, 255},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, edges, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			res := checkAgainstReference(t, m, edges, tc.root, smallOpts())
			if res.Visited != tc.visit {
				t.Fatalf("visited = %d, want %d", res.Visited, tc.visit)
			}
		})
	}
}

func TestFastBFSRMAT(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	if res.Metrics.TrimmedEdges == 0 {
		t.Fatal("no edges trimmed on an rmat graph")
	}
}

func TestFastBFSAllOptionCombos(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	for _, disableTrim := range []bool{false, true} {
		for _, disableSel := range []bool{false, true} {
			for _, trimStart := range []int{0, 2} {
				opts := smallOpts()
				opts.DisableTrimming = disableTrim
				opts.DisableSelectiveScheduling = disableSel
				opts.TrimStartIteration = trimStart
				checkAgainstReference(t, m, edges, root, opts)
			}
		}
	}
}

func TestFastBFSTwoDisks(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 21)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := smallOpts()
	opts.Base.Sim.AuxDisk = disksim.HDD("hdd1")
	res := checkAgainstReference(t, m, edges, root, opts)
	if len(res.Metrics.Devices) != 2 {
		t.Fatalf("devices = %d", len(res.Metrics.Devices))
	}
	aux := res.Metrics.Devices[1]
	if aux.BytesWritten == 0 {
		t.Fatal("second disk never written")
	}
}

func TestFastBFSReadsLessThanXStream(t *testing.T) {
	// The headline claim (Figs. 4 and 5): trimming + selective
	// scheduling cut the input data amount and execution time on a
	// converging scale-free graph.
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 31)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}

	// Scaled seeks: the dataset is ~1000x smaller than the paper's, so
	// the device's positioning cost is scaled to match (DESIGN.md §6) —
	// otherwise per-file seeks dominate in a way they never did on the
	// testbed.
	xsOpts := xstream.Options{Root: root, MemoryBudget: 32 << 10, Sim: xstream.ScaledSim(512)}
	xs, err := envRunXStream(vol, m.Name, xsOpts)
	if err != nil {
		t.Fatal(err)
	}
	fbOpts := Options{Base: xstream.Options{Root: root, MemoryBudget: 32 << 10, Sim: xstream.ScaledSim(512)}}
	fb, err := envRun(vol, m.Name, fbOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Visited != xs.Visited {
		t.Fatalf("visited differ: fastbfs %d, xstream %d", fb.Visited, xs.Visited)
	}
	if !(fb.Metrics.BytesRead < xs.Metrics.BytesRead) {
		t.Fatalf("fastbfs read %d >= xstream %d", fb.Metrics.BytesRead, xs.Metrics.BytesRead)
	}
	if !(fb.Metrics.ExecTime < xs.Metrics.ExecTime) {
		t.Fatalf("fastbfs %.4fs not faster than xstream %.4fs", fb.Metrics.ExecTime, xs.Metrics.ExecTime)
	}
	if !(fb.Metrics.TotalBytes() < xs.Metrics.TotalBytes()) {
		t.Fatalf("fastbfs total bytes %d >= xstream %d", fb.Metrics.TotalBytes(), xs.Metrics.TotalBytes())
	}
}

func TestFastBFSTwoDisksFasterThanOne(t *testing.T) {
	m, edges, err := gen.RMAT(10, 12, gen.Graph500(), 31)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	run := func(twoDisks bool) float64 {
		sim := xstream.DefaultSim()
		if twoDisks {
			sim.AuxDisk = disksim.HDD("hdd1")
		}
		res, err := envRun(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 16 << 10, Sim: sim}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ExecTime
	}
	one, two := run(false), run(true)
	if !(two < one) {
		t.Fatalf("two disks (%.4fs) not faster than one (%.4fs)", two, one)
	}
}

func TestFastBFSStaysShrinkAcrossIterations(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 8)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res := checkAgainstReference(t, m, edges, root, smallOpts())
	// Edges streamed per iteration must be non-increasing once trimming
	// and selective scheduling bite (allowing the first iteration's full
	// scan).
	rows := res.Metrics.Iterations
	for i := 2; i < len(rows); i++ {
		if rows[i].EdgesStreamed > rows[i-1].EdgesStreamed {
			t.Fatalf("iteration %d streamed %d > previous %d", i, rows[i].EdgesStreamed, rows[i-1].EdgesStreamed)
		}
	}
}

func TestFastBFSSelectiveSchedulingSkips(t *testing.T) {
	// On a path split over many partitions, each iteration has exactly
	// one frontier vertex, so almost every partition is skipped.
	m, edges, _ := gen.Path(100)
	root := graph.VertexID(0)
	opts := smallOpts()
	opts.Base.MemoryBudget = 160 // 10 vertices per partition -> 10 partitions
	res := checkAgainstReference(t, m, edges, root, opts)
	if res.Metrics.Skipped == 0 {
		t.Fatal("no partitions skipped on a path graph")
	}
	// 100 levels x 10 partitions: the overwhelming majority must be
	// skipped (each level touches at most 2 partitions).
	if res.Metrics.Skipped < 500 {
		t.Fatalf("only %d partition-iterations skipped", res.Metrics.Skipped)
	}
}

func TestFastBFSTrimStartDelaysTrimming(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 9)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := smallOpts()
	opts.TrimStartIteration = 3
	res := checkAgainstReference(t, m, edges, root, opts)
	for _, it := range res.Metrics.Iterations {
		if it.Index < 3 && it.TrimActive {
			t.Fatalf("iteration %d trimmed before TrimStartIteration", it.Index)
		}
	}
}

func TestFastBFSTrimVisitedFraction(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 9)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := smallOpts()
	opts.TrimVisitedFraction = 0.25
	res := checkAgainstReference(t, m, edges, root, opts)
	sawInactive := false
	for _, it := range res.Metrics.Iterations {
		if !it.TrimActive {
			sawInactive = true
		} else if !sawInactive && it.Index == 0 {
			t.Fatal("trimming active at iteration 0 despite visited-fraction threshold")
		}
	}
	if !sawInactive {
		t.Fatal("visited-fraction threshold never deferred trimming")
	}
}

func TestFastBFSCancellationUnderTinyGrace(t *testing.T) {
	// A zero grace period with a saturated stay device forces the
	// cancellation path; the result must still be exact.
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 77)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := smallOpts()
	// A fast main disk with a drastically slower dedicated stay disk:
	// stay writes can never finish before the partition's next scatter,
	// forcing the grace-and-cancel path.
	opts.Base.Sim = &xstream.SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDDScaled("fast", 100),
		StayDisk: &disksim.Device{Name: "slowstay", SeekLatency: 1e-4, Bandwidth: 1e5},
	}
	opts.GracePeriod = 1e-9
	// Keep every partition on the device: a resident partition has no
	// stay file to cancel, which is exactly the path under test.
	opts.ResidencyBudget = ResidencyOff
	res := checkAgainstReference(t, m, edges, root, opts)
	if res.Metrics.Cancellations == 0 {
		t.Fatal("expected cancellations under a nanosecond grace period on a slow disk")
	}
}

func TestFastBFSDisableTrimmingMatchesXStreamReads(t *testing.T) {
	// With trimming and selective scheduling off, FastBFS degenerates to
	// X-Stream: same bytes read, same bytes written.
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 15)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	xs, err := envRunXStream(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 8192, Sim: xstream.DefaultSim()})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Base: xstream.Options{Root: root, MemoryBudget: 8192, Sim: xstream.DefaultSim()}}
	opts.DisableTrimming = true
	opts.DisableSelectiveScheduling = true
	fb, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Metrics.BytesRead != xs.Metrics.BytesRead {
		t.Fatalf("degenerate fastbfs read %d, xstream %d", fb.Metrics.BytesRead, xs.Metrics.BytesRead)
	}
	if fb.Metrics.BytesWritten != xs.Metrics.BytesWritten {
		t.Fatalf("degenerate fastbfs wrote %d, xstream %d", fb.Metrics.BytesWritten, xs.Metrics.BytesWritten)
	}
}

func TestFastBFSInMemoryWithTrim(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 2)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := Options{Base: xstream.Options{MemoryBudget: 1 << 30, Sim: xstream.DefaultSim()}}
	res := checkAgainstReference(t, m, edges, root, opts)
	if res.Metrics.BytesWritten != 0 {
		t.Fatalf("in-memory mode wrote %d bytes", res.Metrics.BytesWritten)
	}
	if res.Metrics.TrimmedEdges == 0 {
		t.Fatal("in-memory trimming did nothing")
	}
}

func TestFastBFSWallClockMode(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 4)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := Options{Base: xstream.Options{MemoryBudget: 8192, StreamBufSize: 512}}
	res := checkAgainstReference(t, m, edges, root, opts)
	if res.Metrics.ExecTime <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestFastBFSWallClockOnOSVolume(t *testing.T) {
	// Full integration: real files on a real filesystem.
	vol, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 44)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	res, err := envRun(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 8192, StreamBufSize: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := bfs.Run(m, edges, root)
	got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Equal(ref, got); err != nil {
		t.Fatal(err)
	}
	// Only the dataset files remain.
	if n := len(vol.List()); n != 3 {
		t.Fatalf("files left on OS volume: %v", vol.List())
	}
}

func TestFastBFSPropertyRandomGraphs(t *testing.T) {
	f := func(seed int64, rootSeed uint8) bool {
		m, edges, err := gen.Uniform(60, 150, seed)
		if err != nil {
			return false
		}
		root := graph.VertexID(uint64(rootSeed) % m.Vertices)
		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			return false
		}
		res, err := envRun(vol, m.Name, Options{Base: xstream.Options{
			Root: root, MemoryBudget: 1024, StreamBufSize: 256, Sim: xstream.DefaultSim(),
		}})
		if err != nil {
			return false
		}
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			return false
		}
		got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
		return bfs.Equal(ref, got) == nil && bfs.Validate(m, edges, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func maxDegreeVertex(m graph.Meta, edges []graph.Edge) graph.VertexID {
	deg := graph.Degrees(m.Vertices, edges)
	best := graph.VertexID(0)
	var bd uint32
	for v, d := range deg {
		if d > bd {
			best, bd = graph.VertexID(v), d
		}
	}
	return best
}

func TestCancelledStayWritesRefundDeviceTimeline(t *testing.T) {
	// Regression for the grace-and-cancel refund: a negative grace
	// period makes the adopt test (ReadyAt <= now + grace) fail for
	// every pending stay file — ReadyAt is never in the past — so every
	// stay write trimming starts is discarded (fastbfs.go resolveInput).
	// Cancellation must refund the device timeline completely: with the
	// per-stay compute cost zeroed, such a run is indistinguishable in
	// simulated time, main-device stats and engine byte counters from a
	// run with trimming disabled. The stay disk is dedicated, so its
	// partially-serviced (non-refundable) transfers cannot leak into any
	// compared number.
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 21)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	run := func(disableTrim bool) *Result {
		opts := smallOpts()
		costs := disksim.DefaultCosts()
		costs.AppendPerStay = 0 // equalize scatter compute across the two runs
		opts.Base.Sim = &xstream.SimConfig{
			CPU:      disksim.DefaultCPU(),
			Costs:    costs,
			MainDisk: disksim.HDDScaled("main", 100),
			StayDisk: disksim.HDD("stay0"),
		}
		opts.GracePeriod = -1
		opts.StayBufCount = 1024 // never stall on stay-buffer exhaustion
		opts.ResidencyBudget = ResidencyOff
		opts.DisableTrimming = disableTrim
		return checkAgainstReference(t, m, edges, root, opts)
	}
	cancelled, disabled := run(false), run(true)
	if cancelled.Metrics.Cancellations == 0 {
		t.Fatal("negative grace period cancelled nothing — the refund path was not exercised")
	}
	if cancelled.Metrics.StayBufferWaits != 0 {
		t.Fatalf("stay-buffer waits (%d) would skew the timing comparison", cancelled.Metrics.StayBufferWaits)
	}
	if got, want := cancelled.Metrics.ExecTime, disabled.Metrics.ExecTime; got != want {
		t.Errorf("ExecTime with all-cancelled trimming = %v, want %v (trimming disabled)", got, want)
	}
	if got, want := cancelled.Metrics.BytesRead, disabled.Metrics.BytesRead; got != want {
		t.Errorf("BytesRead = %d, want %d", got, want)
	}
	if got, want := cancelled.Metrics.BytesWritten, disabled.Metrics.BytesWritten; got != want {
		t.Errorf("BytesWritten = %d, want %d", got, want)
	}
	var mainC, mainD *metrics.DeviceStats
	for i := range cancelled.Metrics.Devices {
		if cancelled.Metrics.Devices[i].Name == "main" {
			mainC = &cancelled.Metrics.Devices[i]
		}
	}
	for i := range disabled.Metrics.Devices {
		if disabled.Metrics.Devices[i].Name == "main" {
			mainD = &disabled.Metrics.Devices[i]
		}
	}
	if mainC == nil || mainD == nil {
		t.Fatal("main device stats missing from metrics")
	}
	if *mainC != *mainD {
		t.Errorf("main device stats diverged:\n  all-cancelled: %+v\n  trim-disabled: %+v", *mainC, *mainD)
	}
}
