package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// pathGolden is one pinned FastBFS run: the simulated execution time,
// the byte totals, the per-iteration edge and stay counts and the
// resident scan count.
type pathGolden struct {
	codec graph.Codec
	mode  string

	execTime      float64
	bytesRead     int64
	bytesWritten  int64
	edges         []int64
	stays         []int64
	residentScans int64
	tree          uint64
}

// pathGoldenOpts builds the options of one golden mode: the device path
// (residency off), the resident path (every trimmed partition promoted),
// and the in-memory path with default trimming, with each trim threshold
// set, and with trimming off.
func pathGoldenOpts(mode string, root graph.VertexID, codec graph.Codec) Options {
	o := Options{Base: xstream.Options{
		Root: root, MemoryBudget: 2 << 10, StreamBufSize: 4096, Sim: xstream.DefaultSim(),
		Direction: xstream.DirectionTopDown, Codec: codec,
	}, ResidencyBudget: ResidencyOff}
	switch mode {
	case "resident":
		o.ResidencyBudget = ResidencyUnbounded
	case "inmem-trim", "inmem-start", "inmem-fraction", "inmem-notrim":
		o.Base.MemoryBudget = 1 << 30
	}
	switch mode {
	case "inmem-start":
		o.TrimStartIteration = 2
	case "inmem-fraction":
		o.TrimVisitedFraction = 0.6
	case "inmem-notrim":
		o.DisableTrimming = true
	}
	return o
}

// TestFastBFSPathsGolden pins FastBFS's three top-down paths — device
// scatter, resident-partition scatter and the in-memory fast path — to
// constants recorded before they were folded into one kernel, on one
// fixed R-MAT graph under the fixed and delta codecs. A change to the
// shared classify, gather-apply or trim policy that moves a simulated
// second, a byte or an edge count fails here.
func TestFastBFSPathsGolden(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	cases := []pathGolden{
		{graph.CodecFixed, "device", 0.9112812155000001, 130024, 95744, []int64{1229, 3731, 792, 68, 20, 0}, []int64{864, 792, 94, 61, 16, 0}, 0, 0x7e9d70d4407ceb24},
		{graph.CodecFixed, "resident", 0.6730305027500002, 116072, 81256, []int64{1229, 3731, 792, 68, 20, 0}, []int64{864, 792, 94, 61, 16, 0}, 9, 0x7e9d70d4407ceb24},
		{graph.CodecFixed, "inmem-trim", 0.008857271916666673, 32768, 0, []int64{4096, 3731, 792, 94, 87, 83}, []int64{3731, 792, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecFixed, "inmem-start", 0.008878368666666676, 32768, 0, []int64{4096, 4096, 4096, 94, 87, 83}, []int64{4096, 4096, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecFixed, "inmem-fraction", 0.008859370666666673, 32768, 0, []int64{4096, 4096, 792, 94, 87, 83}, []int64{4096, 792, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecFixed, "inmem-notrim", 0.008910642666666677, 32768, 0, []int64{4096, 4096, 4096, 4096, 4096, 4096}, []int64{0, 0, 0, 0, 0, 0}, 0, 0xb93be087482a4419},
		{graph.CodecDelta, "device", 0.8936161610416667, 82844, 66498, []int64{1229, 3731, 792, 68, 20, 0}, []int64{864, 792, 94, 61, 16, 0}, 0, 0x7e9d70d4407ceb24},
		{graph.CodecDelta, "resident", 0.6555197128750003, 77633, 61084, []int64{1229, 3731, 792, 68, 20, 0}, []int64{864, 792, 94, 61, 16, 0}, 9, 0x7e9d70d4407ceb24},
		{graph.CodecDelta, "inmem-trim", 0.008710166916666668, 14501, 0, []int64{4096, 3731, 792, 94, 87, 83}, []int64{3731, 792, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecDelta, "inmem-start", 0.008731263666666671, 14501, 0, []int64{4096, 4096, 4096, 94, 87, 83}, []int64{4096, 4096, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecDelta, "inmem-fraction", 0.008712265666666668, 14501, 0, []int64{4096, 4096, 792, 94, 87, 83}, []int64{4096, 792, 94, 87, 83, 83}, 0, 0xb93be087482a4419},
		{graph.CodecDelta, "inmem-notrim", 0.008763537666666672, 14501, 0, []int64{4096, 4096, 4096, 4096, 4096, 4096}, []int64{0, 0, 0, 0, 0, 0}, 0, 0xb93be087482a4419},
	}
	for _, c := range cases {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: c.codec, Reverse: true}); err != nil {
			t.Fatal(err)
		}
		res, err := envRun(vol, m.Name, pathGoldenOpts(c.mode, root, c.codec))
		label := fmt.Sprintf("%s %s", c.codec, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		mt := res.Metrics
		// A relative tolerance far below any real change absorbs only
		// floating-point contraction differences between architectures.
		if math.Abs(mt.ExecTime-c.execTime) > 1e-9*c.execTime {
			t.Errorf("%s: ExecTime = %v, want %v", label, mt.ExecTime, c.execTime)
		}
		if mt.BytesRead != c.bytesRead || mt.BytesWritten != c.bytesWritten {
			t.Errorf("%s: read/written = %d/%d, want %d/%d", label, mt.BytesRead, mt.BytesWritten, c.bytesRead, c.bytesWritten)
		}
		var gotEdges, gotStays []int64
		for _, it := range mt.Iterations {
			gotEdges = append(gotEdges, it.EdgesStreamed)
			gotStays = append(gotStays, it.StayEdges)
		}
		if !slices.Equal(gotEdges, c.edges) {
			t.Errorf("%s: per-iteration edges streamed = %v, want %v", label, gotEdges, c.edges)
		}
		if !slices.Equal(gotStays, c.stays) {
			t.Errorf("%s: per-iteration stay edges = %v, want %v", label, gotStays, c.stays)
		}
		if mt.ResidentScans != c.residentScans {
			t.Errorf("%s: resident scans = %d, want %d", label, mt.ResidentScans, c.residentScans)
		}
		if got := treeHash(res); got != c.tree {
			t.Errorf("%s: levels/parents digest = %#x, want %#x", label, got, c.tree)
		}
	}
}

// treeHash is an FNV-1a digest of a result's levels and parents.
func treeHash(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range res.Levels {
		binary.LittleEndian.PutUint32(b[:4], res.Levels[i])
		binary.LittleEndian.PutUint32(b[4:], uint32(res.Parents[i]))
		h.Write(b[:])
	}
	return h.Sum64()
}
