package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// xstreamGolden is one pinned X-Stream baseline run: the simulated
// execution time, the byte totals and the per-iteration edge counts.
type xstreamGolden struct {
	codec    graph.Codec
	twoDisks bool

	execTime     float64
	bytesRead    int64
	bytesWritten int64
	edges        []int64
}

// TestXStreamBaselineGolden pins the X-Stream baseline — the comparison
// point of every paper figure — to constants recorded from the original
// stand-alone X-Stream engine, on one fixed R-MAT graph under the fixed
// and delta codecs with one and two simulated disks. A change to the
// shared scatter/gather loop that moves the baseline fails here instead
// of silently shifting every figure's xstream row.
func TestXStreamBaselineGolden(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	// X-Stream streams the whole edge set every iteration.
	full := []int64{4096, 4096, 4096, 4096, 4096, 4096}
	cases := []xstreamGolden{
		{graph.CodecFixed, false, 0.37707468900000046, 281960, 89448, full},
		{graph.CodecFixed, true, 0.31734264266666695, 281960, 89448, full},
		{graph.CodecDelta, false, 0.3757795925000001, 154271, 71211, full},
		{graph.CodecDelta, true, 0.31602980266666664, 154271, 71211, full},
	}
	for _, c := range cases {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: c.codec, Reverse: true}); err != nil {
			t.Fatal(err)
		}
		sim := xstream.DefaultSim()
		if c.twoDisks {
			sim.AuxDisk = disksim.HDD("hdd1")
		}
		res, err := RunXStream(vol, m.Name, xstream.Options{
			Root: root, MemoryBudget: 16 << 10, StreamBufSize: 4096, Sim: sim,
			Direction: xstream.DirectionTopDown, Codec: c.codec, KeepFiles: true,
		})
		if err != nil {
			t.Fatalf("%s two=%v: %v", c.codec, c.twoDisks, err)
		}
		label := fmt.Sprintf("%s two-disk=%v", c.codec, c.twoDisks)
		mt := res.Metrics
		// A relative tolerance far below any real change absorbs only
		// floating-point contraction differences between architectures.
		if math.Abs(mt.ExecTime-c.execTime) > 1e-9*c.execTime {
			t.Errorf("%s: ExecTime = %v, want %v", label, mt.ExecTime, c.execTime)
		}
		if mt.BytesRead != c.bytesRead || mt.BytesWritten != c.bytesWritten {
			t.Errorf("%s: read/written = %d/%d, want %d/%d", label, mt.BytesRead, mt.BytesWritten, c.bytesRead, c.bytesWritten)
		}
		var got []int64
		for _, it := range mt.Iterations {
			got = append(got, it.EdgesStreamed)
		}
		if !slices.Equal(got, c.edges) {
			t.Errorf("%s: per-iteration edges streamed = %v, want %v", label, got, c.edges)
		}
		if mt.Engine != "xstream" {
			t.Errorf("%s: engine = %q, want xstream", label, mt.Engine)
		}
		working := 0
		for _, f := range vol.List() {
			switch {
			case strings.HasPrefix(f, xstream.EngineName+"_"):
				working++
			case !strings.HasPrefix(f, m.Name):
				t.Errorf("%s: KeepFiles left %s, not an xstream_ working file", label, f)
			}
		}
		if working == 0 {
			t.Errorf("%s: KeepFiles left no xstream_ working files", label)
		}
	}
}
