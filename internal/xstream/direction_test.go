package xstream_test

import (
	"bytes"
	"errors"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]xstream.Direction{
		"": xstream.DirectionTopDown, "topdown": xstream.DirectionTopDown,
		"bottomup": xstream.DirectionBottomUp, "auto": xstream.DirectionAuto,
	} {
		got, err := xstream.ParseDirection(s)
		if err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"up", "down", "Auto", "hybrid"} {
		if _, err := xstream.ParseDirection(s); !errors.Is(err, errs.ErrBadOptions) {
			t.Errorf("ParseDirection(%q) = %v, want ErrBadOptions", s, err)
		}
	}
}

func TestDirStateHeuristic(t *testing.T) {
	rt := &xstream.Runtime{Meta: graph.Meta{Vertices: 1000, Edges: 10000},
		Opts: xstream.Options{DirectionAlpha: xstream.DefaultDirectionAlpha, DirectionBeta: xstream.DefaultDirectionBeta}}
	ds := xstream.NewDirState(rt, xstream.DirectionAuto)
	if ds.Decide(0) {
		t.Fatal("iteration 0 must be top-down")
	}
	// Tiny candidate wave: stay top-down.
	ds.RecordFrontier(1, 5, true)
	ds.RecordScatter(5, 30)
	if ds.Decide(1) {
		t.Fatal("small candidate wave switched to bottom-up")
	}
	// Growing wave whose targets dominate the unexplored edges: α fires.
	ds.RecordFrontier(5, 30, true)
	ds.RecordScatter(400, 6000)
	if !ds.Decide(2) {
		t.Fatal("α did not fire on a dominant candidate wave")
	}
	if ds.SwitchIteration != 2 || ds.Switches != 1 {
		t.Fatalf("switch accounting = iter %d, %d switches", ds.SwitchIteration, ds.Switches)
	}
	// Frontier still large: β keeps bottom-up.
	ds.RecordFrontier(500, 3000, true)
	if !ds.Decide(3) {
		t.Fatal("β fired while the frontier was large")
	}
	// Frontier collapsed below vertices/β: back to top-down.
	ds.RecordFrontier(10, 40, true)
	if ds.Decide(4) {
		t.Fatal("β did not fire on a collapsed frontier")
	}
	// Shrinking tail wave: the growth guard must hold top-down even
	// though the unexplored estimate is nearly drained.
	ds.RecordFrontier(10, 40, false)
	ds.RecordScatter(20, 200)
	if ds.Decide(5) {
		t.Fatal("α re-fired on a shrinking tail wave")
	}
	if ds.Switches != 2 || ds.BottomUpIters != 2 {
		t.Fatalf("switches = %d, bottom-up iters = %d", ds.Switches, ds.BottomUpIters)
	}
}

func TestDirStateForcedModes(t *testing.T) {
	rt := &xstream.Runtime{Meta: graph.Meta{Vertices: 100, Edges: 500},
		Opts: xstream.Options{DirectionAlpha: xstream.DefaultDirectionAlpha, DirectionBeta: xstream.DefaultDirectionBeta}}
	td := xstream.NewDirState(rt, xstream.DirectionTopDown)
	bu := xstream.NewDirState(rt, xstream.DirectionBottomUp)
	for iter := 0; iter < 5; iter++ {
		if td.Decide(iter) {
			t.Fatalf("forced topdown went bottom-up at %d", iter)
		}
		if got, want := bu.Decide(iter), iter > 0; got != want {
			t.Fatalf("forced bottomup at iter %d = %v, want %v", iter, got, want)
		}
		td.RecordFrontier(50, 100, true)
		bu.RecordFrontier(50, 100, true)
	}
}

// runDir runs xstream on the stored graph with the given direction.
func runDir(t *testing.T, vol storage.Volume, name string, root graph.VertexID, d xstream.Direction) *xstream.Result {
	t.Helper()
	o := smallOpts()
	o.Root = root
	o.Direction = d
	res, err := envRunXStream(vol, name, o)
	if err != nil {
		t.Fatalf("direction %s: %v", d, err)
	}
	return res
}

func sameTree(t *testing.T, a, b *xstream.Result, label string) {
	t.Helper()
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] || a.Parents[i] != b.Parents[i] {
			t.Fatalf("%s: vertex %d: level %d/%d parent %d/%d", label, i,
				a.Levels[i], b.Levels[i], a.Parents[i], b.Parents[i])
		}
	}
	if a.Visited != b.Visited {
		t.Fatalf("%s: visited %d vs %d", label, a.Visited, b.Visited)
	}
}

func TestXStreamDirectionsByteIdentical(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	td := runDir(t, vol, m.Name, root, xstream.DirectionTopDown)
	bu := runDir(t, vol, m.Name, root, xstream.DirectionBottomUp)
	au := runDir(t, vol, m.Name, root, xstream.DirectionAuto)
	sameTree(t, td, bu, "bottomup vs topdown")
	sameTree(t, td, au, "auto vs topdown")
	if td.Metrics.BottomUpIterations != 0 || td.Metrics.SwitchIteration != -1 {
		t.Fatalf("topdown ran %d bottom-up iterations", td.Metrics.BottomUpIterations)
	}
	if bu.Metrics.BottomUpIterations == 0 || bu.Metrics.SwitchIteration != 1 {
		t.Fatalf("forced bottomup: %d bottom-up iterations, switch at %d",
			bu.Metrics.BottomUpIterations, bu.Metrics.SwitchIteration)
	}
	if au.Metrics.BottomUpIterations == 0 {
		t.Fatal("auto never switched on a power-law graph")
	}
	if au.Metrics.TotalBytes() >= td.Metrics.TotalBytes() {
		t.Fatalf("auto moved %d bytes, top-down %d — no win", au.Metrics.TotalBytes(), td.Metrics.TotalBytes())
	}
}

func TestXStreamAutoFallsBackWithoutReverse(t *testing.T) {
	m, edges, _ := gen.BinaryTree(200)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	td := runDir(t, vol, m.Name, 0, xstream.DirectionTopDown)
	vol.Remove(graph.ReverseFileName(m.Name)) // a graph stored before .rev existed
	au := runDir(t, vol, m.Name, 0, xstream.DirectionAuto)
	sameTree(t, td, au, "auto-fallback vs topdown")
	if !au.Metrics.DirectionFallback {
		t.Fatal("fallback not reported in metrics")
	}
	if au.Metrics.BottomUpIterations != 0 {
		t.Fatal("fallback run still went bottom-up")
	}
	o := smallOpts()
	o.Direction = xstream.DirectionBottomUp
	if _, err := envRunXStream(vol, m.Name, o); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatalf("explicit bottomup without .rev: err = %v, want ErrBadOptions", err)
	}
}

func TestXStreamCorruptReverseSurfacesErrCorrupted(t *testing.T) {
	m, edges, _ := gen.BinaryTree(300)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the framed reverse file: the CRC must
	// catch it during the fused first bottom-up pass, which splits the
	// reverse file while it finds that level's parents — never wrong
	// output.
	name := graph.ReverseFileName(m.Name)
	b, err := storage.ReadAll(vol, name)
	if err != nil {
		t.Fatal(err)
	}
	b = bytes.Clone(b)
	b[len(b)/2] ^= 0x40
	if err := storage.WriteAll(vol, name, b); err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Direction = xstream.DirectionBottomUp
	if _, err := envRunXStream(vol, m.Name, o); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("corrupt .rev: err = %v, want ErrCorrupted", err)
	}
}
