package core

import (
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// In-memory fast-path coverage: the trim-policy branches must behave the
// same way they do out-of-core.

func inMemOpts() Options {
	return Options{Base: xstream.Options{MemoryBudget: 1 << 30, Sim: xstream.DefaultSim()}}
}

func TestInMemoryTrimStartDelays(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 6)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := inMemOpts()
	opts.TrimStartIteration = 2
	res := checkAgainstReference(t, m, edges, root, opts)
	rows := res.Metrics.Iterations
	// Before the threshold every iteration scans the full edge list.
	for _, it := range rows[:2] {
		if it.EdgesStreamed != int64(m.Edges) {
			t.Fatalf("iteration %d scanned %d edges before TrimStart, want full %d",
				it.Index, it.EdgesStreamed, m.Edges)
		}
	}
	if len(rows) > 3 && rows[3].EdgesStreamed >= int64(m.Edges) {
		t.Fatalf("no trimming after the threshold: iteration 3 scanned %d", rows[3].EdgesStreamed)
	}
}

func TestInMemoryTrimVisitedFraction(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 6)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	opts := inMemOpts()
	opts.TrimVisitedFraction = 0.3
	res := checkAgainstReference(t, m, edges, root, opts)
	if res.Metrics.TrimmedEdges == 0 {
		t.Fatal("threshold run never trimmed despite eventual convergence")
	}
}

func TestInMemoryDisableTrimmingMatchesXStream(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 6)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	opts := inMemOpts()
	opts.Base.Root = root
	opts.DisableTrimming = true
	fb, err := envRun(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := envRunXStream(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 1 << 30, Sim: xstream.DefaultSim()})
	if err != nil {
		t.Fatal(err)
	}
	if fb.Metrics.TrimmedEdges != 0 {
		t.Fatalf("trimming disabled but %d edges trimmed", fb.Metrics.TrimmedEdges)
	}
	if fb.Metrics.BytesRead != xs.Metrics.BytesRead {
		t.Fatalf("reads differ from X-Stream: %d vs %d", fb.Metrics.BytesRead, xs.Metrics.BytesRead)
	}
	ref, _ := bfs.Run(m, edges, root)
	got := &bfs.Result{Root: root, Level: fb.Levels, Parent: fb.Parents, Visited: fb.Visited}
	if err := bfs.Equal(ref, got); err != nil {
		t.Fatal(err)
	}
}

func TestInMemoryFasterThanOutOfCoreSameGraph(t *testing.T) {
	// The Fig. 9 cliff at the engine level: identical graph and root,
	// only the budget differs.
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 6)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	vol := storage.NewMem()
	graph.Store(vol, m, edges)
	small, err := envRun(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 32 << 10, Sim: xstream.DefaultSim()}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := envRun(vol, m.Name, Options{Base: xstream.Options{Root: root, MemoryBudget: 1 << 30, Sim: xstream.DefaultSim()}})
	if err != nil {
		t.Fatal(err)
	}
	if !(big.Metrics.ExecTime < small.Metrics.ExecTime/2) {
		t.Fatalf("in-memory %.4fs not ≪ out-of-core %.4fs", big.Metrics.ExecTime, small.Metrics.ExecTime)
	}
	if big.Visited != small.Visited {
		t.Fatalf("results differ across modes: %d vs %d", big.Visited, small.Visited)
	}
}
