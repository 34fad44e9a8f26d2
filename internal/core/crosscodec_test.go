package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestEnginesAgreeAcrossCodecs is the codec-equivalence property: over
// 50 random graphs spanning the same families as the worker and
// direction sweeps, storing under every codec {fixed, delta} × reorder
// {off, on} and running FastBFS and X-Stream under directions {topdown,
// auto} (GraphChi closes the loop top-down) produces BFS output that
// matches the in-memory reference and validates as a parent tree.
//
// Byte-identity is asserted at two strengths, deliberately different:
//
//   - within a reorder setting, every run — any codec, direction,
//     engine — must equal that setting's first run bit for bit, levels
//     AND parents: the codec is an encoding, so it must be invisible;
//   - across reorder settings only levels are compared byte for byte.
//     Relabeling changes partition assignment and therefore which of
//     several equal-level parents wins first-update-wins, so parents
//     are covered by bfs.Validate instead.
//
// A FastBFS run with the working-file codec forced away from the stored
// codec (Options.Codec) rides along, pinning the override path to the
// same bit-for-bit contract.
func TestEnginesAgreeAcrossCodecs(t *testing.T) {
	codecs := []graph.Codec{graph.CodecFixed, graph.CodecDelta}
	directions := []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto}
	rng := rand.New(rand.NewSource(23))
	const numGraphs = 50
	for g := 0; g < numGraphs; g++ {
		var (
			m     graph.Meta
			edges []graph.Edge
			err   error
		)
		switch g % 3 {
		case 0:
			m, edges, err = gen.Uniform(30+uint64(rng.Intn(80)), 60+uint64(rng.Intn(200)), rng.Int63())
		case 1:
			m, edges, err = gen.RMAT(5+rng.Intn(3), 4+rng.Intn(6), gen.Graph500(), rng.Int63())
		default:
			m, edges, err = gen.Uniform(20+uint64(rng.Intn(40)), 40+uint64(rng.Intn(100)), rng.Int63())
			if err == nil {
				m, edges = gen.AddTendrils(m, edges, 1+rng.Intn(3), 2+rng.Intn(5), m.Undirected, rng.Int63())
			}
		}
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := graph.VertexID(rng.Intn(int(m.Vertices)))
			edges = append(edges, graph.Edge{Src: v, Dst: v})
		}
		m.Vertices += uint64(1 + rng.Intn(5))
		m.Edges = uint64(len(edges))
		m.Name = fmt.Sprintf("csweep%02d", g)

		root := graph.VertexID(rng.Intn(int(m.Vertices)))
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			t.Fatalf("graph %d: reference: %v", g, err)
		}
		budget := uint64(512 + rng.Intn(3584))
		if g%5 == 4 {
			budget = 1 << 20
		}
		partitions := 1 + rng.Intn(7)
		bufSize := 128 + rng.Intn(384)

		check := func(label string, res *xstream.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("graph %d %s: %v", g, label, err)
			}
			got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
			if e := bfs.Equal(ref, got); e != nil {
				t.Fatalf("graph %d %s: %v", g, label, e)
			}
			if e := bfs.Validate(m, edges, got); e != nil {
				t.Fatalf("graph %d %s: invalid tree: %v", g, label, e)
			}
		}
		identical := func(label string, got, want *xstream.Result) {
			t.Helper()
			for i := range got.Levels {
				if got.Levels[i] != want.Levels[i] || got.Parents[i] != want.Parents[i] {
					t.Fatalf("graph %d %s: diverged from baseline at vertex %d: level %d/%d parent %d/%d",
						g, label, i, got.Levels[i], want.Levels[i], got.Parents[i], want.Parents[i])
				}
			}
		}

		// Parent trees are deterministic per engine, not across engines
		// (each engine's scatter order picks its own first-update-wins
		// winner), so byte-identity is asserted against a per-engine,
		// per-reorder baseline; levels-only identity bridges the two
		// reorder settings at the end.
		type key struct {
			engine  string
			reorder bool
		}
		base := map[key]*xstream.Result{}
		baseline := func(label string, k key, res *xstream.Result) {
			t.Helper()
			if base[k] == nil {
				base[k] = res
			} else {
				identical(label, res, base[k])
			}
		}
		for _, reorder := range []bool{false, true} {
			for _, codec := range codecs {
				vol := storage.NewMem()
				if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{
					Codec: codec, Reverse: true, ReorderByDegree: reorder,
				}); err != nil {
					t.Fatalf("graph %d store(%s,reorder=%v): %v", g, codec, reorder, err)
				}
				for _, d := range directions {
					bo := xstream.Options{
						Root: root, MemoryBudget: budget, Partitions: partitions,
						StreamBufSize: bufSize, Direction: d,
					}
					variant := fmt.Sprintf("codec=%s,reorder=%v,dir=%s", codec, reorder, d)

					bo.Sim = xstream.DefaultSim()
					fb, err := envRun(vol, m.Name, Options{Base: bo})
					check("fastbfs("+variant+")", fb, err)
					baseline("fastbfs("+variant+")", key{"fastbfs", reorder}, fb)

					bo.Sim = xstream.DefaultSim()
					xs, err := envRunXStream(vol, m.Name, bo)
					check("xstream("+variant+")", xs, err)
					baseline("xstream("+variant+")", key{"xstream", reorder}, xs)
				}
				bo := xstream.Options{
					Root: root, MemoryBudget: budget, Partitions: partitions,
					StreamBufSize: bufSize, Sim: xstream.DefaultSim(),
				}
				gc, err := envGraphChi(vol, m.Name, bo)
				variant := fmt.Sprintf("codec=%s,reorder=%v", codec, reorder)
				check("graphchi("+variant+")", gc, err)
				baseline("graphchi("+variant+")", key{"graphchi", reorder}, gc)

				// Working-file codec forced away from the stored codec.
				if codec == graph.CodecFixed {
					bo = xstream.Options{
						Root: root, MemoryBudget: budget, Partitions: partitions,
						StreamBufSize: bufSize, Codec: graph.CodecDelta, Sim: xstream.DefaultSim(),
					}
					fb, err := envRun(vol, m.Name, Options{Base: bo})
					label := fmt.Sprintf("fastbfs(stored=fixed,work=delta,reorder=%v)", reorder)
					check(label, fb, err)
					baseline(label, key{"fastbfs", reorder}, fb)
				}
			}
		}
		off, on := base[key{"fastbfs", false}], base[key{"fastbfs", true}]
		for i := range off.Levels {
			if off.Levels[i] != on.Levels[i] {
				t.Fatalf("graph %d: levels diverged across reorder at vertex %d: %d vs %d",
					g, i, off.Levels[i], on.Levels[i])
			}
		}
	}
}
