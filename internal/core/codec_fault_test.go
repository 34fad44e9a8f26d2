package core

import (
	"errors"
	"testing"

	"fastbfs/internal/bfs"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Fault-injection tests for the delta codec: a corrupted block must
// fail the run with errs.ErrCorrupted (never wrong results), while
// transient read faults must be absorbed by the stream layer's Retrier
// exactly as they are for fixed-width files.

// storedDeltaGraph stores an RMAT graph under the delta codec with a
// reverse file and returns the volume, metadata and edge list.
func storedDeltaGraph(t *testing.T) (*storage.Mem, graph.Meta, []graph.Edge) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	m2, err := graph.LoadMeta(vol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	return vol, m2, edges
}

// flipByte inverts one byte of a stored file in place.
func flipByte(t *testing.T, vol *storage.Mem, name string, off int64) {
	t.Helper()
	b, err := storage.ReadAll(vol, name)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(b)) {
		t.Fatalf("offset %d beyond %d-byte file %s", off, len(b), name)
	}
	if err := vol.Patch(name, off, []byte{b[off] ^ 0xFF}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCorruptBlockFailsStop(t *testing.T) {
	// A flipped byte in the middle of the delta edge file (inside a
	// frame payload, so the CRC is the detector) must fail every engine
	// with ErrCorrupted — fail-stop, not a silently wrong BFS tree.
	base := func() xstream.Options {
		return xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}
	}
	runs := []struct {
		name string
		run  func(vol storage.Volume, g string) (*xstream.Result, error)
	}{
		{"fastbfs", func(vol storage.Volume, g string) (*xstream.Result, error) {
			return envRun(vol, g, Options{Base: base()})
		}},
		{"xstream", func(vol storage.Volume, g string) (*xstream.Result, error) {
			return envRunXStream(vol, g, base())
		}},
		{"graphchi", func(vol storage.Volume, g string) (*xstream.Result, error) {
			return envGraphChi(vol, g, base())
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			vol, m, _ := storedDeltaGraph(t)
			sz, err := vol.Size(graph.EdgeFileName(m.Name))
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, vol, graph.EdgeFileName(m.Name), sz/2)
			if _, err := r.run(vol, m.Name); !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("err = %v, want ErrCorrupted", err)
			}
		})
	}
}

func TestDeltaCorruptReverseFailsStop(t *testing.T) {
	// Same fail-stop contract for the delta .rev file on the bottom-up
	// path: the reverse split reads it up front, so the flipped byte
	// surfaces before any parent is derived from bad in-edges.
	vol, m, _ := storedDeltaGraph(t)
	sz, err := vol.Size(graph.ReverseFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, vol, graph.ReverseFileName(m.Name), sz/2)
	_, err = envRun(vol, m.Name, Options{Base: xstream.Options{
		MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim(),
		Direction: xstream.DirectionBottomUp,
	}})
	if !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestDeltaTransientReadFaultsRetried(t *testing.T) {
	// Transient read faults under the delta codec are the Retrier's
	// problem, not the caller's: the run succeeds, the result matches a
	// fault-free run bit for bit, and the retry counter shows the faults
	// really fired.
	clean, m, edges := storedDeltaGraph(t)
	opts := func() Options {
		return Options{Base: xstream.Options{MemoryBudget: 4096, StreamBufSize: 256, Sim: xstream.DefaultSim()}}
	}
	want, err := envRun(clean, m.Name, opts())
	if err != nil {
		t.Fatal(err)
	}

	inner, _, _ := storedDeltaGraph(t)
	faulty := storage.NewFaulty(inner, storage.FaultSpec{Seed: 11, ReadP: 0.02})
	got, err := envRun(faulty, m.Name, opts())
	if err != nil {
		t.Fatalf("transient read faults killed the run: %v", err)
	}
	if got.Metrics.IORetries == 0 {
		t.Fatal("no retries recorded; the fault spec did not bite")
	}
	for i := range got.Levels {
		if got.Levels[i] != want.Levels[i] || got.Parents[i] != want.Parents[i] {
			t.Fatalf("vertex %d diverged under retries: level %d/%d parent %d/%d",
				i, got.Levels[i], want.Levels[i], got.Parents[i], want.Parents[i])
		}
	}
	res := &bfs.Result{Root: 0, Level: got.Levels, Parent: got.Parents, Visited: got.Visited}
	if err := bfs.Validate(m, edges, res); err != nil {
		t.Fatalf("invalid tree under retries: %v", err)
	}
}
