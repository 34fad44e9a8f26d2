package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/storage"
	"fastbfs/internal/testenv"
	"fastbfs/internal/xstream"
)

// The engine entry points as this package's tests call them. Each run
// takes the FASTBFS_* settings of CI's matrix cells (internal/testenv)
// for whatever the test leaves unset, so the race-scatter, codec and
// chaos cells reach every run that does not pin a setting.

func envRun(vol storage.Volume, name string, o Options) (*Result, error) {
	return envRunContext(context.Background(), vol, name, o)
}

func envRunContext(ctx context.Context, vol storage.Volume, name string, o Options) (*Result, error) {
	o.Base = testenv.Options(o.Base)
	o.ResidencyBudget = testenv.Residency(o.ResidencyBudget, ParseResidencyBudget)
	return RunContext(ctx, testenv.Volume(vol), name, o)
}

func envRunXStream(vol storage.Volume, name string, o xstream.Options) (*Result, error) {
	return RunXStream(testenv.Volume(vol), name, testenv.Options(o))
}

func envGraphChi(vol storage.Volume, name string, o xstream.Options) (*Result, error) {
	return graphchi.Run(testenv.Volume(vol), name, testenv.Options(o))
}

// TestEngineIgnoresEnvironment pins the other half of the contract: the
// library itself reads no FASTBFS_* variable. Every one of them, set to
// a value that would show, leaves a zero-option run on a fixed-codec
// dataset untouched: no injected read fault, fixed-width working files,
// top-down only, no resident partition.
func TestEngineIgnoresEnvironment(t *testing.T) {
	t.Setenv("FASTBFS_FAULTS", "seed=1,pread=1")
	t.Setenv("FASTBFS_CODEC", "delta")
	t.Setenv("FASTBFS_DIRECTION", "bottomup")
	t.Setenv("FASTBFS_RESIDENCY", "unbounded")
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	res, err := Run(vol, m.Name, Options{Base: xstream.Options{
		Root: maxDegreeVertex(m, edges), MemoryBudget: 4096, StreamBufSize: 512,
		Sim: xstream.DefaultSim(), KeepFiles: true,
	}})
	if err != nil {
		t.Fatalf("run under a hostile environment: %v", err)
	}
	if res.Metrics.BottomUpIterations != 0 || res.Metrics.ResidentParts != 0 {
		t.Fatalf("bottom-up iterations %d, resident partitions %d; want 0 and 0",
			res.Metrics.BottomUpIterations, res.Metrics.ResidentParts)
	}
	kept := 0
	for _, f := range vol.List() {
		if !strings.HasPrefix(f, EngineName+"_") {
			continue
		}
		b, err := storage.ReadAll(vol, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) >= 4 && binary.LittleEndian.Uint32(b) == graph.FrameMagicDelta {
			t.Errorf("working file %s is delta-coded", f)
		}
		kept++
	}
	if kept == 0 {
		t.Fatal("KeepFiles left no working files")
	}
}
