package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastbfs"
	"fastbfs/internal/bfs"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

// TestTinyWorkloads runs every workload on tiny inputs, untraced and
// traced, and checks that the result line names every metric with its
// unit and reports no failure.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := runConfig{seed: 3, seconds: 300 * time.Millisecond, trace: traced, workdir: dir, traceFile: filepath.Join(dir, "trace.jsonl"), size: tinySize}
			rep, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			want, got := endToEndMetrics, rep.endToEnd
			if traced {
				fillLayers(rep.perLayer)
				want, got = perLayerMetrics, rep.perLayer
			}
			var buf bytes.Buffer
			if err := printResult(&buf, rep, got); err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; notes %v", w.name, traced, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
			if traced {
				f, err := os.Open(cfg.traceFile)
				if err != nil {
					t.Fatal(err)
				}
				events, err := obs.ReadEvents(f)
				f.Close()
				if err != nil || len(events) == 0 {
					t.Errorf("%s: trace file holds %d events: %v", w.name, len(events), err)
				}
			} else {
				for _, m := range want {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

func tinyGraph(t *testing.T) (*storedGraph, *bfs.CSR) {
	t.Helper()
	cfg := runConfig{seed: 5, size: tinySize}
	g, err := storeGraph(context.Background(), cfg, t.TempDir(), rmatGraph, rmatStore)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.loadStoredMeta(); err != nil {
		t.Fatal(err)
	}
	csr, err := bfs.BuildCSR(g.meta, g.edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, csr
}

// TestCheckerRejectsCorruptLevels corrupts one level of a correct
// engine answer and of a correct served answer.
func TestCheckerRejectsCorruptLevels(t *testing.T) {
	g, csr := tinyGraph(t)
	root := seededRoots(runConfig{seed: 5}, g.meta, g.edges)[0]
	opts := engineOptions(g.meta.StoredBytes/10, g.meta.Codec)
	opts.Base.Root = root
	res, err := fastbfs.Run(context.Background(), fastbfs.EngineFastBFS, g.vol, g.meta.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := bfs.RunCSR(g.meta, csr, root)
	if err := checkEngineResult(g.meta, g.edges, root, res, ref); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for v, l := range res.Levels {
		if l != fastbfs.NoLevel && fastbfs.VertexID(v) != root {
			res.Levels[v]++
			break
		}
	}
	if err := checkEngineResult(g.meta, g.edges, root, res, ref); err == nil {
		t.Fatal("corrupted level array accepted")
	}
	// The same level array, compared through the served-answer digest.
	levels := func(r fastbfs.VertexID) []uint32 { return bfs.RunCSR(g.meta, csr, r).Level }
	q := serveQuery{Algorithm: "bfs", Root: uint32(root)}
	want, err := expectedDigest(q, levels)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"graph": g.meta.Name, "levels": ref.Level, "visited": ref.Visited})
	if got := digest(valueField(body, "levels")); got != want {
		t.Fatalf("correct served answer has digest %x, want %x", got, want)
	}
	corrupt := strings.Replace(string(body), `"levels":[0,`, `"levels":[1,`, 1)
	if root != 0 {
		corrupt = strings.Replace(string(body), `,0,`, `,1,`, 1)
	}
	if corrupt == string(body) {
		t.Fatal("test could not corrupt the body")
	}
	if digest(valueField([]byte(corrupt), "levels")) == want {
		t.Fatal("corrupted served level array accepted")
	}
}

// TestTimedVolumeMatchesEngineBytes cross-checks the outside storage
// measurement against the engine's own wall-clock device accounting on
// a streaming run. In wall mode the engine fills metrics.Run.Devices
// from a storage.Counting volume's traffic over the run; the timed
// volume sits beneath it and must see exactly the same bytes.
//
// The run-level BytesRead/BytesWritten are not the reference: they
// count the engine's logical stream traffic and come out below what
// crosses the volume (they omit part of it), so the test only checks
// that they do not exceed it.
func TestTimedVolumeMatchesEngineBytes(t *testing.T) {
	g, _ := tinyGraph(t)
	tv := newTimedVolume(g.vol)
	vol := storage.NewCounting(tv, "main")
	opts := engineOptions(g.meta.StoredBytes/10, g.meta.Codec)
	opts.Base.Root = seededRoots(runConfig{seed: 5}, g.meta, g.edges)[0]
	res, err := fastbfs.Run(context.Background(), fastbfs.EngineFastBFS, vol, g.meta.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics.Iterations) < 2 {
		t.Fatalf("run did not stream: %d iterations", len(res.Metrics.Iterations))
	}
	if len(res.Metrics.Devices) != 1 {
		t.Fatalf("wall-mode run reports %d devices, want 1", len(res.Metrics.Devices))
	}
	dev := res.Metrics.Devices[0]
	// The engine opens the graph's metadata before its accounting
	// starts; those bytes are the only ones outside the device delta.
	meta, err := g.vol.Size(g.meta.Name + ".conf")
	if err != nil {
		t.Fatal(err)
	}
	perm, err := g.vol.Size(g.meta.Name + ".perm")
	if err != nil {
		t.Fatal(err)
	}
	io := tv.totals()
	if io.read != dev.BytesRead+meta+perm || io.written != dev.BytesWritten {
		t.Fatalf("timed volume read %d and wrote %d bytes; engine device stats %d (+%d metadata) and %d",
			io.read, io.written, dev.BytesRead, meta+perm, dev.BytesWritten)
	}
	if res.Metrics.BytesRead > dev.BytesRead || res.Metrics.BytesWritten > dev.BytesWritten {
		t.Fatalf("engine counts more bytes (%d read, %d written) than crossed the volume (%d, %d)",
			res.Metrics.BytesRead, res.Metrics.BytesWritten, dev.BytesRead, dev.BytesWritten)
	}
	t.Logf("volume: %d read, %d written; metrics.Run: %d read, %d written", dev.BytesRead, dev.BytesWritten, res.Metrics.BytesRead, res.Metrics.BytesWritten)
}

func TestEnvironmentGuard(t *testing.T) {
	t.Setenv("FASTBFS_CODEC", "delta")
	if err := checkEnvironment(); err == nil {
		t.Fatal("FASTBFS_CODEC accepted")
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "rmat-stream"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a refusal without a result", code, out.String())
	}
}
