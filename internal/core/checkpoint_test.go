package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Checkpoint/resume tests: a run killed at an iteration boundary or in
// the middle of a stay write must, after resume, produce levels and
// parents byte-identical to an uninterrupted reference run — and must
// never re-run an iteration the manifest records as completed.

// seededGraph stores one deterministic RMAT instance per seed.
func seededGraph(t *testing.T, seed int64) (*storage.Mem, graph.Meta) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	return vol, m
}

// ckOpts is the option set shared by every run in these tests; only the
// checkpoint fields and the iteration cap vary.
func ckOpts(ck storage.Volume, resume bool, maxIter int) Options {
	return Options{
		Base: xstream.Options{
			MemoryBudget:  4096,
			StreamBufSize: 256,
			MaxIterations: maxIter,
			Sim:           xstream.DefaultSim(),
		},
		ResidencyBudget: ResidencyOff,
		CheckpointVol:   ck,
		Resume:          resume,
	}
}

func assertSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Visited != want.Visited {
		t.Fatalf("%s: visited %d, want %d", tag, got.Visited, want.Visited)
	}
	if !slices.Equal(got.Levels, want.Levels) {
		t.Fatalf("%s: levels differ from the uninterrupted reference", tag)
	}
	if !slices.Equal(got.Parents, want.Parents) {
		t.Fatalf("%s: parents differ from the uninterrupted reference", tag)
	}
}

// iterRecorder collects the iteration indices a run actually executed,
// from its trace — the proof that resume skipped completed iterations.
func iterRecorder() (*obs.Tracer, *[]int) {
	iters := &[]int{}
	tr := obs.New()
	tr.AddSink(obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindSpan && e.Name == "iteration" {
			*iters = append(*iters, e.Iter)
		}
	}))
	return tr, iters
}

func TestCrashMatrixBoundaryKills(t *testing.T) {
	// Kill (via the MaxIterations cap, which exits the loop exactly where
	// a process death at an iteration boundary would) at a seed-dependent
	// iteration, resume, and require byte-identical output — across many
	// seeded graphs.
	for seed := int64(1); seed <= 12; seed++ {
		refVol, m := seededGraph(t, seed)
		ref, err := envRun(refVol, m.Name, ckOpts(nil, false, 0))
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		total := len(ref.Metrics.Iterations)
		if total < 2 {
			continue
		}
		killIter := 1 + int(seed)%(total-1)

		vol, _ := seededGraph(t, seed)
		ck := storage.NewMem()
		partial, err := envRun(vol, m.Name, ckOpts(ck, false, killIter))
		if err != nil {
			t.Fatalf("seed %d: partial run: %v", seed, err)
		}
		if partial.Metrics.Checkpoints != killIter {
			t.Fatalf("seed %d: %d checkpoints after %d iterations", seed, partial.Metrics.Checkpoints, killIter)
		}
		man, err := (&checkpointer{vol: ck}).load(m.Vertices)
		if err != nil || man == nil {
			t.Fatalf("seed %d: manifest after partial run: %v %v", seed, man, err)
		}
		if man.Iteration != killIter-1 || man.Done {
			t.Fatalf("seed %d: manifest iteration %d done=%v, want %d false", seed, man.Iteration, man.Done, killIter-1)
		}

		tr, iters := iterRecorder()
		opts := ckOpts(ck, true, 0)
		opts.Base.Tracer = tr
		resumed, err := envRun(vol, m.Name, opts)
		tr.Close()
		if err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		assertSameResult(t, "boundary kill", resumed, ref)
		if resumed.Metrics.Resumed != killIter {
			t.Fatalf("seed %d: resumed=%d, want %d", seed, resumed.Metrics.Resumed, killIter)
		}
		if len(resumed.Metrics.Iterations) != total {
			t.Fatalf("seed %d: %d iteration rows after resume, want %d", seed, len(resumed.Metrics.Iterations), total)
		}
		// The trace proves no completed iteration was re-run: the resumed
		// run's iteration spans start exactly at the manifest's successor.
		if len(*iters) == 0 || (*iters)[0] != killIter {
			t.Fatalf("seed %d: resumed run executed iterations %v, want to start at %d", seed, *iters, killIter)
		}
		for _, it := range *iters {
			if it < killIter {
				t.Fatalf("seed %d: resume re-ran completed iteration %d", seed, it)
			}
		}
	}
}

func TestCrashMatrixMidStayWriteKills(t *testing.T) {
	// Kill the run from inside a stay write (the hook cancels the run's
	// context, which the engine observes mid-iteration), then resume. The
	// pending stay file lost to the crash is the grace-and-cancel path, so
	// the resumed result must still be byte-identical. The loop also
	// doubles as a goroutine-leak check over the abort path.
	warm, wm := seededGraph(t, 100)
	if _, err := envRun(warm, wm.Name, ckOpts(nil, false, 0)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	killed := 0
	for seed := int64(101); seed <= 108; seed++ {
		refVol, m := seededGraph(t, seed)
		ref, err := envRun(refVol, m.Name, ckOpts(nil, false, 0))
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		vol, _ := seededGraph(t, seed)
		ck := storage.NewMem()
		ctx, cancel := context.WithCancel(context.Background())
		var stayWrites atomic.Int64
		killAfter := 1 + int64(seed)%5
		vol.FailWrites(func(name string, written int64) error {
			if strings.Contains(name, "_stay") && stayWrites.Add(1) >= killAfter {
				cancel()
			}
			return nil
		})
		_, err = envRunContext(ctx, vol, m.Name, ckOpts(ck, false, 0))
		vol.FailWrites(nil)
		cancel()
		if err != nil {
			if !errors.Is(err, errs.ErrCancelled) && !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d: killed run died with %v, want cancellation", seed, err)
			}
			killed++
		}

		resumed, err := envRun(vol, m.Name, ckOpts(ck, true, 0))
		if err != nil {
			t.Fatalf("seed %d: resume after mid-write kill: %v", seed, err)
		}
		assertSameResult(t, "mid-stay-write kill", resumed, ref)
	}
	if killed == 0 {
		t.Fatal("no run in the matrix was actually killed mid-write")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across killed-and-resumed runs", before, after)
	}
}

func TestResumeWithNoManifestRunsFresh(t *testing.T) {
	refVol, m := seededGraph(t, 21)
	ref, err := envRun(refVol, m.Name, ckOpts(nil, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	vol, _ := seededGraph(t, 21)
	res, err := envRun(vol, m.Name, ckOpts(storage.NewMem(), true, 0))
	if err != nil {
		t.Fatalf("resume with empty checkpoint volume: %v", err)
	}
	assertSameResult(t, "fresh resume", res, ref)
	if res.Metrics.Resumed != 0 {
		t.Fatalf("fresh run reports %d resumed iterations", res.Metrics.Resumed)
	}
	if res.Metrics.Checkpoints == 0 {
		t.Fatal("checkpointed run wrote no manifests")
	}
}

func TestResumeDoneManifestOnlyRecollects(t *testing.T) {
	vol, m := seededGraph(t, 22)
	ck := storage.NewMem()
	full, err := envRun(vol, m.Name, ckOpts(ck, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	man, err := (&checkpointer{vol: ck}).load(m.Vertices)
	if err != nil || man == nil || !man.Done {
		t.Fatalf("manifest after converged run: %+v, %v", man, err)
	}
	tr, iters := iterRecorder()
	opts := ckOpts(ck, true, 0)
	opts.Base.Tracer = tr
	res, err := envRun(vol, m.Name, opts)
	tr.Close()
	if err != nil {
		t.Fatalf("resume of a finished run: %v", err)
	}
	assertSameResult(t, "done-manifest resume", res, full)
	if len(*iters) != 0 {
		t.Fatalf("resume of a finished run re-executed iterations %v", *iters)
	}
}

func TestResumeCorruptManifestFails(t *testing.T) {
	vol, m := seededGraph(t, 23)
	ck := storage.NewMem()
	if _, err := envRun(vol, m.Name, ckOpts(ck, false, 2)); err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		raw, err := storage.ReadAll(ck, manifestName)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ck.Create(manifestName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(mutate(append([]byte(nil), raw...))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = envRun(vol, m.Name, ckOpts(ck, true, 0))
		if !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("resume from corrupt manifest: %v, want ErrCorrupted", err)
		}
	}

	t.Run("bit flip", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-3] })
	})
	t.Run("not framed", func(t *testing.T) {
		corrupt(t, func([]byte) []byte { return []byte("garbage, not a manifest") })
	})
	t.Run("bad version", func(t *testing.T) {
		corrupt(t, func([]byte) []byte { return graph.FrameAll([]byte(`{"version":99,"iteration":0,"parts":[{}]}`)) })
	})
}

// setManifestIteration rewrites the checkpoint volume's manifest with
// its iteration field replaced, keeping it validly framed.
func setManifestIteration(t *testing.T, ck storage.Volume, iter int) {
	t.Helper()
	raw, err := storage.ReadAll(ck, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	data, err := graph.DeframeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["iteration"] = iter
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(ck, manifestName, graph.FrameAll(data)); err != nil {
		t.Fatal(err)
	}
}

// TestResumeUnreachableIterationFails pins the manifest's range check:
// a validly framed manifest whose last completed iteration no BFS over
// the graph can reach is corrupt, not a run to resume (math.MaxInt
// used to "resume" with Metrics.Resumed wrapped negative).
func TestResumeUnreachableIterationFails(t *testing.T) {
	vol, m := seededGraph(t, 25)
	for _, iter := range []int{math.MaxInt, int(m.Vertices) + 1} {
		ck := storage.NewMem()
		if _, err := envRun(vol, m.Name, ckOpts(ck, false, 2)); err != nil {
			t.Fatal(err)
		}
		setManifestIteration(t, ck, iter)
		res, err := envRun(vol, m.Name, ckOpts(ck, true, 0))
		if !errors.Is(err, errs.ErrCorrupted) {
			resumed := 0
			if res != nil {
				resumed = res.Metrics.Resumed
			}
			t.Fatalf("iteration %d: resume = %v (resumed %d), want ErrCorrupted", iter, err, resumed)
		}
	}
}

// FuzzManifestLoad feeds arbitrary manifest bodies, validly framed, to
// the resume path of a tiny checkpointed run. Properties: nothing
// panics; load either rejects a body as corrupt or accepts one that
// meets its own invariants (known version, partitions present, a
// reachable iteration); and a run resumed from an accepted manifest
// either fails or reports a resumed-iteration count inside the graph's
// iteration range, after seedFromManifest's checks against the run.
func FuzzManifestLoad(f *testing.F) {
	m, edges, err := gen.RMAT(5, 4, gen.Graph500(), 3)
	if err != nil {
		f.Fatal(err)
	}
	base := storage.NewMem()
	if err := graph.Store(base, m, edges); err != nil {
		f.Fatal(err)
	}
	opts := func(ck storage.Volume, resume bool, maxIter int) Options {
		o := ckOpts(ck, resume, maxIter)
		o.Base.MemoryBudget = 128 // four partitions
		o.Base.Codec = graph.CodecFixed
		return o
	}
	// A run cut after two iterations leaves the manifest the seeds vary
	// and the working files it names; every input resumes against a
	// fresh copy of that working volume.
	ck := storage.NewMem()
	if _, err := Run(base, m.Name, opts(ck, false, 2)); err != nil {
		f.Fatal(err)
	}
	raw, err := storage.ReadAll(ck, manifestName)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := graph.DeframeAll(raw)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range base.List() {
		if files[name], err = storage.ReadAll(base, name); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	for _, repl := range []string{`"iteration":9223372036854775807`, `"iteration":-1`, `"iteration":33`, `"iteration":32`} {
		f.Add([]byte(strings.Replace(string(valid), `"iteration":1`, repl, 1)))
	}
	f.Add([]byte(strings.Replace(string(valid), `"done":false`, `"done":true`, 1)))
	f.Add([]byte(`{"version":1,"iteration":0,"parts":[{},{},{},{}]}`))
	f.Add([]byte(`{"version":2,"iteration":0,"parts":[{}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"iteration":`))

	f.Fuzz(func(t *testing.T, body []byte) {
		ck := storage.NewMem()
		if err := storage.WriteAll(ck, manifestName, graph.FrameAll(body)); err != nil {
			t.Fatal(err)
		}
		man, err := (&checkpointer{vol: ck}).load(m.Vertices)
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("load rejected %q with %v, want ErrCorrupted", body, err)
			}
			return
		}
		if man.Version != manifestVersion || man.Iteration < 0 || uint64(man.Iteration) > m.Vertices || len(man.Parts) == 0 {
			t.Fatalf("load accepted %q: version %d, iteration %d, %d partitions", body, man.Version, man.Iteration, len(man.Parts))
		}
		vol := storage.NewMem()
		for name, data := range files {
			if err := storage.WriteAll(vol, name, data); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(vol, m.Name, opts(ck, true, 0))
		if err != nil {
			return
		}
		if r := res.Metrics.Resumed; r < 1 || uint64(r) > m.Vertices+1 {
			t.Fatalf("resumed from %q: Metrics.Resumed = %d, outside [1,%d]", body, r, m.Vertices+1)
		}
	})
}

func TestResumeMismatchedRunFails(t *testing.T) {
	vol, m := seededGraph(t, 24)
	ck := storage.NewMem()
	if _, err := envRun(vol, m.Name, ckOpts(ck, false, 2)); err != nil {
		t.Fatal(err)
	}
	// Same volume and manifest, different file prefix: the manifest's
	// file names do not belong to this run and resume must refuse.
	opts := ckOpts(ck, true, 0)
	opts.Base.FilePrefix = "other"
	if _, err := envRun(vol, m.Name, opts); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume under a different prefix: %v, want ErrCorrupted", err)
	}
	// A fresh volume holds the dataset but none of the working files the
	// manifest names: the checkpoint and working volumes diverged.
	vol2, _ := seededGraph(t, 24)
	if _, err := envRun(vol2, m.Name, ckOpts(ck, true, 0)); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("resume against a volume missing the working files: %v, want ErrCorrupted", err)
	}
}
