package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// recordingVolume snapshots the final bytes of every update and stay
// file at publication (Close) time, keyed by file name in per-name
// publication order — update-set names are reused every other iteration
// and stay names every other trim round, so each name's sequence is its
// per-iteration history.
type recordingVolume struct {
	storage.Volume
	mu  sync.Mutex
	log map[string][][]byte
}

func newRecordingVolume(v storage.Volume) *recordingVolume {
	return &recordingVolume{Volume: v, log: make(map[string][][]byte)}
}

func (rv *recordingVolume) Create(name string) (storage.Writer, error) {
	w, err := rv.Volume.Create(name)
	if err != nil {
		return nil, err
	}
	return &recordingWriter{rv: rv, name: name, w: w}, nil
}

type recordingWriter struct {
	rv   *recordingVolume
	name string
	w    storage.Writer
	buf  []byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.buf = append(w.buf, p[:n]...)
	return n, err
}

func (w *recordingWriter) Close() error {
	err := w.w.Close()
	if err == nil && (strings.Contains(w.name, "_upd") || strings.Contains(w.name, "_stay")) {
		// Stay files publish on the stay-writer goroutine; lock.
		w.rv.mu.Lock()
		w.rv.log[w.name] = append(w.rv.log[w.name], w.buf)
		w.rv.mu.Unlock()
	}
	return err
}

func (w *recordingWriter) Abort() error { return w.w.Abort() }

// runRecorded runs FastBFS with the given worker count on a fresh copy
// of the graph and returns the file log and result.
func runRecorded(t *testing.T, workers int) (*recordingVolume, *Result) {
	t.Helper()
	vol := storage.NewMem()
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	rv := newRecordingVolume(vol)
	res, err := envRun(rv, m.Name, Options{
		Base: xstream.Options{
			Root: 1, MemoryBudget: 8192, StreamBufSize: 512,
			ScatterWorkers: workers, Sim: xstream.DefaultSim(),
		},
		// A grace period longer than any run means every stay file is
		// adopted: adopt-vs-cancel decisions depend only on simulated
		// time, never on real-time races, so the file log is exact.
		GracePeriod: 1e9,
		// The recorded file log includes every stay file; a resident
		// partition would stop producing them, so pin the cache off
		// (FASTBFS_RESIDENCY must not leak into this contract).
		ResidencyBudget: ResidencyOff,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rv, res
}

// TestScatterWorkerCountIsByteDeterministic is the tentpole's contract:
// every update file and every stay file of every iteration is
// byte-identical between a serial run and an 8-worker run, and so is
// the whole metrics record including simulated execution time.
func TestScatterWorkerCountIsByteDeterministic(t *testing.T) {
	rv1, res1 := runRecorded(t, 1)
	rv8, res8 := runRecorded(t, 8)

	if len(rv1.log) == 0 {
		t.Fatal("recording volume captured no update/stay files; test is vacuous")
	}
	var stays, upds int
	for name := range rv1.log {
		if strings.Contains(name, "_stay") {
			stays++
		} else {
			upds++
		}
	}
	if stays == 0 || upds == 0 {
		t.Fatalf("want both stay and update files in the log, got %d stay / %d update names", stays, upds)
	}

	for name, seq1 := range rv1.log {
		seq8, ok := rv8.log[name]
		if !ok {
			t.Errorf("workers=8 never published %s (workers=1 did, %d times)", name, len(seq1))
			continue
		}
		if len(seq8) != len(seq1) {
			t.Errorf("%s: published %d times with 1 worker, %d with 8", name, len(seq1), len(seq8))
			continue
		}
		for i := range seq1 {
			if !bytes.Equal(seq1[i], seq8[i]) {
				t.Errorf("%s publication %d: %d bytes vs %d bytes differ between worker counts",
					name, i, len(seq1[i]), len(seq8[i]))
			}
		}
	}
	for name := range rv8.log {
		if _, ok := rv1.log[name]; !ok {
			t.Errorf("workers=1 never published %s (workers=8 did)", name)
		}
	}

	if res1.Visited != res8.Visited {
		t.Errorf("visited: %d vs %d", res1.Visited, res8.Visited)
	}
	if res1.Metrics.ExecTime != res8.Metrics.ExecTime {
		t.Errorf("simulated exec time: %v vs %v — worker count leaked into the clock", res1.Metrics.ExecTime, res8.Metrics.ExecTime)
	}
	if res1.Metrics.BytesRead != res8.Metrics.BytesRead || res1.Metrics.BytesWritten != res8.Metrics.BytesWritten {
		t.Errorf("byte accounting: r=%d/w=%d vs r=%d/w=%d",
			res1.Metrics.BytesRead, res1.Metrics.BytesWritten, res8.Metrics.BytesRead, res8.Metrics.BytesWritten)
	}
	if len(res1.Metrics.Iterations) != len(res8.Metrics.Iterations) {
		t.Fatalf("iteration count: %d vs %d", len(res1.Metrics.Iterations), len(res8.Metrics.Iterations))
	}
	for i := range res1.Metrics.Iterations {
		if res1.Metrics.Iterations[i] != res8.Metrics.Iterations[i] {
			t.Errorf("iteration %d rows differ: %+v vs %+v", i, res1.Metrics.Iterations[i], res8.Metrics.Iterations[i])
		}
	}
	for i := range res1.Levels {
		if res1.Levels[i] != res8.Levels[i] || res1.Parents[i] != res8.Parents[i] {
			t.Fatalf("vertex %d: level/parent differ between worker counts", i)
		}
	}
}
