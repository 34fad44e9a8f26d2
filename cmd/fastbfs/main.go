// Command fastbfs runs breadth-first search over a stored graph with a
// selectable engine — FastBFS (default), X-Stream or GraphChi — either
// against real files and the wall clock, or against the simulated
// testbed of the paper.
//
// Usage:
//
//	fastbfs -dir DATA -graph rmat20 -root 1 [-engine fastbfs|xstream|graphchi]
//	        [-mem 1073741824] [-threads 4] [-workers N] [-sim] [-simscale 2048]
//	        [-twodisks] [-ssd] [-trimstart 0] [-notrim] [-noselsched]
//	        [-direction auto|topdown|bottomup] [-residency-budget 64M]
//	        [-checkpoint CKDIR] [-resume]
//	        [-report] [-validate] [-quiet]
//	        [-tracefile trace.jsonl] [-debugaddr localhost:6060]
//	fastbfs -dir DATA -graph rmat20 -config run.conf [flags overriding its keys]
//
// Settings resolve once, in internal/runconfig: a flag set on the
// command line beats the -config file (the paper's runtime settings in
// the dataset configuration's key=value format), which beats the
// FASTBFS_* environment, which beats the built-in defaults. Setting
// FASTBFS_FAULTS wraps the dataset volume in seeded fault injection.
//
// Fault tolerance: -checkpoint names a directory where the FastBFS
// engine persists a crash-consistent manifest after every completed
// iteration; re-running the same command with -resume restarts a killed
// run at the last completed iteration with byte-identical output. I/O
// failures past the retry budget and detected data corruption exit with
// code 4.
//
// Observability: each BFS iteration prints a one-line progress update to
// stderr (suppress with -quiet). -tracefile writes a JSONL span/counter
// trace readable by cmd/tracecat. -debugaddr serves net/http/pprof under
// /debug/pprof/, the live engine counters as expvar under /debug/vars,
// and a plain-text progress page at /.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"

	"fastbfs/internal/bfs"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/runconfig"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func main() {
	d := runconfig.Default()
	dir := flag.String("dir", ".", "directory holding the stored graph")
	name := flag.String("graph", "", "dataset name (required)")
	// Flags carrying a settings key are left unbound: runconfig.Resolve
	// reads back the ones given on the command line.
	flag.String("engine", d.Engine, "engine: fastbfs, xstream or graphchi")
	flag.Uint64("root", 0, "BFS root vertex")
	flag.Uint64("mem", d.MemoryBudget, "working memory budget in bytes")
	flag.Int("threads", d.Threads, "compute threads")
	flag.Int("workers", 0, "scatter worker goroutines (0 = NumCPU; results are identical for any count)")
	flag.Bool("sim", false, "use the simulated testbed instead of wall-clock time")
	flag.Float64("simscale", d.SeekScale, "scale down the simulated positioning cost by this factor")
	flag.Bool("ssd", false, "simulate the SSD instead of the HDD")
	flag.Bool("twodisks", false, "simulate a second disk for update/stay streams")
	flag.Int("trimstart", 0, "fastbfs: delay trimming until this iteration")
	flag.String("direction", "", "search direction: topdown, bottomup, or auto (Beamer-style hybrid; empty = topdown)")
	flag.String("codec", "", "working-file codec: fixed or delta (empty = the dataset's stored codec)")
	flag.String("residency-budget", "", "fastbfs: resident-partition cache budget (bytes with K/M/G suffix, 0/off, or unbounded; empty = off)")
	flag.Bool("notrim", false, "fastbfs: disable trimming")
	flag.Bool("noselsched", false, "fastbfs: disable selective scheduling")
	checkpoint := flag.String("checkpoint", "", "fastbfs: persist a crash-consistent checkpoint manifest to this directory after every iteration")
	resume := flag.Bool("resume", false, "fastbfs: resume from the -checkpoint directory's manifest (fresh run when there is none)")
	report := flag.Bool("report", false, "print the full per-iteration report")
	validate := flag.Bool("validate", false, "validate the BFS tree against the edge list (loads it in memory)")
	configPath := flag.String("config", "", "runtime-settings file (flags set on the command line override its keys)")
	traceFile := flag.String("tracefile", "", "write a JSONL span/counter trace to this file (see cmd/tracecat)")
	debugAddr := flag.String("debugaddr", "", "serve pprof, expvar counters and a progress page on this address (e.g. localhost:6060)")
	quiet := flag.Bool("quiet", false, "suppress per-iteration progress lines on stderr")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "fastbfs: -graph is required")
		os.Exit(2)
	}
	cfg, err := runconfig.Resolve(flag.CommandLine, *configPath)
	if err != nil {
		fail(err)
	}
	eng, err := serve.ParseEngine(cfg.Engine)
	if err != nil {
		fail(err)
	}
	osVol, err := storage.NewOS(*dir)
	if err != nil {
		fail(err)
	}

	ob, vol, err := setupObservability(osVol, *traceFile, *debugAddr, *quiet)
	if err != nil {
		fail(err)
	}
	defer ob.close()
	runVol, err := runconfig.FaultVolume(vol)
	if err != nil {
		fail(err)
	}

	ckVol, err := checkpointVolume(*checkpoint, *resume)
	if err != nil {
		fail(err)
	}

	ob.noteRun(cfg.Engine, *name, cfg.Sim)
	opts := cfg.CoreOptions()
	opts.Base.Tracer = ob.tracer
	opts.CheckpointVol = ckVol
	opts.Resume = *resume
	res, err := serve.RunEngine(context.Background(), eng, runVol, *name, opts)
	if err != nil {
		fail(err)
	}

	printResult(res, *report)
	if *validate {
		validateResult(vol, *name, cfg.Root, res)
	}
}

// checkpointVolume opens the -checkpoint directory as a volume;
// -resume without -checkpoint is a usage error. Returns a nil volume
// (checkpointing off) when no directory was named.
func checkpointVolume(dir string, resume bool) (storage.Volume, error) {
	if dir == "" {
		if resume {
			return nil, fmt.Errorf("-resume needs -checkpoint to name the manifest directory: %w", errs.ErrBadOptions)
		}
		return nil, nil
	}
	return storage.NewOS(dir)
}

func printResult(res *xstream.Result, report bool) {
	if report {
		fmt.Print(res.Metrics.Report())
	} else {
		fmt.Println(res.Metrics.String())
	}
}

func validateResult(vol storage.Volume, name string, root graph.VertexID, res *xstream.Result) {
	m, edges, err := graph.LoadEdges(vol, name)
	if err != nil {
		fail(err)
	}
	r := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Validate(m, edges, r); err != nil {
		fail(fmt.Errorf("validation FAILED: %w", err))
	}
	fmt.Println("validation: OK (Graph500-style parent tree check)")
}

// observability bundles the run's tracer and its attachments (trace
// file, progress printer, debug HTTP server, counting volume).
type observability struct {
	tracer *obs.Tracer
	vol    *storage.Counting // nil when tracing is off
}

// setupObservability builds the tracer requested by the flags and, when
// any observer is active, wraps the volume so byte/op counters flow to
// the progress page and wall-mode device stats. With -quiet and no
// -tracefile/-debugaddr it returns a nil tracer: the engines' hot paths
// then pay nothing.
func setupObservability(vol storage.Volume, traceFile, debugAddr string, quiet bool) (*observability, storage.Volume, error) {
	if traceFile == "" && debugAddr == "" && quiet {
		return &observability{}, vol, nil
	}
	tr := obs.New()
	cv := storage.NewCounting(vol, "os0")
	ob := &observability{tracer: tr, vol: cv}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, nil, err
		}
		tr.AddSink(obs.NewJSONLSink(f))
	}
	if !quiet {
		tr.AddSink(progressSink(os.Stderr))
	}
	if debugAddr != "" {
		if err := ob.serveDebug(debugAddr); err != nil {
			return nil, nil, err
		}
	}
	return ob, cv, nil
}

func (ob *observability) close() {
	if err := ob.tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fastbfs: closing trace:", err)
	}
}

func (ob *observability) noteRun(engine, graphName string, sim bool) {
	mode := "wall"
	if sim {
		mode = "sim"
	}
	ob.tracer.Note("run", map[string]string{"engine": engine, "graph": graphName, "mode": mode})
}

// progressSink prints a one-line update per completed BFS iteration.
// Timestamps are virtual seconds in sim mode, wall seconds otherwise.
func progressSink(w *os.File) obs.Sink {
	return obs.FuncSink(func(e obs.Event) {
		if e.Kind != obs.KindSpan || e.Name != "iteration" {
			return
		}
		fmt.Fprintf(w, "iter %3d  frontier=%-9d new=%-9d edges=%-10d t=%.3fs\n",
			e.Iter, e.Attrs["frontier"], e.Attrs["new"], e.Attrs["edges"], e.T)
	})
}

var publishOnce sync.Once

// serveDebug starts the debug HTTP server: net/http/pprof under
// /debug/pprof/, expvar (including the live engine counters, published
// as "fastbfs") under /debug/vars, and a plain-text progress page at /.
func (ob *observability) serveDebug(addr string) error {
	publishOnce.Do(func() {
		expvar.Publish("fastbfs", expvar.Func(func() any { return ob.tracer.CounterMap() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", ob.progressPage)
	// Bind synchronously so a bad address fails the run up front; the
	// server itself runs for the life of the process.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server on %s: %w", addr, err)
	}
	go http.Serve(ln, mux)
	return nil
}

func (ob *observability) progressPage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "fastbfs live progress\n\n")
	fmt.Fprintf(w, "engine time: %.3f s\n\n", ob.tracer.LastTime())
	for _, cv := range ob.tracer.Snapshot() {
		fmt.Fprintf(w, "%-22s %d\n", cv.Name, cv.Value)
	}
	if ob.vol != nil {
		s := ob.vol.Stats()
		fmt.Fprintf(w, "\nvolume %s: read=%d bytes (%d opens), written=%d bytes (%d files)\n",
			ob.vol.Name(), s.BytesRead, s.ReadOps, s.BytesWritten, s.WriteOps)
	}
}

// fail exits with a code derived from the error's sentinel: 2 for a
// malformed request (bad flags, unknown engine, root out of range), 3
// for a missing graph, 4 for an I/O failure past the retry budget or
// detected data corruption, 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "fastbfs:", err)
	switch {
	case errors.Is(err, errs.ErrBadOptions):
		os.Exit(2)
	case errors.Is(err, errs.ErrGraphNotFound):
		os.Exit(3)
	case errors.Is(err, errs.ErrIOFailed), errors.Is(err, errs.ErrCorrupted):
		os.Exit(4)
	}
	os.Exit(1)
}
