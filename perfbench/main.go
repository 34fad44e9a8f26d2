// Command perfbench is the repository's benchmark: one command that
// generates a workload from a seed, times calls into the public entry
// points (fastbfs.Run, fastbfs.StoreGraph, the query service's HTTP
// handler), checks every answer against an in-memory reference, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) by name and unit.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload rmat-stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"query_ms.p50":{"value":..,"unit":"ms"},..}}
//
// A wrong answer, a failed query or a refused request counts in
// "failed" and makes the command exit 1. See README.md for why each
// workload exists and which end-to-end metric each per-layer metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps a metric name to its value and unit.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what one workload run produces.
type report struct {
	attempted int
	failed    int
	// wrong counts answers that failed the correctness check; they are
	// also counted in failed.
	wrong int
	// endToEnd holds the metrics printed with -trace 0, perLayer those
	// printed with -trace 1.
	endToEnd metricSet
	perLayer metricSet
	// notes are extra human-readable lines (sample counts, the metrics
	// a workload reports besides the gated ones).
	notes []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workdir holds the stored graphs; it is emptied before and after
	// the run.
	workdir string
	// traceFile receives a traced run's spans as JSONL (cmd/tracecat
	// reads it).
	traceFile string
	// size selects the full benchmark inputs or the tiny ones the tests
	// use.
	size size
}

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"rmat-stream", "R-MAT scale 16 at a tenth of its stored size in memory: every query streams (the paper's case)", runRMATStream},
	{"path-deep", "a path with back edges: 400 levels, so fixed per-level cost dominates", runPathDeep},
	{"rmat-inmem", "the rmat-stream graph at the 1 GiB budget: the in-memory path against the CSR floor", runRMATInMem},
	{"serve-mixed", "open-loop BFS/MSBFS/SSSP traffic through the query service's HTTP handler", runServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (rmat-stream, path-deep, rmat-inmem, serve-mixed)")
	seed := fs.Int64("seed", 1, "seed every input of the workload is generated from")
	seconds := fs.Float64("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for stored graphs")
	traceDir := fs.String("tracedir", ".bench_build/traces", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := checkEnvironment(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	pinRuntime()
	if err := os.RemoveAll(*workdir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(*workdir)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		workdir:   *workdir,
		traceFile: filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)),
		size:      fullSize,
	}
	if cfg.trace {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rep, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# host %s\n", fingerprint())
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d: %s\n", w.name, *seed, *seconds, *trace, w.why)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	out := rep.endToEnd
	if cfg.trace {
		fillLayers(rep.perLayer)
		out = rep.perLayer
	}
	printTable(stdout, out)
	if err := printResult(stdout, rep, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d queries failed (%d wrong answers)\n", w.name, rep.failed, rep.attempted, rep.wrong)
		return 1
	}
	return 0
}

// printTable writes one "# name value unit" line per metric, sorted.
func printTable(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printResult writes the final JSON line.
func printResult(w io.Writer, rep *report, m metricSet) error {
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rep.wrong == 0 && rep.failed == 0, rep.attempted, rep.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// checkEnvironment refuses runs whose results would not be comparable:
// FASTBFS_* variables change what library defaults resolve to (fault
// injection, codec, workers, direction, residency), and a race-built
// binary is several times slower.
func checkEnvironment() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "FASTBFS_") {
			return fmt.Errorf("environment variable %s changes library behaviour; unset it", strings.SplitN(kv, "=", 2)[0])
		}
	}
	if raceBuilt() {
		return errors.New("binary is race-instrumented; build without -race")
	}
	return nil
}

func raceBuilt() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// workers is the scatter worker count and GOMAXPROCS of every run: one
// per CPU.
func workers() int { return runtime.NumCPU() }

func pinRuntime() { runtime.GOMAXPROCS(workers()) }

// fingerprint records the host and build a result was measured on.
func fingerprint() string {
	commit, flags := "unknown", []string{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case strings.HasPrefix(s.Key, "-"), s.Key == "CGO_ENABLED", s.Key == "GOAMD64", s.Key == "GOARCH", s.Key == "GOOS":
				flags = append(flags, s.Key+"="+s.Value)
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s build=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, strings.Join(flags, ","))
}
