// Package runconfig implements the runtime-settings side of the FastBFS
// configuration file: "FastBFS ... uses an associated configuration file
// to describe the graph characteristics (e.g., vertices number) and
// runtime settings (e.g., the additional disk location), etc." (§III).
// Graph characteristics live next to the dataset (graph.ReadConfig);
// this file carries the per-run knobs — engine, budgets, buffers, trim
// policy, and the simulated device layout — in the same plain key=value
// format.
//
// The same keys are the commands' single settings surface: Resolve
// layers the built-in defaults, the FASTBFS_* environment, a settings
// file and explicitly set flags, in that order of precedence, through
// one key setter. The engines themselves read no environment variable.
package runconfig

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/core"
	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Config is a resolved set of runtime settings.
type Config struct {
	// Engine selects fastbfs (default), xstream or graphchi.
	Engine string
	// Root is the BFS source vertex.
	Root graph.VertexID

	// Engine-shared settings (zero = engine default).
	MemoryBudget    uint64
	Threads         int
	StreamBufSize   int
	PrefetchBuffers int
	Partitions      int
	MaxIterations   int
	ScatterWorkers  int
	// Direction is the traversal direction policy: topdown (default),
	// bottomup, or auto for the Beamer-style hybrid.
	Direction xstream.Direction
	// Codec is the working-file codec for the run (fixed or delta).
	// Empty means the dataset's stored codec.
	Codec graph.Codec
	// Reorder is the store-time half of the codec surface: tools that
	// build datasets from a settings file (see StoreOptions) relabel
	// vertices by descending degree. Engines ignore it — a reordered
	// dataset is detected from its own config and translated at the API
	// boundary.
	Reorder bool

	// FastBFS trim policy.
	TrimStartIteration         int
	TrimVisitedFraction        float64
	DisableTrimming            bool
	DisableSelectiveScheduling bool
	StayBufSize                int
	StayBufCount               int
	GracePeriod                float64
	GraceWall                  time.Duration
	// ResidencyBudget is the resident-partition cache budget in
	// core.Options semantics (0 or core.ResidencyOff = off,
	// core.ResidencyUnbounded).
	ResidencyBudget int64

	// Simulated testbed. Sim=false runs wall-clock against real files.
	Sim bool
	// Device is "hdd" or "ssd".
	Device string
	// SeekScale divides the positioning cost (scaled testbeds).
	SeekScale float64
	// AdditionalDisk places update and stay-out streams on a second
	// device — the paper's example runtime setting.
	AdditionalDisk bool
	// StayDiskBandwidthFrac, when > 0, adds a dedicated stay disk with
	// the main device's bandwidth multiplied by this fraction.
	StayDiskBandwidthFrac float64

	// Serving-layer settings (DESIGN.md §13, §15); only the daemon
	// reads them, engine runs ignore them. See ServeConfig.
	BatchSize         int
	BatchWait         time.Duration
	Shed              bool
	ShedTarget        time.Duration
	ShedInterval      time.Duration
	BreakerThreshold  int // 0 disables the breaker
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	CacheTTL          time.Duration // 0: entries never expire
	PriorityHeader    string
}

// Default returns the configuration used when no layer sets a key.
func Default() Config {
	return Config{
		Engine: "fastbfs", MemoryBudget: 1 << 30, Threads: 4, Device: "hdd", SeekScale: 1,
		BatchSize: algo.MaxBatchRoots, BatchWait: 2 * time.Millisecond,
		ShedTarget: 25 * time.Millisecond, ShedInterval: 100 * time.Millisecond,
		BreakerThreshold: 5, BreakerBackoff: 500 * time.Millisecond, BreakerMaxBackoff: 8 * time.Second,
		PriorityHeader: "X-Fastbfs-Priority",
	}
}

// envKeys maps each FASTBFS_* environment variable to the key it sets.
var envKeys = []struct{ env, key string }{
	{"FASTBFS_WORKERS", "scatter_workers"},
	{"FASTBFS_DIRECTION", "direction"},
	{"FASTBFS_CODEC", "codec"},
	{"FASTBFS_RESIDENCY", "residency_budget"},
	{"FASTBFS_BATCH_SIZE", "batch_size"},
	{"FASTBFS_BATCH_WAIT", "batch_wait_ms"},
	{"FASTBFS_SHED", "shed"},
	{"FASTBFS_SHED_TARGET", "shed_target_ms"},
	{"FASTBFS_SHED_INTERVAL", "shed_interval_ms"},
	{"FASTBFS_BREAKER_THRESHOLD", "breaker_threshold"},
	{"FASTBFS_BREAKER_BACKOFF", "breaker_backoff_ms"},
	{"FASTBFS_BREAKER_MAX_BACKOFF", "breaker_max_backoff_ms"},
	{"FASTBFS_CACHE_TTL", "cache_ttl_ms"},
	{"FASTBFS_PRIORITY_HEADER", "priority_header"},
}

// flagKeys maps each command-line flag of cmd/fastbfs and cmd/fastbfsd
// that carries a setting to its key. -ssd is the boolean spelling of
// device.
var flagKeys = map[string]string{
	"engine": "engine", "root": "root", "mem": "memory_budget", "threads": "threads",
	"workers": "scatter_workers", "direction": "direction", "codec": "codec",
	"residency-budget": "residency_budget", "trimstart": "trim_start_iteration",
	"notrim": "disable_trimming", "noselsched": "disable_selective_scheduling",
	"sim": "sim", "ssd": "device", "simscale": "seek_scale", "twodisks": "additional_disk",
	"batch-size": "batch_size", "batch-wait": "batch_wait_ms", "shed": "shed",
	"shed-target": "shed_target_ms", "shed-interval": "shed_interval_ms",
	"breaker-threshold": "breaker_threshold", "breaker-backoff": "breaker_backoff_ms",
	"breaker-max-backoff": "breaker_max_backoff_ms", "cache-ttl": "cache_ttl_ms",
	"priority-header": "priority_header",
}

// Resolve builds a command's settings from four layers, each overriding
// the one before: Default, the FASTBFS_* environment, the settings file
// at path (none when path is empty) and the flags set explicitly on fs.
// Every value goes through the key setter Parse uses, so each layer
// takes the same syntax, and a malformed value fails naming its source.
// An empty variable or string flag leaves the layers below in effect.
func Resolve(fs *flag.FlagSet, path string) (Config, error) {
	c := Default()
	for _, e := range envKeys {
		if v := os.Getenv(e.env); v != "" {
			if err := c.set(e.key, v); err != nil {
				return c, fmt.Errorf("runconfig: %s: %w", e.env, err)
			}
		}
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return c, fmt.Errorf("runconfig: %w", err)
		}
		err = c.parse(f)
		f.Close()
		if err != nil {
			return c, fmt.Errorf("%s: %w", path, err)
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		key, ok := flagKeys[f.Name]
		val := f.Value.String()
		if !ok || val == "" || err != nil {
			return
		}
		if f.Name == "ssd" {
			if val == "true" {
				val = "ssd"
			} else {
				val = "hdd"
			}
		}
		if e := c.set(key, val); e != nil {
			err = fmt.Errorf("runconfig: -%s: %w", f.Name, e)
		}
	})
	if err != nil {
		return c, err
	}
	return c, c.Validate()
}

// FaultVolume wraps vol in the seeded fault injection FASTBFS_FAULTS
// describes (storage.ParseFaultSpec) and returns vol itself when the
// variable is unset. It is the commands' chaos entry point; a library
// caller gets faults only by wrapping its own volume.
func FaultVolume(vol storage.Volume) (storage.Volume, error) {
	spec, err := storage.ParseFaultSpec(os.Getenv("FASTBFS_FAULTS"))
	if err != nil {
		return nil, fmt.Errorf("runconfig: FASTBFS_FAULTS: %w: %v", errs.ErrBadOptions, err)
	}
	if !spec.Enabled() {
		return vol, nil
	}
	return storage.NewFaulty(vol, spec), nil
}

// Parse reads a runtime-settings file over Default. Unknown keys are
// rejected — unlike the dataset config, a typo in a tuning knob should
// not pass silently. Blank lines and '#' comments are ignored.
func Parse(r io.Reader) (Config, error) {
	cfg := Default()
	if err := cfg.parse(r); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// parse applies a settings file's lines to c.
func (c *Config) parse(r io.Reader) error {
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("runconfig: line %d: missing '=': %q", lineno, line)
		}
		if err := c.set(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("runconfig: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("runconfig: %w", err)
	}
	return nil
}

func (c *Config) set(key, val string) error {
	var err error
	switch key {
	case "engine":
		c.Engine = val
	case "root":
		var v uint64
		v, err = strconv.ParseUint(val, 10, 32)
		c.Root = graph.VertexID(v)
	case "memory_budget":
		c.MemoryBudget, err = parseBytes(val)
	case "threads":
		c.Threads, err = strconv.Atoi(val)
	case "stream_buf":
		var v uint64
		v, err = parseBytes(val)
		c.StreamBufSize = int(v)
	case "prefetch_buffers":
		c.PrefetchBuffers, err = strconv.Atoi(val)
	case "partitions":
		c.Partitions, err = strconv.Atoi(val)
	case "max_iterations":
		c.MaxIterations, err = strconv.Atoi(val)
	case "scatter_workers":
		c.ScatterWorkers, err = strconv.Atoi(val)
	case "direction":
		c.Direction, err = xstream.ParseDirection(val)
	case "codec":
		c.Codec, err = graph.ParseCodec(val)
	case "reorder":
		c.Reorder, err = strconv.ParseBool(val)
	case "trim_start_iteration":
		c.TrimStartIteration, err = strconv.Atoi(val)
	case "trim_visited_fraction":
		c.TrimVisitedFraction, err = strconv.ParseFloat(val, 64)
	case "disable_trimming":
		c.DisableTrimming, err = strconv.ParseBool(val)
	case "disable_selective_scheduling":
		c.DisableSelectiveScheduling, err = strconv.ParseBool(val)
	case "stay_buf_size":
		var v uint64
		v, err = parseBytes(val)
		c.StayBufSize = int(v)
	case "stay_buf_count":
		c.StayBufCount, err = strconv.Atoi(val)
	case "grace_period":
		c.GracePeriod, err = strconv.ParseFloat(val, 64)
	case "grace_wall_ms":
		c.GraceWall, err = parseMillis(val)
	case "residency_budget":
		c.ResidencyBudget, err = core.ParseResidencyBudget(val)
	case "sim":
		c.Sim, err = strconv.ParseBool(val)
	case "device":
		c.Device = val
	case "seek_scale":
		c.SeekScale, err = strconv.ParseFloat(val, 64)
	case "additional_disk":
		c.AdditionalDisk, err = strconv.ParseBool(val)
	case "stay_disk_bandwidth_frac":
		c.StayDiskBandwidthFrac, err = strconv.ParseFloat(val, 64)
	case "batch_size":
		c.BatchSize, err = parseCount(val)
	case "batch_wait_ms":
		c.BatchWait, err = parseMillis(val)
	case "shed":
		c.Shed, err = strconv.ParseBool(val)
	case "shed_target_ms":
		c.ShedTarget, err = parseMillis(val)
	case "shed_interval_ms":
		c.ShedInterval, err = parseMillis(val)
	case "breaker_threshold":
		c.BreakerThreshold, err = parseCount(val)
	case "breaker_backoff_ms":
		c.BreakerBackoff, err = parseMillis(val)
	case "breaker_max_backoff_ms":
		c.BreakerMaxBackoff, err = parseMillis(val)
	case "cache_ttl_ms":
		c.CacheTTL, err = parseMillis(val)
	case "priority_header":
		c.PriorityHeader = val
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("bad value for %s: %w", key, err)
	}
	return nil
}

// parseCount accepts a non-negative integer.
func parseCount(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative", n)
	}
	return n, err
}

// parseMillis reads a *_ms key: a plain integer counts milliseconds,
// and a Go duration ("2ms", "1.5s") — the syntax of the matching flag
// and environment variable — is taken as written. Negative values are
// rejected.
func parseMillis(val string) (time.Duration, error) {
	var d time.Duration
	n, err := strconv.Atoi(val)
	if err == nil {
		d = time.Duration(n) * time.Millisecond
	} else {
		d, err = time.ParseDuration(val)
	}
	if err == nil && d < 0 {
		err = fmt.Errorf("%v is negative", d)
	}
	return d, err
}

// parseBytes accepts plain byte counts and K/M/G suffixes (powers of
// 1024): "256M", "4G", "1048576".
func parseBytes(val string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(val, "K"):
		mult, val = 1<<10, strings.TrimSuffix(val, "K")
	case strings.HasSuffix(val, "M"):
		mult, val = 1<<20, strings.TrimSuffix(val, "M")
	case strings.HasSuffix(val, "G"):
		mult, val = 1<<30, strings.TrimSuffix(val, "G")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// Validate checks cross-field consistency.
func (c Config) Validate() error {
	switch c.Engine {
	case "fastbfs", "xstream", "graphchi":
	default:
		return fmt.Errorf("runconfig: unknown engine %q", c.Engine)
	}
	switch c.Device {
	case "hdd", "ssd":
	default:
		return fmt.Errorf("runconfig: unknown device %q (hdd or ssd)", c.Device)
	}
	if !(c.SeekScale > 0) {
		return fmt.Errorf("runconfig: seek_scale must be positive, got %v", c.SeekScale)
	}
	if !(c.TrimVisitedFraction >= 0 && c.TrimVisitedFraction <= 1) {
		return fmt.Errorf("runconfig: trim_visited_fraction %v outside [0,1]", c.TrimVisitedFraction)
	}
	if !(c.StayDiskBandwidthFrac >= 0) {
		return fmt.Errorf("runconfig: stay_disk_bandwidth_frac must be non-negative")
	}
	return nil
}

// EngineOptions materializes the engine-shared option set, building the
// simulated devices when Sim is set.
func (c Config) EngineOptions() xstream.Options {
	o := xstream.Options{
		Root:            c.Root,
		MemoryBudget:    c.MemoryBudget,
		Threads:         c.Threads,
		StreamBufSize:   c.StreamBufSize,
		PrefetchBuffers: c.PrefetchBuffers,
		Partitions:      c.Partitions,
		MaxIterations:   c.MaxIterations,
		ScatterWorkers:  c.ScatterWorkers,
		Direction:       c.Direction,
		Codec:           c.Codec,
	}
	if !c.Sim {
		return o
	}
	mk := func(name string) *disksim.Device {
		if c.Device == "ssd" {
			return disksim.SSDScaled(name, c.SeekScale)
		}
		return disksim.HDDScaled(name, c.SeekScale)
	}
	sim := &xstream.SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: mk(c.Device + "0"),
	}
	if c.AdditionalDisk {
		sim.AuxDisk = mk(c.Device + "1")
	}
	if c.StayDiskBandwidthFrac > 0 {
		stay := mk("stay0")
		stay.Bandwidth *= c.StayDiskBandwidthFrac
		sim.StayDisk = stay
	}
	o.Sim = sim
	return o
}

// StoreOptions materializes the store-time settings (codec, degree
// reordering) for tools that build datasets from the same settings
// file. Reverse is always requested — stored datasets carry the
// reverse file so every traversal direction works.
func (c Config) StoreOptions() graph.StoreOptions {
	return graph.StoreOptions{Codec: c.Codec, Reverse: true, ReorderByDegree: c.Reorder}
}

// CoreOptions materializes the full FastBFS option set.
func (c Config) CoreOptions() core.Options {
	return core.Options{
		Base:                       c.EngineOptions(),
		TrimStartIteration:         c.TrimStartIteration,
		TrimVisitedFraction:        c.TrimVisitedFraction,
		DisableTrimming:            c.DisableTrimming,
		DisableSelectiveScheduling: c.DisableSelectiveScheduling,
		StayBufSize:                c.StayBufSize,
		StayBufCount:               c.StayBufCount,
		GracePeriod:                c.GracePeriod,
		GraceWall:                  c.GraceWall,
		ResidencyBudget:            c.ResidencyBudget,
	}
}

// ServeConfig materializes the query-service settings, with CoreOptions
// as every query's engine base. The caller fills in what no key covers:
// admission limits, cache size, tracing and chaos hooks.
func (c Config) ServeConfig() serve.Config {
	sc := serve.Config{
		BatchSize:         c.BatchSize,
		BatchWait:         c.BatchWait,
		Shed:              c.Shed,
		ShedTarget:        c.ShedTarget,
		ShedInterval:      c.ShedInterval,
		CacheTTL:          c.CacheTTL,
		BreakerThreshold:  c.BreakerThreshold,
		BreakerBackoff:    c.BreakerBackoff,
		BreakerMaxBackoff: c.BreakerMaxBackoff,
		PriorityHeader:    c.PriorityHeader,
		Base:              c.CoreOptions(),
	}
	if c.BreakerThreshold == 0 {
		// The key's 0 means "breaker off"; the serve layer spells that -1
		// (its 0 selects the default threshold).
		sc.BreakerThreshold = -1
	}
	return sc
}
