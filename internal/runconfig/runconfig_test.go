package runconfig

import (
	"strings"
	"testing"
	"time"

	"fastbfs/internal/xstream"
)

func TestParseFull(t *testing.T) {
	in := `
# the paper's example: an additional disk for update and stay streams
engine = fastbfs
root = 42
memory_budget = 256M
threads = 8
stream_buf = 64K
prefetch_buffers = 4
partitions = 3
max_iterations = 100
direction = auto
trim_start_iteration = 2
trim_visited_fraction = 0.25
disable_trimming = false
disable_selective_scheduling = true
stay_buf_size = 1M
stay_buf_count = 16
grace_period = 0.1
grace_wall_ms = 20
residency_budget = 64M
sim = true
device = ssd
seek_scale = 2048
additional_disk = true
stay_disk_bandwidth_frac = 0.5
`
	cfg, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "fastbfs" || cfg.Root != 42 {
		t.Fatalf("engine/root: %+v", cfg)
	}
	if cfg.MemoryBudget != 256<<20 || cfg.StreamBufSize != 64<<10 || cfg.StayBufSize != 1<<20 {
		t.Fatalf("byte sizes: %+v", cfg)
	}
	if cfg.Threads != 8 || cfg.PrefetchBuffers != 4 || cfg.Partitions != 3 || cfg.MaxIterations != 100 {
		t.Fatalf("ints: %+v", cfg)
	}
	if cfg.TrimStartIteration != 2 || cfg.TrimVisitedFraction != 0.25 || !cfg.DisableSelectiveScheduling {
		t.Fatalf("trim policy: %+v", cfg)
	}
	if cfg.Direction != xstream.DirectionAuto {
		t.Fatalf("direction: %+v", cfg)
	}

	o := cfg.CoreOptions()
	if o.Base.MemoryBudget != 256<<20 || o.Base.Threads != 8 {
		t.Fatalf("core base: %+v", o.Base)
	}
	if o.GraceWall != 20*time.Millisecond || o.GracePeriod != 0.1 || o.StayBufCount != 16 {
		t.Fatalf("core opts: %+v", o)
	}
	if o.ResidencyBudget != 64<<20 {
		t.Fatalf("residency budget: %d", o.ResidencyBudget)
	}
	if o.Base.Direction != xstream.DirectionAuto {
		t.Fatalf("direction not propagated: %+v", o.Base)
	}
	sim := o.Base.Sim
	if sim == nil || sim.MainDisk == nil || sim.AuxDisk == nil || sim.StayDisk == nil {
		t.Fatalf("sim devices missing: %+v", sim)
	}
	if sim.MainDisk.Name != "ssd0" || sim.AuxDisk.Name != "ssd1" {
		t.Fatalf("device names: %s / %s", sim.MainDisk.Name, sim.AuxDisk.Name)
	}
	if sim.StayDisk.Bandwidth != sim.MainDisk.Bandwidth*0.5 {
		t.Fatalf("stay disk bandwidth: %v vs %v", sim.StayDisk.Bandwidth, sim.MainDisk.Bandwidth)
	}
	// Seek scaled down 2048x from the SSD preset.
	if sim.MainDisk.SeekLatency >= 60e-6 {
		t.Fatalf("seek not scaled: %v", sim.MainDisk.SeekLatency)
	}
}

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "fastbfs" || cfg.Device != "hdd" || cfg.SeekScale != 1 || cfg.Sim {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.EngineOptions().Sim != nil {
		t.Fatal("wall-clock config produced a simulation")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown key":      "warp_speed = 9\n",
		"missing equals":   "threads 4\n",
		"bad int":          "threads = many\n",
		"bad bool":         "sim = maybe\n",
		"bad bytes":        "memory_budget = 4Q\n",
		"bad engine":       "engine = spark\n",
		"bad device":       "sim = true\ndevice = tape\n",
		"bad seek scale":   "seek_scale = 0\n",
		"bad trim frac":    "trim_visited_fraction = 1.5\n",
		"negative stay bw": "stay_disk_bandwidth_frac = -1\n",
		"bad direction":    "direction = sideways\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParseBytesSuffixes(t *testing.T) {
	for in, want := range map[string]uint64{
		"123": 123,
		"4K":  4096,
		"2M":  2 << 20,
		"3G":  3 << 30,
		"1 K": 1024, // inner space trimmed
	} {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestParseOverloadKeys(t *testing.T) {
	in := `
shed = true
shed_target_ms = 30
shed_interval_ms = 150
breaker_threshold = 3
breaker_backoff_ms = 250
breaker_max_backoff_ms = 4000
cache_ttl_ms = 60000
priority_header = X-Tier
`
	cfg, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Shed || cfg.ShedTarget != 30*time.Millisecond || cfg.ShedInterval != 150*time.Millisecond {
		t.Fatalf("shed keys: %+v", cfg)
	}
	if cfg.BreakerThreshold != 3 || cfg.BreakerBackoff != 250*time.Millisecond || cfg.BreakerMaxBackoff != 4*time.Second {
		t.Fatalf("breaker keys: %+v", cfg)
	}
	if cfg.CacheTTL != time.Minute || cfg.PriorityHeader != "X-Tier" {
		t.Fatalf("cache/priority keys: %+v", cfg)
	}
}

func TestParseOverloadDefaults(t *testing.T) {
	// An absent daemon key takes the daemon's built-in default, so no
	// layer needs a "not specified" sentinel: a later layer that sets
	// the key simply overwrites it.
	cfg, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shed || cfg.BreakerThreshold != 5 || cfg.CacheTTL != 0 || cfg.BatchSize != 32 {
		t.Fatalf("defaults: shed=%v breaker_threshold=%d cache_ttl=%v batch_size=%d, want false/5/0/32",
			cfg.Shed, cfg.BreakerThreshold, cfg.CacheTTL, cfg.BatchSize)
	}
	if cfg.ShedTarget != 25*time.Millisecond || cfg.BatchWait != 2*time.Millisecond || cfg.PriorityHeader != "X-Fastbfs-Priority" {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg, err = Parse(strings.NewReader("shed = false\nbreaker_threshold = 0\nbatch_size = 0\n"))
	if err != nil {
		t.Fatalf("explicit off values rejected: %v", err)
	}
	if sc := cfg.ServeConfig(); sc.BreakerThreshold != -1 || sc.BatchSize != 0 {
		t.Fatalf("off values reach serve as breaker %d, batch %d; want -1 (off), 0", sc.BreakerThreshold, sc.BatchSize)
	}
}

func TestParseOverloadErrors(t *testing.T) {
	cases := map[string]string{
		"bad shed bool":        "shed = maybe\n",
		"negative shed target": "shed_target_ms = -5\n",
		"negative interval":    "shed_interval_ms = -1\n",
		"bad breaker":          "breaker_threshold = -2\n",
		"negative backoff":     "breaker_backoff_ms = -1\n",
		"negative max backoff": "breaker_max_backoff_ms = -10\n",
		"bad cache ttl":        "cache_ttl_ms = -2\n",
		"negative batch size":  "batch_size = -1\n",
		"bad duration":         "batch_wait_ms = soon\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}
