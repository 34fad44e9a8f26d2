package runconfig

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// clearEnv unsets every variable Resolve reads, so an ambient setting
// in the shell running the tests cannot leak into them.
func clearEnv(t *testing.T) {
	t.Helper()
	for _, e := range envKeys {
		t.Setenv(e.env, "")
	}
	t.Setenv("FASTBFS_FAULTS", "")
}

// newFlags registers settings flags the way the commands do, plus one
// flag with no settings key, which Resolve must leave alone.
func newFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int("workers", 0, "")
	fs.Duration("batch-wait", 0, "")
	fs.String("residency-budget", "", "")
	fs.String("codec", "", "")
	fs.Bool("ssd", false, "")
	fs.Int("max-inflight", 4, "")
	return fs
}

func writeConf(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.conf")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestResolvePrecedence(t *testing.T) {
	// Each layer overrides the one before it: default, then env, then
	// the settings file, then a flag set on the command line. One engine
	// key, one daemon key in the environment's duration syntax, and the
	// residency budget.
	const ms = time.Millisecond
	cases := []struct {
		env, key, flag string
		vals           [3]string // the env, file and flag values
		get            func(Config) any
		want           [4]any // after default, +env, +file, +flag
	}{
		{"FASTBFS_WORKERS", "scatter_workers", "workers", [3]string{"2", "3", "4"},
			func(c Config) any { return c.ScatterWorkers }, [4]any{0, 2, 3, 4}},
		{"FASTBFS_BATCH_WAIT", "batch_wait_ms", "batch-wait", [3]string{"5ms", "7", "9ms"},
			func(c Config) any { return c.BatchWait }, [4]any{2 * ms, 5 * ms, 7 * ms, 9 * ms}},
		{"FASTBFS_RESIDENCY", "residency_budget", "residency-budget", [3]string{"1M", "2M", "unbounded"},
			func(c Config) any { return c.ResidencyBudget }, [4]any{int64(0), int64(1 << 20), int64(2 << 20), core.ResidencyUnbounded}},
	}
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
			clearEnv(t)
			for layers := 0; layers <= 3; layers++ {
				fs, path := newFlags(), ""
				if layers >= 1 {
					t.Setenv(tc.env, tc.vals[0])
				}
				if layers >= 2 {
					path = writeConf(t, tc.key+" = "+tc.vals[1]+"\n")
				}
				if layers >= 3 {
					if err := fs.Parse([]string{"-" + tc.flag, tc.vals[2]}); err != nil {
						t.Fatal(err)
					}
				}
				c, err := Resolve(fs, path)
				if err != nil {
					t.Fatalf("%d layers: %v", layers, err)
				}
				if got := tc.get(c); got != tc.want[layers] {
					t.Fatalf("%d layers: %s = %v, want %v", layers, tc.key, got, tc.want[layers])
				}
			}
		})
	}
}

func TestResolveFlagsBeatFileOnlyWhenSet(t *testing.T) {
	// Flags left at their defaults do not mask the file; -ssd=false set
	// explicitly does, and an empty string flag leaves the file's codec.
	clearEnv(t)
	path := writeConf(t, "scatter_workers = 3\ndevice = ssd\ncodec = delta\n")
	c, err := Resolve(newFlags(), path)
	if err != nil {
		t.Fatal(err)
	}
	if c.ScatterWorkers != 3 || c.Device != "ssd" || c.Codec != "delta" {
		t.Fatalf("unset flags masked the file: %+v", c)
	}
	fs := newFlags()
	if err := fs.Parse([]string{"-ssd=false", "-codec", ""}); err != nil {
		t.Fatal(err)
	}
	if c, err = Resolve(fs, path); err != nil {
		t.Fatal(err)
	}
	if c.Device != "hdd" || c.Codec != "delta" {
		t.Fatalf("-ssd=false -codec '': device %q codec %q, want hdd and the file's delta", c.Device, c.Codec)
	}
}

func TestResolveRejectsMalformedValues(t *testing.T) {
	// A malformed value fails start-up and names where it came from;
	// it never falls back to a default silently.
	for env, val := range map[string]string{
		"FASTBFS_WORKERS":           "many",
		"FASTBFS_DIRECTION":         "sideways",
		"FASTBFS_CODEC":             "zip",
		"FASTBFS_RESIDENCY":         "lots",
		"FASTBFS_BATCH_WAIT":        "soon",
		"FASTBFS_SHED":              "maybe",
		"FASTBFS_BREAKER_THRESHOLD": "-1",
	} {
		clearEnv(t)
		t.Setenv(env, val)
		if _, err := Resolve(newFlags(), ""); err == nil || !strings.Contains(err.Error(), env) {
			t.Errorf("%s=%s: err = %v, want an error naming the variable", env, val, err)
		}
	}
	clearEnv(t)
	path := writeConf(t, "threads = many\n")
	if _, err := Resolve(newFlags(), path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("bad file: err = %v, want an error naming %s", err, path)
	}
	fs := newFlags()
	if err := fs.Parse([]string{"-residency-budget", "lots"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(fs, ""); err == nil || !strings.Contains(err.Error(), "-residency-budget") {
		t.Errorf("bad flag: err = %v, want an error naming -residency-budget", err)
	}
}

func TestResolveKeyTablesNameRealKeys(t *testing.T) {
	var c Config
	for _, e := range envKeys {
		if err := c.set(e.key, ""); err != nil && strings.Contains(err.Error(), "unknown key") {
			t.Errorf("%s maps to unknown key %q", e.env, e.key)
		}
	}
	for fl, key := range flagKeys {
		if err := c.set(key, ""); err != nil && strings.Contains(err.Error(), "unknown key") {
			t.Errorf("-%s maps to unknown key %q", fl, key)
		}
	}
}

func TestFaultVolume(t *testing.T) {
	vol := storage.NewMem()
	t.Setenv("FASTBFS_FAULTS", "")
	if got, err := FaultVolume(vol); err != nil || got != storage.Volume(vol) {
		t.Fatalf("unset: %T, %v; want the volume itself", got, err)
	}
	t.Setenv("FASTBFS_FAULTS", "seed=7,read=0.02")
	if got, err := FaultVolume(vol); err != nil {
		t.Fatal(err)
	} else if _, ok := got.(*storage.Faulty); !ok {
		t.Fatalf("set: %T, want *storage.Faulty", got)
	}
	t.Setenv("FASTBFS_FAULTS", "read=lots")
	if _, err := FaultVolume(vol); !errors.Is(err, errs.ErrBadOptions) || !strings.Contains(err.Error(), "FASTBFS_FAULTS") {
		t.Fatalf("malformed: %v, want ErrBadOptions naming FASTBFS_FAULTS", err)
	}
}

// FuzzParse feeds arbitrary settings files to the parser: it must never
// panic, and every file it accepts must validate and materialize.
func FuzzParse(f *testing.F) {
	f.Add("engine = xstream\nmemory_budget = 64M\nsim = true\n")
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q but Validate fails: %v", in, err)
		}
		cfg.ServeConfig()
	})
}
