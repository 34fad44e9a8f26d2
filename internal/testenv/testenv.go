// Package testenv lets a test suite pick up the FASTBFS_* variables that
// CI's matrix cells set — worker count, direction, codec, residency
// budget and fault injection — so one suite covers each setting without
// pinning it in every test. The engines never read the environment:
// commands resolve these settings once, in internal/runconfig. Only
// tests import this package.
//
// Every helper fills only what the test left unset, so a test that pins
// a setting keeps it. A malformed value panics with the variable's name:
// a typo must not quietly run the suite without the setting it asked for.
package testenv

import (
	"fmt"
	"os"
	"strconv"

	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Options returns o with its zero ScatterWorkers, Direction and Codec
// taken from FASTBFS_WORKERS, FASTBFS_DIRECTION and FASTBFS_CODEC.
func Options(o xstream.Options) xstream.Options {
	if s := os.Getenv("FASTBFS_WORKERS"); s != "" && o.ScatterWorkers == 0 {
		n, err := strconv.Atoi(s)
		check("FASTBFS_WORKERS", err)
		o.ScatterWorkers = n
	}
	if s := os.Getenv("FASTBFS_DIRECTION"); s != "" && o.Direction == "" {
		d, err := xstream.ParseDirection(s)
		check("FASTBFS_DIRECTION", err)
		o.Direction = d
	}
	if s := os.Getenv("FASTBFS_CODEC"); s != "" && o.Codec == "" {
		c, err := graph.ParseCodec(s)
		check("FASTBFS_CODEC", err)
		o.Codec = c
	}
	return o
}

// Residency returns budget, or the budget FASTBFS_RESIDENCY names when
// budget is 0. parse is core.ParseResidencyBudget, passed in because
// core's own tests use this package, so it cannot import core.
func Residency(budget int64, parse func(string) (int64, error)) int64 {
	if s := os.Getenv("FASTBFS_RESIDENCY"); s != "" && budget == 0 {
		b, err := parse(s)
		check("FASTBFS_RESIDENCY", err)
		budget = b
	}
	return budget
}

// Volume wraps vol in the seeded fault injection FASTBFS_FAULTS names.
// A volume that is already Faulty (the test drives its own faults) is
// returned as is.
func Volume(vol storage.Volume) storage.Volume {
	s := os.Getenv("FASTBFS_FAULTS")
	if _, already := vol.(*storage.Faulty); s == "" || already {
		return vol
	}
	spec, err := storage.ParseFaultSpec(s)
	check("FASTBFS_FAULTS", err)
	if !spec.Enabled() {
		return vol
	}
	return storage.NewFaulty(vol, spec)
}

func check(name string, err error) {
	if err != nil {
		panic(fmt.Sprintf("testenv: %s: %v", name, err))
	}
}
