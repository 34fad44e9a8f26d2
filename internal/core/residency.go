package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sentinel values for Options.ResidencyBudget. Zero leaves the cache
// off too; ResidencyOff is the explicit spelling, which presets such as
// RunXStream pin.
const (
	// ResidencyOff disables the resident-partition cache.
	ResidencyOff int64 = -1
	// ResidencyUnbounded promotes every partition as soon as its live
	// edge set is first trimmed.
	ResidencyUnbounded int64 = math.MaxInt64
)

// ParseResidencyBudget parses a user-facing residency budget: "" is the
// zero value (cache off), "0"/"off"/"none" disable the
// cache, "unbounded"/"unlimited" remove the limit, and anything else is
// a byte count with an optional K/M/G suffix (powers of 1024).
func ParseResidencyBudget(s string) (int64, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return 0, nil
	case "0", "off", "none":
		return ResidencyOff, nil
	case "unbounded", "unlimited":
		return ResidencyUnbounded, nil
	}
	v := strings.TrimSpace(s)
	mult := int64(1)
	switch v[len(v)-1] {
	case 'k', 'K':
		mult, v = 1<<10, v[:len(v)-1]
	case 'm', 'M':
		mult, v = 1<<20, v[:len(v)-1]
	case 'g', 'G':
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid residency budget %q (want bytes with optional K/M/G, 0/off, or unbounded)", s)
	}
	if n > math.MaxInt64/mult {
		return ResidencyUnbounded, nil
	}
	return n * mult, nil
}
