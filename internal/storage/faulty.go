package storage

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Faulty wraps a Volume and injects I/O faults with seeded, reproducible
// randomness. It is the chaos half of the fault-tolerance story: the
// stream layer's retry/backoff and the engine's checksummed frames are
// exercised by running real workloads through a Faulty volume rather
// than by mocking individual failures.
//
// Fault classes:
//
//   - transient read/write errors (ReadP / WriteP): the operation fails
//     with a Transient FaultError *before* touching the inner volume, so
//     a retry of the same call is always safe and eventually succeeds;
//   - permanent read/write errors (PReadP / PWriteP): as above but the
//     FaultError is not transient, modelling a dead sector or a pulled
//     disk — retries are pointless and the stream layer gives up fast;
//   - torn writes (TornP): the file is silently truncated at a random
//     byte before being published, modelling a crash between a write and
//     its completion — only checksummed frames can detect this;
//   - bit flips (FlipP): one random published byte is inverted,
//     modelling silent media corruption — again only checksums help.
//
// Probabilities are per-operation (per Read/Write call for transient and
// permanent errors, per file for torn writes and bit flips). Create,
// Rename, Remove and the metadata calls are never faulted: the fault
// model is data-path corruption and data-path errors, not namespace
// loss. ReadRange/Patch (GraphChi's path) pass through unfaulted.
type Faulty struct {
	inner Volume
	spec  FaultSpec

	mu  sync.Mutex
	rng uint64
}

// FaultSpec configures a Faulty volume. The zero value injects nothing.
type FaultSpec struct {
	// Seed makes the fault sequence reproducible. Two Faulty volumes
	// with the same seed and the same operation sequence inject the
	// same faults.
	Seed uint64
	// ReadP / WriteP are per-call probabilities of a transient error.
	ReadP, WriteP float64
	// PReadP / PWriteP are per-call probabilities of a permanent error.
	PReadP, PWriteP float64
	// TornP is the per-file probability that a written file is
	// truncated at a random byte before publishing.
	TornP float64
	// FlipP is the per-file probability that one random byte of a
	// written file is inverted before publishing.
	FlipP float64
	// Match restricts injection to files whose name contains the
	// substring. Empty matches every file.
	Match string
}

// ParseFaultSpec parses a comma-separated key=value spec, the format of
// the FASTBFS_FAULTS environment variable the commands read:
//
//	seed=7,read=0.02,write=0.02,pread=0,pwrite=0,torn=0.01,flip=0.01,match=_stay
//
// Unknown keys are an error so typos fail loudly rather than silently
// running a fault-free "chaos" suite.
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("storage: fault spec %q: missing '=' in %q", s, part)
		}
		if k == "seed" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("storage: fault spec seed %q: %w", v, err)
			}
			spec.Seed = n
			continue
		}
		if k == "match" {
			spec.Match = v
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
			return spec, fmt.Errorf("storage: fault spec %s=%q: want probability in [0,1]", k, v)
		}
		switch k {
		case "read":
			spec.ReadP = p
		case "write":
			spec.WriteP = p
		case "pread":
			spec.PReadP = p
		case "pwrite":
			spec.PWriteP = p
		case "torn":
			spec.TornP = p
		case "flip":
			spec.FlipP = p
		default:
			return spec, fmt.Errorf("storage: fault spec: unknown key %q", k)
		}
	}
	return spec, nil
}

// Enabled reports whether the spec injects any fault at all.
func (s FaultSpec) Enabled() bool {
	return s.ReadP > 0 || s.WriteP > 0 || s.PReadP > 0 || s.PWriteP > 0 ||
		s.TornP > 0 || s.FlipP > 0
}

// FaultError is the error injected by a Faulty volume.
type FaultError struct {
	Op        string // "read" or "write"
	Name      string // file name the operation targeted
	Transient bool   // true if a retry of the same call can succeed
}

func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("storage: injected %s %s fault on %s", kind, e.Op, e.Name)
}

// IsTransient reports whether err is (or wraps) a fault that a bounded
// retry of the same operation may clear. The stream layer's Retrier
// retries exactly these; everything else fails immediately.
func IsTransient(err error) bool {
	for err != nil {
		if fe, ok := err.(*FaultError); ok {
			return fe.Transient
		}
		if u, ok := err.(interface{ Unwrap() error }); ok {
			err = u.Unwrap()
			continue
		}
		return false
	}
	return false
}

// NewFaulty wraps vol with the given fault spec.
func NewFaulty(vol Volume, spec FaultSpec) *Faulty {
	return &Faulty{inner: vol, spec: spec, rng: spec.Seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
}

// Inner returns the wrapped volume, so callers that sniff for concrete
// volume types (e.g. the runtime looking for a Counting volume) can see
// through the fault layer.
func (v *Faulty) Inner() Volume { return v.inner }

// next is a splitmix64 step under the mutex: cheap, seedable, and not
// shared with math/rand so test-global rand state cannot perturb the
// fault sequence.
func (v *Faulty) next() uint64 {
	v.mu.Lock()
	v.rng += 0x9E3779B97F4A7C15
	z := v.rng
	v.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll returns true with probability p.
func (v *Faulty) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(v.next()>>11)/float64(1<<53) < p
}

func (v *Faulty) matches(name string) bool {
	return v.spec.Match == "" || strings.Contains(name, v.spec.Match)
}

// Create implements Volume. Create itself never fails by injection; the
// returned writer carries the write-side fault behaviour.
func (v *Faulty) Create(name string) (Writer, error) {
	w, err := v.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if !v.matches(name) {
		return w, nil
	}
	return &faultyWriter{vol: v, name: name, inner: w}, nil
}

// Open implements Volume.
func (v *Faulty) Open(name string) (Reader, error) {
	r, err := v.inner.Open(name)
	if err != nil {
		return nil, err
	}
	if !v.matches(name) {
		return r, nil
	}
	return &faultyReader{vol: v, name: name, inner: r}, nil
}

// Remove implements Volume.
func (v *Faulty) Remove(name string) error { return v.inner.Remove(name) }

// Rename implements Volume.
func (v *Faulty) Rename(src, dst string) error { return v.inner.Rename(src, dst) }

// Exists implements Volume.
func (v *Faulty) Exists(name string) bool { return v.inner.Exists(name) }

// Size implements Volume.
func (v *Faulty) Size(name string) (int64, error) { return v.inner.Size(name) }

// List implements Volume.
func (v *Faulty) List() []string { return v.inner.List() }

// ReadRange implements RangeVolume, unfaulted, when the wrapped volume
// does.
func (v *Faulty) ReadRange(name string, off, length int64) ([]byte, error) {
	rv, ok := v.inner.(RangeVolume)
	if !ok {
		return nil, fmt.Errorf("storage: %T does not support ReadRange", v.inner)
	}
	return rv.ReadRange(name, off, length)
}

// Patch implements RangeVolume, unfaulted, when the wrapped volume does.
func (v *Faulty) Patch(name string, off int64, data []byte) error {
	rv, ok := v.inner.(RangeVolume)
	if !ok {
		return fmt.Errorf("storage: %T does not support Patch", v.inner)
	}
	return rv.Patch(name, off, data)
}

type faultyReader struct {
	vol   *Faulty
	name  string
	inner Reader
	dead  error // sticky permanent fault
}

func (r *faultyReader) Read(p []byte) (int, error) {
	if r.dead != nil {
		return 0, r.dead
	}
	// Faults fire *before* the inner read consumes bytes, so a retried
	// call observes the stream exactly where the failed call left it.
	if r.vol.roll(r.vol.spec.PReadP) {
		r.dead = &FaultError{Op: "read", Name: r.name, Transient: false}
		return 0, r.dead
	}
	if r.vol.roll(r.vol.spec.ReadP) {
		return 0, &FaultError{Op: "read", Name: r.name, Transient: true}
	}
	return r.inner.Read(p)
}

func (r *faultyReader) Close() error { return r.inner.Close() }
func (r *faultyReader) Size() int64  { return r.inner.Size() }

// faultyWriter buffers everything and publishes through the inner
// writer at Close, so torn-write truncation and bit flips can be
// applied to the complete file image. Transient/permanent write errors
// fire before the buffer mutates, keeping retries idempotent. Torn and
// flipped files publish *silently* — that is the point: only the framed
// checksums downstream can tell.
type faultyWriter struct {
	vol   *Faulty
	name  string
	inner Writer
	buf   []byte
	dead  error
}

func (w *faultyWriter) Write(p []byte) (int, error) {
	if w.dead != nil {
		return 0, w.dead
	}
	if w.vol.roll(w.vol.spec.PWriteP) {
		w.dead = &FaultError{Op: "write", Name: w.name, Transient: false}
		return 0, w.dead
	}
	if w.vol.roll(w.vol.spec.WriteP) {
		return 0, &FaultError{Op: "write", Name: w.name, Transient: true}
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *faultyWriter) Close() error {
	b := w.buf
	w.buf = nil
	if len(b) > 0 && w.vol.roll(w.vol.spec.TornP) {
		b = b[:w.vol.next()%uint64(len(b))]
	}
	if len(b) > 0 && w.vol.roll(w.vol.spec.FlipP) {
		// Copy before flipping: b may alias caller-visible memory.
		c := make([]byte, len(b))
		copy(c, b)
		c[w.vol.next()%uint64(len(c))] ^= 0xFF
		b = c
	}
	if len(b) > 0 {
		if _, err := w.inner.Write(b); err != nil {
			w.inner.Abort()
			return err
		}
	}
	return w.inner.Close()
}

func (w *faultyWriter) Abort() error {
	w.buf = nil
	return w.inner.Abort()
}

var _ io.ReadCloser = (*faultyReader)(nil)
