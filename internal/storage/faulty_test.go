package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=7,read=0.25,write=0.5,pread=0.01,pwrite=0.02,torn=0.1,flip=0.2,match=_stay")
	if err != nil {
		t.Fatalf("ParseFaultSpec: %v", err)
	}
	want := FaultSpec{Seed: 7, ReadP: 0.25, WriteP: 0.5, PReadP: 0.01, PWriteP: 0.02, TornP: 0.1, FlipP: 0.2, Match: "_stay"}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("spec should be enabled")
	}
	if s, err := ParseFaultSpec(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"read=2", "read=x", "bogus=1", "read"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

func TestFaultSequenceIsSeededAndReproducible(t *testing.T) {
	run := func(seed uint64) []bool {
		v := NewFaulty(NewMem(), FaultSpec{Seed: seed, ReadP: 0.5})
		if err := WriteAll(v, "f", bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
		var outcomes []bool
		for i := 0; i < 50; i++ {
			r, err := v.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.Read(make([]byte, 10))
			outcomes = append(outcomes, err != nil)
			r.Close()
		}
		return outcomes
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 50-op fault sequence")
	}
}

func TestTransientReadFaultIsRetryable(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 1, ReadP: 0.5})
	data := bytes.Repeat([]byte{0xCD}, 4096)
	if err := WriteAll(v, "f", data); err != nil {
		t.Fatal(err)
	}
	r, err := v.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Retry each Read until it succeeds; the stream must resume exactly
	// where the failed call left off because faults fire pre-read.
	var got []byte
	buf := make([]byte, 64)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("unexpected permanent error: %v", err)
			}
			continue
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("retried read reassembled %d bytes, want %d", len(got), len(data))
	}
}

func TestPermanentReadFaultIsSticky(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 1, PReadP: 1})
	if err := WriteAll(v, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	r, err := v.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		if _, err := r.Read(make([]byte, 1)); err == nil || IsTransient(err) {
			t.Fatalf("read %d: want sticky permanent fault, got %v", i, err)
		}
	}
}

func TestTransientWriteFaultIsRetryable(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 9, WriteP: 0.5})
	w, err := v.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 200; i++ {
		chunk := []byte{byte(i)}
		for {
			if _, err := w.Write(chunk); err == nil {
				break
			} else if !IsTransient(err) {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		want = append(want, chunk...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(v, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("retried writes produced %d bytes, want %d", len(got), len(want))
	}
}

func TestTornWriteTruncatesSilently(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 2, TornP: 1})
	data := bytes.Repeat([]byte{7}, 1000)
	if err := WriteAll(v, "f", data); err != nil {
		t.Fatalf("torn write must publish silently, got %v", err)
	}
	got, err := ReadAll(v, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(data) {
		t.Fatalf("torn write kept %d of %d bytes", len(got), len(data))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("torn write must truncate, not scramble")
	}
}

func TestBitFlipCorruptsSilently(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 2, FlipP: 1})
	data := bytes.Repeat([]byte{0}, 256)
	if err := WriteAll(v, "f", data); err != nil {
		t.Fatalf("flip must publish silently, got %v", err)
	}
	got, err := ReadAll(v, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("flip changed length: %d vs %d", len(got), len(data))
	}
	diff := 0
	for i := range got {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bytes, want exactly 1", diff)
	}
}

func TestMatchRestrictsInjection(t *testing.T) {
	v := NewFaulty(NewMem(), FaultSpec{Seed: 1, WriteP: 1, ReadP: 1, Match: "_stay"})
	if err := WriteAll(v, "p0_upd", []byte("clean")); err != nil {
		t.Fatalf("non-matching file was faulted: %v", err)
	}
	if _, err := ReadAll(v, "p0_upd"); err != nil {
		t.Fatalf("non-matching read was faulted: %v", err)
	}
	w, err := v.Create("p0_stay")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("matching file escaped write fault")
	}
	w.Abort()
}

func TestIsTransientSeesThroughWrapping(t *testing.T) {
	base := &FaultError{Op: "read", Name: "f", Transient: true}
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", base))
	if !IsTransient(wrapped) {
		t.Fatal("IsTransient lost the fault through wrapping")
	}
	perm := fmt.Errorf("outer: %w", &FaultError{Op: "write", Name: "f", Transient: false})
	if IsTransient(perm) {
		t.Fatal("permanent fault reported transient")
	}
	if IsTransient(errors.New("plain")) || IsTransient(nil) {
		t.Fatal("non-fault errors reported transient")
	}
}

func TestFaultyInnerExposesWrappedVolume(t *testing.T) {
	mem := NewMem()
	v := NewFaulty(mem, FaultSpec{})
	if v.Inner() != Volume(mem) {
		t.Fatal("Inner() did not return the wrapped volume")
	}
}

func TestOSWriterSync(t *testing.T) {
	v, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := v.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := w.(SyncWriter)
	if !ok {
		t.Fatal("osWriter does not implement SyncWriter")
	}
	if _, err := sw.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Sync(); err == nil {
		t.Fatal("Sync after Close must fail")
	}
}

// FuzzParseFaultSpec feeds arbitrary specs to the FASTBFS_FAULTS parser:
// it must never panic, and every spec it accepts must carry
// probabilities in [0,1].
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("seed=7,read=0.02,write=0.02")
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseFaultSpec(in)
		if err != nil {
			return
		}
		for _, p := range []float64{spec.ReadP, spec.WriteP, spec.PReadP, spec.PWriteP, spec.TornP, spec.FlipP} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("accepted %q with probability %v outside [0,1]", in, p)
			}
		}
	})
}

func TestFaultyRangeAccessPassesThrough(t *testing.T) {
	// GraphChi's ranged shard access is outside the fault model: a
	// Faulty over a ranged volume stays ranged, and never faults it.
	mem := NewMem()
	if err := WriteAll(mem, "f", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	rv, ok := Volume(NewFaulty(mem, FaultSpec{PReadP: 1, PWriteP: 1})).(RangeVolume)
	if !ok {
		t.Fatal("Faulty over a ranged volume is not a RangeVolume")
	}
	if err := rv.Patch("f", 1, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	if b, err := rv.ReadRange("f", 0, 4); err != nil || string(b) != "aXYd" {
		t.Fatalf("ReadRange = %q, %v; want \"aXYd\"", b, err)
	}
}
