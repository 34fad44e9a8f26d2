package main

import (
	"sync/atomic"
	"time"

	"fastbfs"
	"fastbfs/internal/storage"
)

// timedVolume wraps the storage layer from outside the program: it
// counts the bytes and files that pass through every call and sums the
// wall time spent inside them. Calls made concurrently (the stay
// writer's background writes, scanner read-ahead) are summed, so busy
// time can exceed the query's wall time.
type timedVolume struct {
	inner fastbfs.Volume

	read, written, opens, creates atomic.Int64
	busyNs                        atomic.Int64
}

// ioTotals is a snapshot of a timedVolume's counters.
type ioTotals struct {
	read, written, opens, creates int64
	busy                          time.Duration
}

func (t ioTotals) sub(o ioTotals) ioTotals {
	return ioTotals{t.read - o.read, t.written - o.written, t.opens - o.opens, t.creates - o.creates, t.busy - o.busy}
}

func newTimedVolume(inner fastbfs.Volume) *timedVolume { return &timedVolume{inner: inner} }

func (v *timedVolume) totals() ioTotals {
	return ioTotals{v.read.Load(), v.written.Load(), v.opens.Load(), v.creates.Load(), time.Duration(v.busyNs.Load())}
}

func (v *timedVolume) since(start time.Time) { v.busyNs.Add(int64(time.Since(start))) }

func (v *timedVolume) Create(name string) (storage.Writer, error) {
	defer v.since(time.Now())
	w, err := v.inner.Create(name)
	if err != nil {
		return nil, err
	}
	v.creates.Add(1)
	return &timedWriter{inner: w, vol: v}, nil
}

func (v *timedVolume) Open(name string) (storage.Reader, error) {
	defer v.since(time.Now())
	r, err := v.inner.Open(name)
	if err != nil {
		return nil, err
	}
	v.opens.Add(1)
	return &timedReader{inner: r, vol: v}, nil
}

func (v *timedVolume) Remove(name string) error {
	defer v.since(time.Now())
	return v.inner.Remove(name)
}

func (v *timedVolume) Rename(src, dst string) error {
	defer v.since(time.Now())
	return v.inner.Rename(src, dst)
}

func (v *timedVolume) Exists(name string) bool {
	defer v.since(time.Now())
	return v.inner.Exists(name)
}

func (v *timedVolume) Size(name string) (int64, error) {
	defer v.since(time.Now())
	return v.inner.Size(name)
}

func (v *timedVolume) List() []string {
	defer v.since(time.Now())
	return v.inner.List()
}

type timedReader struct {
	inner storage.Reader
	vol   *timedVolume
}

func (r *timedReader) Read(p []byte) (int, error) {
	defer r.vol.since(time.Now())
	n, err := r.inner.Read(p)
	r.vol.read.Add(int64(n))
	return n, err
}

func (r *timedReader) Close() error {
	defer r.vol.since(time.Now())
	return r.inner.Close()
}

func (r *timedReader) Size() int64 { return r.inner.Size() }

type timedWriter struct {
	inner storage.Writer
	vol   *timedVolume
	n     int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	defer w.vol.since(time.Now())
	n, err := w.inner.Write(p)
	w.n += int64(n)
	return n, err
}

// Close counts the file's bytes as written only when it lands, matching
// the engines' own accounting of aborted stay files.
func (w *timedWriter) Close() error {
	defer w.vol.since(time.Now())
	err := w.inner.Close()
	if err == nil {
		w.vol.written.Add(w.n)
	}
	return err
}

func (w *timedWriter) Abort() error {
	defer w.vol.since(time.Now())
	return w.inner.Abort()
}
