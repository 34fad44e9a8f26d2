package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

// volumes returns one of each Volume implementation for table-driven
// conformance tests.
func volumes(t *testing.T) map[string]Volume {
	t.Helper()
	osv, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Volume{
		"mem": NewMem(),
		"os":  osv,
	}
}

func TestVolumeWriteReadRoundTrip(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello, graph")
			if err := WriteAll(v, "f1", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(v, "f1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %q, want %q", got, data)
			}
			if sz, err := v.Size("f1"); err != nil || sz != int64(len(data)) {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			if !v.Exists("f1") {
				t.Fatal("Exists = false after write")
			}
		})
	}
}

func TestVolumeEmptyFile(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "empty", nil); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(v, "empty")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("read %d bytes from empty file", len(got))
			}
		})
	}
}

func TestVolumeOpenMissing(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := v.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open missing: err = %v, want ErrNotExist", err)
			}
			if _, err := v.Size("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Size missing: err = %v, want ErrNotExist", err)
			}
			if err := v.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Remove missing: err = %v, want ErrNotExist", err)
			}
			if err := v.Rename("nope", "x"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Rename missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestVolumeRemove(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := v.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("file exists after Remove")
			}
		})
	}
}

func TestVolumeRenameReplacesDestination(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "a", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := WriteAll(v, "b", []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := v.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			if v.Exists("a") {
				t.Fatal("source still exists after rename")
			}
			got, err := ReadAll(v, "b")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "new" {
				t.Fatalf("dst = %q, want \"new\"", got)
			}
		})
	}
}

func TestVolumeCreateTruncatesOnClose(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "f", []byte("long original content")); err != nil {
				t.Fatal(err)
			}
			if err := WriteAll(v, "f", []byte("short")); err != nil {
				t.Fatal(err)
			}
			got, _ := ReadAll(v, "f")
			if string(got) != "short" {
				t.Fatalf("after rewrite: %q", got)
			}
		})
	}
}

func TestVolumeWriterVisibilityOnlyAfterClose(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, err := v.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("partial")); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("half-written file is visible")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !v.Exists("f") {
				t.Fatal("file invisible after Close")
			}
		})
	}
}

func TestVolumeAbortDiscards(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, err := v.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("aborted file is visible")
			}
			// Close after Abort is a documented no-op.
			if err := w.Close(); err != nil {
				t.Fatalf("Close after Abort: %v", err)
			}
			// Writes after Abort fail.
			if _, err := w.Write([]byte("x")); err == nil {
				t.Fatal("write after Abort succeeded")
			}
		})
	}
}

func TestVolumeAbortAfterCloseFails(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := v.Create("f")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err == nil {
				t.Fatal("Abort after Close succeeded")
			}
			if err := w.Close(); err == nil {
				t.Fatal("double Close succeeded")
			}
		})
	}
}

func TestVolumeList(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			for _, f := range []string{"charlie", "alpha", "bravo"} {
				if err := WriteAll(v, f, []byte(f)); err != nil {
					t.Fatal(err)
				}
			}
			got := v.List()
			want := []string{"alpha", "bravo", "charlie"}
			if len(got) != len(want) {
				t.Fatalf("List = %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("List = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestVolumeListHidesPartials(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := v.Create("pending")
			w.Write([]byte("x"))
			if got := v.List(); len(got) != 0 {
				t.Fatalf("List shows partial file: %v", got)
			}
			w.Abort()
		})
	}
}

func TestVolumeRoundTripProperty(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			i := 0
			f := func(data []byte) bool {
				i++
				name := fmt.Sprintf("p%d", i)
				if err := WriteAll(v, name, data); err != nil {
					return false
				}
				got, err := ReadAll(v, name)
				return err == nil && bytes.Equal(got, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVolumeConcurrentReadersAndWriters(t *testing.T) {
	// Models the FastBFS pattern: the stay writer thread writes files
	// while the main thread reads others.
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					name := fmt.Sprintf("g%d", g)
					payload := bytes.Repeat([]byte{byte(g)}, 4096)
					for i := 0; i < 20; i++ {
						if err := WriteAll(v, name, payload); err != nil {
							errs <- err
							return
						}
						got, err := ReadAll(v, name)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(got, payload) {
							errs <- fmt.Errorf("goroutine %d: corrupt read", g)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestMemFailWrites(t *testing.T) {
	v := NewMem()
	boom := errors.New("boom")
	v.FailWrites(func(name string, written int64) error {
		if name == "bad" && written >= 4 {
			return boom
		}
		return nil
	})
	if err := WriteAll(v, "good", []byte("fine")); err != nil {
		t.Fatalf("unaffected file failed: %v", err)
	}
	w, _ := v.Create("bad")
	if _, err := w.Write([]byte("1234")); err != nil {
		t.Fatalf("first write failed early: %v", err)
	}
	if _, err := w.Write([]byte("5678")); !errors.Is(err, boom) {
		t.Fatalf("injected fault not surfaced: %v", err)
	}
	w.Abort()
	v.FailWrites(nil)
	if err := WriteAll(v, "bad", []byte("ok now")); err != nil {
		t.Fatalf("after disabling hook: %v", err)
	}
}

func TestMemTotalBytes(t *testing.T) {
	v := NewMem()
	WriteAll(v, "a", make([]byte, 100))
	WriteAll(v, "b", make([]byte, 28))
	if got := v.TotalBytes(); got != 128 {
		t.Fatalf("TotalBytes = %d, want 128", got)
	}
}

func TestOSRejectsPathTraversal(t *testing.T) {
	v, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", `a\b`, "../escape"} {
		if _, err := v.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
}

// TestOSRejectsDotNames pins that "." and ".." are not file names: they
// would otherwise open the parent directory, report it as existing, or
// remove the (empty) volume directory itself.
func TestOSRejectsDotNames(t *testing.T) {
	dir := t.TempDir() + "/vol"
	v, err := NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".", ".."} {
		if r, err := v.Open(name); err == nil {
			r.Close()
			t.Errorf("Open(%q) succeeded", name)
		}
		if v.Exists(name) {
			t.Errorf("Exists(%q) = true", name)
		}
		if err := v.Remove(name); err == nil {
			t.Errorf("Remove(%q) succeeded", name)
		}
		if _, err := v.Size(name); err == nil {
			t.Errorf("Size(%q) succeeded", name)
		}
		if _, err := v.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
		if err := v.Rename(name, "x"); err == nil {
			t.Errorf("Rename(%q, x) succeeded", name)
		}
		if _, err := v.ReadRange(name, 0, 0); err == nil {
			t.Errorf("ReadRange(%q) succeeded", name)
		}
		if err := v.Patch(name, 0, nil); err == nil {
			t.Errorf("Patch(%q) succeeded", name)
		}
	}
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		t.Fatalf("volume directory gone after the dot-name calls: %v", err)
	}
}

func TestReaderAfterClose(t *testing.T) {
	v := NewMem()
	WriteAll(v, "f", []byte("data"))
	r, _ := v.Open("f")
	r.Close()
	if _, err := r.Read(make([]byte, 4)); err == nil || err == io.EOF {
		t.Fatalf("read after close: err = %v, want failure", err)
	}
}
