package fsatomic

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Errorf("content = %q, want %q", got, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: stat err = %v", err)
	}
}

func TestWriteFilePermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "secrets.json")
	if err := WriteFile(path, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Errorf("perm = %o, want 600", perm)
	}
}

func TestWriteFileErrorLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nosuchdir", "state.json")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
	existing := filepath.Join(dir, "keep.json")
	if err := WriteFile(existing, []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failed replacement must not clobber the existing file. Simulate
	// by making the tmp path a directory so the open fails.
	if err := os.Mkdir(existing+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(existing, []byte("new"), 0o644); err == nil {
		t.Fatal("expected error when tmp path is unwritable")
	}
	os.Remove(existing + ".tmp")
	got, _ := os.ReadFile(existing)
	if string(got) != "original" {
		t.Errorf("original clobbered: %q", got)
	}
}

// TestWriteFileConcurrentSamePath: racing writers of one path (a sweep
// loop and a shutdown hook saving the same state file) must leave exactly
// one writer's payload, never a mixture of two.
func TestWriteFileConcurrentSamePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	const writers = 8
	payloads := make(map[string]bool, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		// Distinct lengths, so an interleaved truncate and write shows up
		// as a payload no writer sent.
		data := strings.Repeat(fmt.Sprintf("writer %d;", i), 512*(i+1))
		payloads[data] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := WriteFile(path, []byte(data), 0o644); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !payloads[string(got)] {
		t.Errorf("final file (%d bytes) is no writer's payload", len(got))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: stat err = %v", err)
	}
}
