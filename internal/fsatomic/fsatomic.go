// Package fsatomic provides crash-durable atomic file replacement: the
// write-temp-then-rename idiom every AIDE save path uses, hardened with
// an fsync of the file contents before the rename. Without the sync, a
// power loss shortly after the rename can leave the *new* name pointing
// at zero-length or partial data on journaled filesystems — the classic
// "atomic replace that wasn't". The rename itself stays the atomicity
// point; the sync makes the data durable before the name flips.
package fsatomic

import (
	"hash/fnv"
	"os"
	"sync"
)

// pathLocks serialises WriteFile calls per path. Every call for a path
// shares path+".tmp", so two unserialised writers could interleave their
// truncates and writes and rename a mixture of both payloads into place.
// Paths hash onto a fixed set of mutexes, which bounds memory however
// many paths are written; two paths that share a stripe merely wait for
// each other.
var pathLocks [64]sync.Mutex

func lockPath(path string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(path))
	return &pathLocks[h.Sum32()%uint32(len(pathLocks))]
}

// WriteFile atomically replaces path with data: the bytes are written
// to path+".tmp", fsynced, and renamed over path. On any error the
// temporary file is removed and the original file (if any) is left
// untouched. The containing directory is fsynced best-effort after the
// rename so the new directory entry itself survives a crash. Concurrent
// calls for the same path within a process are serialised, so the file
// ends up holding exactly one caller's data.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	mu := lockPath(path)
	mu.Lock()
	defer mu.Unlock()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(path)
	return nil
}

// syncDir fsyncs path's parent directory, ignoring errors: not every
// platform or filesystem supports opening directories for sync, and the
// rename has already succeeded.
func syncDir(path string) {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i]
		if dir == "" {
			dir = "/"
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func lastSlash(path string) int {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}
