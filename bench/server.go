package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned snapshotd process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

// freePort finds a loopback port at or after from that can be bound
// now. The driver uses fixed five-digit ports below the ephemeral range
// so URL strings, and with them archive names and store bytes, have the
// same length on every run.
func freePort(from int) (int, error) {
	for p := from; p < from+200; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err == nil {
			ln.Close()
			return p, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port in %d..%d", from, from+200)
}

// startServer spawns snapshotd on dataDir with only its existing flags
// and waits until /debug/health answers.
func startServer(bin, dataDir, logPath string, port int, args ...string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-data", dataDir}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the driver dies, however it dies, the kernel takes snapshotd
	// with it. The signal is tied to the thread that forked, so that
	// thread stays with one goroutine until the child has been reaped.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	started := make(chan error)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := cmd.Start()
		started <- err
		if err == nil {
			cmd.Wait() // the exit status of a server we stop ourselves says nothing
			close(s.done)
		}
	}()
	if err := <-started; err != nil {
		logf.Close()
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/debug/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("snapshotd did not answer /debug/health within 20s (see %s)", logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// the graceful shutdown overruns.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// cpuSeconds reads the process's user+system CPU time from
// /proc/<pid>/stat (clock ticks, 100 per second on Linux).
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

func parseProcStatCPU(stat string) (float64, error) {
	// The command name may contain spaces; fields count from the ")".
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return (ut + st) / 100, nil
}

// rssPeakMB reads VmHWM, the process's peak resident set.
func (s *server) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the regular files under dir, and separately the RCS
// archives (",v") among them.
func dirBytes(dir string) (total, archives int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		if strings.HasSuffix(path, ",v") {
			archives += fi.Size()
		}
		return nil
	})
	return total, archives, err
}

// selfCPUSeconds is the driver's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// buildSnapshotd compiles cmd/snapshotd from the repository the bench
// module sits in.
func buildSnapshotd(repoRoot, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/snapshotd")
	cmd.Dir = repoRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building snapshotd: %v\n%s", err, stderr.String())
	}
	return nil
}
