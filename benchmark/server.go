package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"argan/internal/serve"
)

// findRoot walks up from the working directory to the module root: the
// directory whose go.mod declares module argan.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		blob, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(blob, []byte("module argan\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no argan go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/arganrun into outDir and returns the binary's
// path. It runs before every timer.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "arganrun")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/arganrun")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/arganrun: %v\n%s", err, out)
	}
	return bin, nil
}

// Server is one arganrun serve child process.
type Server struct {
	cmd  *exec.Cmd
	Args []string
	Base string // http://host:port

	stderr bytes.Buffer
	outEOF chan struct{}
}

// serverArgs is the exact command line every measured server runs with:
// both cores, 2-worker clamp, the workload's datasets preloaded, and every
// other flag at its default (so the 10 s snapshot flusher is the flush
// policy being measured).
func serverArgs(w Workload, scale float64, stateDir string) []string {
	pre := make([]string, len(w.Datasets))
	for i, d := range w.Datasets {
		pre[i] = fmt.Sprintf("%s@%g", d, scale)
	}
	return []string{"serve", "-addr", "127.0.0.1:0", "-cores", "2", "-max-workers", strconv.Itoa(serverWorkers),
		"-preload", strings.Join(pre, ","), "-state-dir", stateDir}
}

// serverGOMAXPROCS pins the server's scheduler width so the numbers do not
// depend on how many cores the host happens to show.
const serverGOMAXPROCS = "2"

// startServer spawns the binary and returns once the job API address is
// known. The address line is printed after preload and recovery finish and
// the listener is bound, so the caller's next request is served.
func startServer(bin string, args []string) (*Server, error) {
	s := &Server{Args: args, outEOF: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+serverGOMAXPROCS)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = childAttr()
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.outEOF)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "job service   : "); ok {
				if i := strings.Index(rest, "/api/jobs"); i > 0 {
					select {
					case addr <- rest[:i]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // a line past the scanner's limit: keep draining
	}()
	select {
	case s.Base = <-addr:
		return s, nil
	case <-s.outEOF:
		_ = s.cmd.Wait()
		return nil, fmt.Errorf("server exited before listening: %s", s.stderr.String())
	case <-time.After(60 * time.Second):
		s.Kill()
		return nil, fmt.Errorf("server did not listen within 60s")
	}
}

// Kill delivers SIGKILL and waits for the process and its stdout reader.
func (s *Server) Kill() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-s.outEOF
	_ = s.cmd.Wait()
}

// CommandLine is the provenance form of the server invocation.
func (s *Server) CommandLine() string {
	return "GOMAXPROCS=" + serverGOMAXPROCS + " arganrun " + strings.Join(s.Args, " ")
}

// newClient returns a serve.Client that keeps exactly one keep-alive
// connection, so a closed-loop client is one connection on the server.
func newClient(base string) *serve.Client {
	return &serve.Client{
		Base: base,
		HTTP: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute},
			Timeout:   2 * time.Minute,
		},
	}
}

// waitDatasets polls GET /api/datasets until every dataset in want is listed
// at its wanted version. (/readyz answers 503 until a job has run, so it is
// no readiness signal for a fresh server.)
func waitDatasets(c *serve.Client, scale float64, want map[string]uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for {
		infos, err := c.Datasets()
		if err == nil {
			got := make(map[string]uint64, len(infos))
			for _, in := range infos {
				if in.Scale == scale {
					got[in.Dataset] = in.Version
				}
			}
			ok := true
			for d, v := range want {
				if gv, listed := got[d]; !listed || gv != v {
					ok = false
					last = fmt.Sprintf("dataset %s: listed=%v version=%d want %d", d, listed, gv, v)
				}
			}
			if ok {
				return nil
			}
		} else {
			last = err.Error()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("datasets not ready after %v: %s", timeout, last)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// procStatus reads the kB fields VmHWM and VmRSS of a live process.
func procStatus(pid int) (hwmKB, rssKB float64, err error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			hwmKB, _ = strconv.ParseFloat(f[1], 64)
		case "VmRSS:":
			rssKB, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if hwmKB == 0 {
		return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return hwmKB, rssKB, nil
}

// procCPU is the process's user+system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(blob, ')')
	f := strings.Fields(string(blob[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on every Linux architecture Go runs on.
const clockTicks = 100

// walSize sums the wal.log files under a state directory.
func walSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && info.Name() == "wal.log" {
			total += info.Size()
		}
		return nil
	})
	return total
}

// waitSnapshot polls GET /api/service until the server has flushed a
// warm-fixpoint snapshot.
func waitSnapshot(c *serve.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		if st.Snapshots > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server flushed no snapshot within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
