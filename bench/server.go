package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	setupDeadline = 120 * time.Second
	stopGrace     = 15 * time.Second
	logTailLines  = 40
)

// server is one rnnserver child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *lockedBuffer
	done chan struct{} // closed when the process has been waited for
	err  error         // Wait's result, valid after done
}

// lockedBuffer collects the child's output; exec copies into it from its
// own goroutine while a failure path may read the tail.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// tail returns the last n lines written.
func (b *lockedBuffer) tail(n int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	lines := strings.Split(strings.TrimRight(b.buf.String(), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// freeLoopbackAddr asks the kernel for an unused loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin on a free loopback port and waits for the first 200
// on /healthz. The returned duration is exec -> ready: graph generation,
// materialization and every index build. On failure the child is gone and
// the error carries its last log lines.
func startServer(ctx context.Context, bin string, args []string) (*server, time.Duration, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	s := &server{
		base: "http://" + addr,
		log:  &lockedBuffer{},
		done: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// The child must not outlive the benchmark even if the benchmark is
	// killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.NewTimer(setupDeadline)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-tick.C:
		case <-s.done:
			return nil, 0, fmt.Errorf("rnnserver exited during set-up (%v); last log lines:\n%s", s.err, s.log.tail(logTailLines))
		case <-deadline.C:
			s.kill()
			return nil, 0, fmt.Errorf("rnnserver not healthy after %v; last log lines:\n%s", setupDeadline, s.log.tail(logTailLines))
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		}
	}
}

// stop sends SIGTERM, waits for the process to end, and kills it if the
// drain outlives the grace period. It reports an unclean exit.
func (s *server) stop() error {
	select {
	case <-s.done:
		return fmt.Errorf("rnnserver had already exited (%v); last log lines:\n%s", s.err, s.log.tail(logTailLines))
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a process that just exited is caught by the wait below
	select {
	case <-s.done:
	case <-time.After(stopGrace):
		s.kill()
		return fmt.Errorf("rnnserver ignored SIGTERM for %v and was killed; last log lines:\n%s", stopGrace, s.log.tail(logTailLines))
	}
	if s.err != nil {
		return fmt.Errorf("rnnserver exited uncleanly (%v); last log lines:\n%s", s.err, s.log.tail(logTailLines))
	}
	return nil
}

// kill ends the process unconditionally and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine; the wait below is what matters
	<-s.done
}

// cpuSeconds is the process's utime+stime from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

// clockTicks is USER_HZ, which Linux fixes at 100 for every architecture Go
// supports.
const clockTicks = 100

// parseProcStatCPU extracts utime+stime (fields 14 and 15) in seconds. The
// command name (field 2) may contain spaces, so fields are counted from the
// closing parenthesis.
func parseProcStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable utime/stime in /proc stat line")
	}
	return float64(utime+stime) / clockTicks, nil
}

// statusMiB reads one memory line of /proc/<pid>/status — VmRSS, the
// resident set now, or VmHWM, its peak — in MiB.
func (s *server) statusMiB(key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable %s %q", key, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}
