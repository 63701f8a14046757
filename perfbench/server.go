package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// bootTimeout bounds one server start; the slowest workload trains an MSCN
// net in about a second.
const bootTimeout = 120 * time.Second

// serverProc is one running `cardpi serve` process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	// exited is closed once the process has been waited for; waitErr is
	// its exit status.
	exited  chan struct{}
	waitErr error
	// setup is the time from process start until /healthz answered 200.
	setup    time.Duration
	stopOnce sync.Once
}

// startServer launches the server binary with args (addr filled in) and
// waits until /healthz answers 200. The process's output goes to logPath.
func startServer(bin string, args func(addr string) []string, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args(addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.awaitHealthy(start); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, logPath)
	}
	s.setup = time.Since(start)
	return s, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// awaitHealthy polls /healthz every 2ms (the resolution of setup_s) until
// it answers 200, the process exits, or bootTimeout passes.
func (s *serverProc) awaitHealthy(start time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < bootTimeout {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during start-up: %v", s.waitErr)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %s", bootTimeout)
}

// stop asks the server to shut down gracefully, kills it if it has not
// exited within ten seconds, and waits for it either way. Later calls do
// nothing.
func (s *serverProc) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
		s.log.Close()
	})
}

// cpuSeconds is the server's user plus system CPU time so far.
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// hostSteal is the machine's steal time so far, in seconds.
func hostSteal() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(string(b))
}

// parseSteal extracts the steal time — how long the hypervisor ran other
// guests while this machine's CPUs wanted to run — summed over CPUs, from
// the aggregate "cpu" line of /proc/stat (its eighth value).
func parseSteal(stat string) (float64, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, errors.New("no steal field in /proc/stat")
		}
		v, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/stat steal: %w", err)
		}
		return float64(v) / clockTicks, nil
	}
	return 0, errors.New("no cpu line in /proc/stat")
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces, so
// fields are counted after its closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat times: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the server's VmHWM in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
