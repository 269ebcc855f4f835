package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
)

// server is one running dmserver child process.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	logFile *os.File
	done    chan error
}

// startServer launches the dmserver binary with a fresh store directory
// under dir, the ephemeral-port listener and the workload's deployment
// flags, and returns once it has printed its base URL. gctrace turns on
// the Go runtime's per-GC trace lines (written to the server's log).
func startServer(bin, dir string, extra []string, gctrace bool) (*server, error) {
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "server.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-store-dir", store}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	s := &server{cmd: cmd, logPath: logPath, logFile: logFile, done: make(chan error, 1)}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.HasPrefix(line, "dmserver listening on ") {
				f := strings.Fields(strings.TrimPrefix(line, "dmserver listening on "))
				if len(f) > 0 {
					urlc <- f[0]
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !sent {
			close(urlc)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case u, ok := <-urlc:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("dmserver exited before listening (see %s)", logPath)
		}
		s.base = u
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("dmserver did not report its address within 30s")
	}
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dmserver not healthy after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (dmserver drains and exits), escalates to SIGKILL
// after a grace period, and waits for the process to end.
func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.logFile.Close()
}

// pid is the server's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// metricsSnapshot is the subset of dmserver's /metrics document the
// benchmark reads.
type metricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// scrape reads /metrics.
func (s *server) scrape() (metricsSnapshot, error) {
	var m metricsSnapshot
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// counter sums every label set of a counter (name or name{...}).
func (m metricsSnapshot) counter(name string) int64 {
	var t int64
	for k, v := range m.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// gauge returns a gauge (summed over label sets).
func (m metricsSnapshot) gauge(name string) int64 {
	var t int64
	for k, v := range m.Gauges {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every mainstream kernel configuration.
const clockTicksPerSecond = 100

// parseProcStatCPU extracts utime+stime, in milliseconds, from the
// contents of /proc/<pid>/stat. The command name (field 2) may contain
// spaces and parentheses, so fields are counted after its closing paren.
func parseProcStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	// After the command: state(3) ppid(4) ... utime(14) stime(15).
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) * 1000 / clockTicksPerSecond, nil
}

// parseProcStatusHWM extracts VmHWM (peak resident set), in MB, from
// the contents of /proc/<pid>/status.
func parseProcStatusHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuMS reads the server's cumulative CPU time.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// peakRSSMB reads the server's peak resident set.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStatusHWM(b)
}

// selfCPUms is this process's cumulative user+system CPU time.
func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// logSize is the current length of the server's log, the offset from
// which a later countGCLines starts.
func (s *server) logSize() int64 {
	fi, err := os.Stat(s.logPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// countGCLines counts gctrace lines ("gc N @...") written to the log
// since offset.
func (s *server) countGCLines(offset int64) int {
	f, err := os.Open(s.logPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0
	}
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "gc ") && strings.Contains(sc.Text(), " @") {
			n++
		}
	}
	return n
}

// hostCPU reads the machine-wide CPU counters from /proc/stat: total
// ticks and the share a hypervisor stole from this guest.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
