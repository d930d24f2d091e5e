package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one racedetd process with its own spool and state directory,
// started with stock flags only.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // host:port of the ingestion listener
	setup time.Duration
	done  chan struct{} // closed once cmd.Wait returned
	err   error         // cmd.Wait's result, valid after done

	logMu sync.Mutex
	log   bytes.Buffer // stderr, kept for failure reports
}

var listenLine = regexp.MustCompile(`ingestion listener on http://([^/\s]+)/`)

// startDaemon execs racedetd over fresh directories under dir and waits
// until /readyz answers 200. setup is the time from exec to that answer.
func startDaemon(ctx context.Context, bin, dir string, hc *http.Client) (*daemon, error) {
	spool, state := filepath.Join(dir, "spool"), filepath.Join(dir, "state")
	for _, d := range []string{spool, state} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-spool", spool, "-state", state, "-listen", "127.0.0.1:0")
	d.cmd.Stdout = io.Discard // the per-job report printed at shutdown
	// The daemon dies with the benchmark, even one killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start racedetd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log.Len() < 64<<10 {
				d.log.WriteString(line + "\n")
			}
			d.logMu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		io.Copy(io.Discard, stderr) // past an over-long line; Wait needs the pipe drained
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		return nil, fmt.Errorf("racedetd exited before listening (%v):\n%s", d.err, d.stderr())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("racedetd did not announce its listener within 30s:\n%s", d.stderr())
	}
	for {
		if ready(ctx, hc, d.addr) {
			d.setup = time.Since(t0)
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("racedetd exited before ready (%v):\n%s", d.err, d.stderr())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func ready(ctx context.Context, hc *http.Client, addr string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderr() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop asks the daemon to drain (SIGTERM), kills it if the drain takes
// longer than 30s, and waits until the process has exited. Stopping a
// stopped daemon does nothing.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// procStatusKB reads one "Vm*:" field of /proc/<pid>/status in KiB.
func procStatusKB(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; the fields after its
	// closing parenthesis start at field 3 (state), so utime (field 14)
	// and stime (15) are at offsets 11 and 12.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// memoryGuardKB is the daemon resident set, in KiB, at which a run is
// aborted: 2 GiB, about twice what the largest workload needs. The daemon
// keeps every finished result, and a runaway run must not take the
// machine's memory with it.
const memoryGuardKB = 2 << 20

// sampler polls the daemon's resident set every 100ms and cancels the
// run when it passes memoryGuardKB.
type sampler struct {
	pid   int
	abort context.CancelFunc

	stopc   chan struct{}
	wg      sync.WaitGroup
	tripped bool // written by the sampling goroutine, read after it exits
}

func startSampler(pid int, abort context.CancelFunc) *sampler {
	s := &sampler{pid: pid, abort: abort, stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	kb, err := procStatusKB(s.pid, "VmRSS")
	if err != nil {
		return
	}
	if kb > memoryGuardKB && !s.tripped {
		s.tripped = true
		s.abort()
	}
}

// stop ends sampling and returns whether the guard tripped.
func (s *sampler) stop() bool {
	close(s.stopc)
	s.wg.Wait()
	return s.tripped
}
