package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one long-running program process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

// procs owns every server process of a run, so that one stopAll ends them
// on every exit path.
type procs struct {
	list []*proc
}

// start launches bin with args, logging its stderr to logDir/<name>.log.
func (ps *procs) start(name, bin, logDir string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	ps.list = append(ps.list, p)
	return p, nil
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (ps *procs) stopAll() {
	for i := len(ps.list) - 1; i >= 0; i-- {
		ps.list[i].stop()
	}
	ps.list = nil
}

// cpuSeconds reads a live process's user+system CPU time from /proc.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s on Linux.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads a live process's peak resident set (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// hostCPU reads the machine's cumulative CPU ticks from /proc/stat: all
// of them, and the steal ticks the hypervisor gave to other guests while
// this one was runnable.
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter measures the share of the machine's CPU time stolen by the
// hypervisor over an interval: on a shared host it is the first thing to
// check when a run reads slow.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s := hostCPU()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := hostCPU()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls url until it answers 2xx and ok(body) holds.
func waitReady(ctx context.Context, client *http.Client, url string, p *proc, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		default:
		}
		if status, body, err := get(ctx, client, url); err == nil && status/100 == 2 && (ok == nil || ok(body)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s after 30s", p.name, url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}
