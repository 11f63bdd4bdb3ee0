package main

import (
	"bufio"
	"context"
	"errors"
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

// daemon is a bsmpd child process listening on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	done     chan error
	stopOnce sync.Once
}

// startDaemon starts bin on a free loopback port, with memo store
// capacity memoCap unless it is 0, and waits until /healthz answers. The
// child is killed if this process dies first.
func startDaemon(ctx context.Context, bin string, memoCap int, c *http.Client) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-log-level", "error"}
	if memoCap != 0 {
		args = append(args, "-memo-cap", strconv.Itoa(memoCap))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bsmpd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := c.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("bsmpd exited before ready: %v", err)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("bsmpd not ready after 30s")
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the child
// if it has not exited after 20 seconds. Later calls do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		// The child may already have exited; the wait below covers both.
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// cpuSeconds is the daemon's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// statusMB is field (such as "VmRSS" or "VmHWM") of the daemon's
// /proc/<pid>/status, in MiB.
func (d *daemon) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is the interval at which a run samples the daemon's VmRSS.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the daemon's VmRSS every rssEvery until stop is
// closed, then returns the samples (at least one) or the first error.
func (d *daemon) sampleRSS(stop <-chan struct{}) ([]float64, error) {
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	var out []float64
	for {
		mb, err := d.statusMB("VmRSS")
		if err != nil {
			return nil, err
		}
		out = append(out, mb)
		select {
		case <-stop:
			return out, nil
		case <-t.C:
		}
	}
}
