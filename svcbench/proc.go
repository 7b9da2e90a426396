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
	"strconv"
	"strings"
	"syscall"
	"time"

	"thinslice/internal/server"
)

// child is one `thinslice serve` process at default settings, listening
// on a loopback port the kernel picked.
type child struct {
	cmd     *exec.Cmd
	addr    string // host:port
	started time.Time
	// stdoutDone closes once the stdout reader has drained the pipe.
	stdoutDone chan struct{}
}

// launch starts the server and waits for its listen line. gomaxprocs is
// passed in the environment; every other setting is the default.
func launch(bin string, gomaxprocs int) (*child, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, started: time.Now(), stdoutDone: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(c.stdoutDone)
		sc := bufio.NewScanner(out)
		first := true
		for sc.Scan() {
			if first {
				first = false
				addrc <- strings.TrimPrefix(sc.Text(), "thinslice: serving on ")
			}
		}
		if first {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || !strings.HasPrefix(addr, "127.0.0.1:") {
			c.stop()
			return nil, fmt.Errorf("server did not report its address (got %q)", addr)
		}
		c.addr = addr
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("server did not start within 30s")
	}
	return c, nil
}

func (c *child) url(path string) string { return "http://" + c.addr + path }

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(c.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within 30s")
}

// stats scrapes /statsz.
func (c *child) stats(hc *http.Client) (server.Stats, error) {
	var st server.Stats
	resp, err := hc.Get(c.url("/statsz"))
	if err != nil {
		return st, fmt.Errorf("scraping /statsz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /statsz: %w", err)
	}
	return st, nil
}

// cpuMS reads the server's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (utime + stime) * 1000 / ticksPerSecond, nil
}

// peakRSSMB reads the server's VmHWM from /proc/<pid>/status.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop kills the server and waits until it and its stdout reader have
// ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill()
	<-c.stdoutDone
	_ = c.cmd.Wait()
}
