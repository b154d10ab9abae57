package main

import (
	"bufio"
	"context"
	"encoding/json"
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
	"syscall"
	"time"
	"unsafe"

	"github.com/xai-db/relativekeys/internal/persist"
)

// stateDir copies the seeded snapshot into a fresh state directory, so
// every server boots from the same context with an empty log and a cold
// cache.
func stateDir(work, seedSnap string, boot int) (string, error) {
	dir := filepath.Join(work, fmt.Sprintf("state-%d", boot))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	src, err := os.ReadFile(seedSnap)
	if err != nil {
		return "", err
	}
	return dir, os.WriteFile(filepath.Join(dir, "context.snap"), src, 0o644)
}

// writeSeedSnapshot writes the seeded context once per run; stateDir copies
// it for each boot.
func writeSeedSnapshot(work string, in *inputs) (string, error) {
	path := filepath.Join(work, "seed.snap")
	return path, persist.SaveSnapshot(path, in.schema, in.context, 0)
}

// serverArgs are the cceserver flags of workload w.
func serverArgs(w workload, addr, dir string) []string {
	return []string{
		"-addr", addr,
		"-dataset", "adult",
		"-state", dir,
		"-retain", strconv.Itoa(w.retain),
		"-panel", strconv.Itoa(panelSize),
		"-snapshot-every", strconv.Itoa(snapshotEvery),
		"-wal-sync-every", strconv.Itoa(walSyncEvery),
		"-log-level", "warn",
	}
}

// proc is one running cceserver.
type proc struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// bootServer launches cceserver on a fresh copy of the seeded state and
// waits for /healthz to report the recovered context. It returns the time
// from launch to that first healthy answer: the run's setup time.
func bootServer(ctx context.Context, bin string, w workload, work, seedSnap string, boot, rows int) (*proc, time.Duration, error) {
	dir, err := stateDir(work, seedSnap, boot)
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(work, fmt.Sprintf("server-%d.log", boot)))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, serverArgs(w, addr, dir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, errors.Join(err, logf.Close())
	}
	p := &proc{cmd: cmd, base: "http://" + addr, dir: dir, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	if err := p.awaitHealthy(ctx, rows); err != nil {
		return nil, 0, errors.Join(err, p.stop())
	}
	return p, time.Since(start), nil
}

// awaitHealthy polls /healthz until the server answers "ok" with the
// seeded context recovered.
func (p *proc) awaitHealthy(ctx context.Context, rows int) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(90 * time.Second)
	for {
		var h struct {
			Status      string `json:"status"`
			ContextSize int    `json:"context_size"`
		}
		if err := getJSON(ctx, client, p.base+"/healthz", &h); err == nil && h.Status == "ok" {
			if h.ContextSize != rows {
				return fmt.Errorf("server recovered %d rows, want %d", h.ContextSize, rows)
			}
			return nil
		}
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("cceserver exited during boot (%v); log: %s", err, p.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cceserver not healthy after 90s; log: %s", p.logTail())
		}
	}
}

// peakRSSMB reads the server's VmHWM, its peak resident set, in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close() //rkvet:ignore dropperr read-only procfs file
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the server's user plus system CPU time so far from its
// process CPU clock (clock_getcpuclockid(3)), which counts nanoseconds;
// /proc/<pid>/stat counts 10 ms ticks, a percent of a one-second window.
func (p *proc) cpuSeconds() (float64, error) {
	// The clock id of process pid: ^pid << 3 | CPUCLOCK_SCHED (2).
	return clockSeconds(uintptr(^uint(p.cmd.Process.Pid)<<3 | 2))
}

// ownCPUSeconds reads this process's CPU time so far.
func ownCPUSeconds() (float64, error) {
	const processCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	return clockSeconds(processCPUTimeID)
}

func clockSeconds(clock uintptr) (float64, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", clock, e)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// stop asks the server to drain (SIGTERM), waits for it to exit, and kills
// it if it has not exited within 20s. The state directory is removed.
func (p *proc) stop() error {
	var exitErr error
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case exitErr = <-p.done:
		case <-time.After(20 * time.Second):
			exitErr = errors.Join(errors.New("cceserver ignored SIGTERM for 20s"), p.cmd.Process.Kill(), <-p.done)
		}
	} else {
		exitErr = <-p.done // already exited
		if exitErr == nil {
			exitErr = errors.New("cceserver exited before it was stopped")
		}
	}
	return errors.Join(exitErr, p.log.Close(), os.RemoveAll(p.dir))
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// opsClient reads the servers' /stats and /metrics.
var opsClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(ctx context.Context, client *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side close of a fully read body
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, into)
}
