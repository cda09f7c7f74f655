package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is one running edfd or edfproxy child process.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	exit     chan error
	stopOnce sync.Once
}

// startDaemon launches bin with args, reads its listen address from the
// stdout banner ("<name>: listening on <addr> (...)") and waits until
// /healthz answers.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{name: filepath.Base(bin), cmd: exec.Command(bin, args...), exit: make(chan error, 1)}
	d.cmd.Stderr = os.Stderr
	// A benchmark killed outright must not leave daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", d.name, err)
	}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained
		d.exit <- d.cmd.Wait()
	}()
	line, ok := <-banner
	_, rest, found := strings.Cut(line, " listening on ")
	addr, _, _ := strings.Cut(rest, " ")
	if !ok || !found || addr == "" {
		d.stop()
		return nil, fmt.Errorf("%s: no listen banner (got %q)", d.name, line)
	}
	d.base = "http://" + addr
	if err := waitHealthy(d.base, 10*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %s", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process gracefully (SIGTERM), killing it if it does not
// exit in time, and waits until it has. Later calls return at once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exit:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exit
		}
	})
}

// cpuTicks returns the process's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14, stime field 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times (100 on
// every mainstream Linux architecture).
const clockTick = 10 * time.Millisecond

// peakRSS returns the process's peak resident set size (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the named counters from the daemon's /metrics page.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		for _, n := range names {
			if s.Name == n && len(s.Labels) == 0 {
				out[n] = s.Value
			}
		}
	}
	return out, nil
}

// fleet is the set of daemons one workload runs against.
type fleet struct {
	entry    string    // base URL requests go to
	daemons  []*daemon // every process, edfd replicas first
	replicas []*daemon // the edfd processes
	proxy    *daemon   // nil without a proxy
	storeDir string    // removed on stop
	ids      []string  // live session ids by slot
}

func (f *fleet) stop() {
	for i := len(f.daemons) - 1; i >= 0; i-- {
		f.daemons[i].stop()
	}
	if f.storeDir != "" {
		_ = os.RemoveAll(f.storeDir)
	}
}

// cpu sums the fleet's CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var total int64
	for _, d := range f.daemons {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return time.Duration(total) * clockTick, nil
}

// rss sums the fleet's peak resident set sizes.
func (f *fleet) rss() (int64, error) {
	var total int64
	for _, d := range f.daemons {
		b, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// counters sums edfd counters over the replicas.
func (f *fleet) counters(names ...string) (map[string]float64, error) {
	sum := make(map[string]float64, len(names))
	for _, d := range f.replicas {
		m, err := d.scrape(names...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
