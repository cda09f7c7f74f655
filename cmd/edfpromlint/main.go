// Command edfpromlint is the metrics-contract lint behind `make
// lint-metrics`: it boots real daemons on ephemeral ports — edfd
// replicas behind an edfproxy — drives enough traffic to populate every
// counter family, then scrapes each daemon's /metrics page and validates
// it as Prometheus text exposition with the repo's own parser
// (internal/obs): # TYPE before samples, family contiguity, histogram
// +Inf/_count consistency, label escaping. It also enforces the naming
// contract: every family carries an edfd_ or edfproxy_ prefix.
//
// Usage:
//
//	edfpromlint [-replicas n] [-edfd path] [-edfproxy path] [-timeout 120s]
//
// Without -edfd/-edfproxy the daemons are compiled from ./cmd into a
// temp dir, so `go run ./cmd/edfpromlint` works from a clean checkout.
// On a lint failure the offending page is printed in full, so CI logs
// show exactly which line broke the format.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	edf "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	var (
		replicas  = flag.Int("replicas", 2, "edfd replicas behind the proxy")
		edfdPath  = flag.String("edfd", "", "pre-built edfd binary (default: build ./cmd/edfd)")
		proxyPath = flag.String("edfproxy", "", "pre-built edfproxy binary (default: build ./cmd/edfproxy)")
		timeout   = flag.Duration("timeout", 120*time.Second, "overall deadline")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var daemons fleet
	err := run(ctx, &daemons, *edfdPath, *proxyPath, *replicas)
	daemons.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "edfpromlint: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("edfpromlint: PASS")
}

func run(ctx context.Context, daemons *fleet, edfdPath, proxyPath string, n int) error {
	if n < 1 {
		return fmt.Errorf("-replicas must be >= 1")
	}
	if edfdPath == "" || proxyPath == "" {
		dir, err := os.MkdirTemp("", "edfpromlint")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if edfdPath == "" {
			if edfdPath, err = buildTool(ctx, dir, "edfd"); err != nil {
				return err
			}
		}
		if proxyPath == "" {
			if proxyPath, err = buildTool(ctx, dir, "edfproxy"); err != nil {
				return err
			}
		}
	}

	var urls []string
	for i := range n {
		d, err := daemons.start(ctx, "edfd", edfdPath, "-addr", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		urls = append(urls, "http://"+d.addr)
	}
	proxy, err := daemons.start(ctx, "edfproxy", proxyPath,
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","), "-health-interval", "250ms")
	if err != nil {
		return err
	}
	c := client.New("http://"+proxy.addr, nil)
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}

	// Touch every subsystem once so the scraped pages exercise live
	// counters and a populated latency histogram, not just zeros.
	if err := driveTraffic(ctx, c); err != nil {
		return err
	}

	for _, d := range daemons.daemons {
		page, err := client.New("http://"+d.addr, nil).Metrics(ctx)
		if err != nil {
			return fmt.Errorf("%s (%s): scraping /metrics: %w", d.name, d.addr, err)
		}
		families, samples, err := lintPage(d.name, page)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edfpromlint: --- %s (%s) /metrics ---\n%s\nedfpromlint: --- end ---\n",
				d.name, d.addr, strings.TrimSpace(page))
			return fmt.Errorf("%s (%s): %w", d.name, d.addr, err)
		}
		fmt.Printf("edfpromlint: %s (%s): %d families, %d samples ok\n",
			d.name, d.addr, families, samples)
	}
	return nil
}

// driveTraffic runs one request through each metered path: analyze
// (twice, for a cache hit), batch, and a session with propose, commit,
// rollback and close.
func driveTraffic(ctx context.Context, c *client.Client) error {
	set := edf.TaskSet{
		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
	}
	wl := edf.SporadicWorkload(set)
	for range 2 {
		if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "lint", Workload: wl}); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	if _, _, err := c.Batch(ctx, service.BatchRequest{
		Sets:      []service.WorkloadSet{{Name: "lint", Workload: wl}},
		Analyzers: []string{"cascade"},
	}); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	h, _, err := c.OpenSession(ctx, service.SessionRequest{Workload: wl})
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	task := service.SporadicTask(edf.Task{Name: "a", WCET: 1, Deadline: 50, Period: 100})
	if _, _, err := h.Propose(ctx, service.ProposeRequest{Task: task}); err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	if _, err := h.Commit(ctx); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if _, _, err := h.Propose(ctx, service.ProposeRequest{Task: task}); err != nil {
		return fmt.Errorf("re-propose: %w", err)
	}
	if _, err := h.Rollback(ctx); err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	if err := h.Close(ctx); err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	// One placement per replica: partition requests are fingerprint-sticky,
	// so distinct workloads are needed to touch every replica's
	// edfd_partition_ counters. More variants than replicas makes full
	// coverage near-certain on the two-replica default.
	procs := []edf.Processor{{Name: "p0"}, {Name: "p1", Speed: 2}}
	for i := range 8 {
		_, _, err := c.Partition(ctx, service.PartitionRequest{
			Name: fmt.Sprintf("lint-%d", i),
			Workload: edf.PartitionedWorkload(procs, []edf.PartitionedTask{
				{Task: edf.Task{Name: "a", WCET: 6, Deadline: 10 + int64(i), Period: 10 + int64(i)}},
				{Task: edf.Task{Name: "b", WCET: 6, Deadline: 10, Period: 10}},
			}),
		})
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// lintPage validates one exposition page: parseable, structurally sound
// (ValidateExposition), and every family named under the daemon prefix
// contract. Returns the family and sample counts for the pass banner.
func lintPage(daemon, page string) (families, samples int, err error) {
	if err := obs.ValidateExposition(strings.NewReader(page)); err != nil {
		return 0, 0, err
	}
	ss, types, err := obs.ParseExpositionTyped(strings.NewReader(page))
	if err != nil {
		return 0, 0, err
	}
	if len(ss) == 0 {
		return 0, 0, fmt.Errorf("page has no samples")
	}
	for name := range types {
		if !strings.HasPrefix(name, "edfd_") && !strings.HasPrefix(name, "edfproxy_") {
			return 0, 0, fmt.Errorf("family %q lacks the edfd_/edfproxy_ prefix", name)
		}
	}
	// Fast-path observability contract: every page must export the
	// bounded-denominator promotion counter — replicas natively, the
	// proxy as a fleet sum next to its replica-labeled samples.
	if _, ok := types["edfd_arith_promotions_total"]; !ok {
		return 0, 0, fmt.Errorf("page lacks the edfd_arith_promotions_total family")
	}
	// Partitioned-placement observability contract: the partition counter
	// families must appear on every page — replicas natively, the proxy as
	// fleet sums — and the proxy must additionally export its own routing
	// counter for the endpoint.
	for _, fam := range []string{
		"edfd_partition_requests_total",
		"edfd_partition_feasible_total",
		"edfd_partition_infeasible_total",
		"edfd_partition_bin_checks_total",
		"edfd_partition_bin_cache_hits_total",
		"edfd_partition_gate_rejections_total",
	} {
		if _, ok := types[fam]; !ok {
			return 0, 0, fmt.Errorf("page lacks the %s family", fam)
		}
	}
	if daemon == "edfproxy" {
		if _, ok := types["edfproxy_partition_routed_total"]; !ok {
			return 0, 0, fmt.Errorf("proxy page lacks the edfproxy_partition_routed_total family")
		}
	}
	// The proxy page must also carry fleet aggregation: replica-labeled
	// samples next to their sums.
	if daemon == "edfproxy" {
		labeled := 0
		for _, s := range ss {
			if s.Label("replica") != "" {
				labeled++
			}
		}
		if labeled == 0 {
			return 0, 0, fmt.Errorf("proxy page has no replica-labeled samples")
		}
	}
	return len(types), len(ss), nil
}

// --- process plumbing (mirrors cmd/edfsmoke) ---

// daemon is one child process with its parsed listen address.
type daemon struct {
	name string
	cmd  *exec.Cmd
	addr string
}

// fleet tracks every daemon for teardown.
type fleet struct{ daemons []*daemon }

func (f *fleet) stopAll() {
	for _, d := range f.daemons {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
}

// start launches a daemon and parses "<name>: listening on <addr>" from
// its stdout; stderr passes through for diagnosability.
func (f *fleet) start(ctx context.Context, name, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: name}
	d.cmd = exec.CommandContext(ctx, bin, args...)
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	f.daemons = append(f.daemons, d)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+": listening on "); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			d.addr, _, _ = strings.Cut(rest, " ")
			return d, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s startup: %w", name, err)
	}
	return nil, fmt.Errorf("%s exited before announcing its address", name)
}

// buildTool compiles ./cmd/<name> into dir.
func buildTool(ctx context.Context, dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// waitHealthy polls /healthz until the endpoint answers.
func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became healthy: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
