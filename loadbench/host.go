package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies the machine and code a result was measured on. Results
// from different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostStamp(root string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(root),
	}
}

// sameMachine reports whether two stamps come from the same machine
// setup; the commit may differ, that is what a comparison is for.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.Go == o.Go
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured code: the git commit when root is a clean
// checkout, otherwise a hash over the module's Go sources.
func commit(root string) string {
	if out, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(out) == 0 {
		if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(rev))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// savedResult is the result file one run writes beside its spans.
type savedResult struct {
	Host     host               `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

// compareResults prints every metric two saved runs share, refusing runs
// taken on different machines.
func compareResults(pathA, pathB string) error {
	var a, b savedResult
	for _, x := range []struct {
		path string
		r    *savedResult
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if !a.Host.sameMachine(b.Host) {
		return errors.New("refusing to compare runs from different hosts: " +
			fmt.Sprintf("%+v vs %+v", a.Host, b.Host))
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("refusing to compare workload %s with %s", a.Workload, b.Workload)
	}
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", a.Host.Commit, b.Host.Commit, "change")
	for _, m := range metricOrder(a.Metrics) {
		vb, ok := b.Metrics[m]
		if !ok {
			continue
		}
		va := a.Metrics[m]
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/va)
		}
		fmt.Printf("%-34s %14.4f %14.4f %9s\n", m, va, vb, change)
	}
	return nil
}
