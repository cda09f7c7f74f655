package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"
)

func streams(seed int64) map[string]stream {
	return map[string]stream{
		"hit-proxy":       newHitStream(seed),
		"miss-direct":     &missStream{seed: seed},
		"session-durable": newSessionStream(seed, 4),
	}
}

func TestSameSeedYieldsByteIdenticalStream(t *testing.T) {
	a, b, other := streams(7), streams(7), streams(8)
	for name := range a {
		ra, rb, ro := take(a[name], 300), take(b[name], 300), take(other[name], 300)
		differs := false
		for i := range ra {
			if ra[i].Kind != rb[i].Kind || ra[i].Session != rb[i].Session || !bytes.Equal(ra[i].Body, rb[i].Body) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", name, i)
			}
			if ra[i].Kind != ro[i].Kind || !bytes.Equal(ra[i].Body, ro[i].Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestSessionRequestsChainInScenarioOrder(t *testing.T) {
	reqs := take(newSessionStream(3, 4), 40)
	for i, r := range reqs {
		if i < 4 && r.prev != nil {
			t.Fatalf("request %d: first request of session %d has a predecessor", i, r.Session)
		}
		if i >= 4 && (r.prev != reqs[i-4] || r.Session != i%4) {
			t.Fatalf("request %d: not chained to request %d of its session", i, i-4)
		}
		if r.Kind == kindPropose && (len(r.Tasks) == 0 || len(r.Tasks) > proposeGroup) {
			t.Fatalf("request %d: propose-batch of %d tasks", i, len(r.Tasks))
		}
	}
}

// An open loop times each request from its due time, so one stalled
// response also inflates the latency of every request queued behind it.
func TestOpenLoopStallInflatesQueuedRequests(t *testing.T) {
	const (
		n     = 100
		rate  = 500.0 // one request due every 2ms
		stall = 20    // the request the server stalls on
	)
	reqs := take(&missStream{seed: 1}, n)
	index := map[*Request]int{}
	for i, r := range reqs {
		index[r] = i
	}
	send := func(_ int, r *Request) outcome {
		if index[r] == stall {
			time.Sleep(200 * time.Millisecond)
		} else {
			time.Sleep(100 * time.Microsecond)
		}
		return outcome{req: r, status: 200}
	}
	res := openLoop(reqs, rate, 1, send)
	// Request stall+25 was due 50ms after the stalled one but cannot start
	// before the stall ends ~200ms after that one's due time.
	if got := res.latency[stall+25]; got < 120*time.Millisecond {
		t.Errorf("request queued behind the stall: latency %v, want >= 120ms", got)
	}
	if got := res.latency[stall-5]; got > 50*time.Millisecond {
		t.Errorf("request before the stall: latency %v, want well under the stall", got)
	}
	p99, err := percentile(millis(res.latency[:90]), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < 100 {
		t.Errorf("p80 of the first 90 requests %vms does not show the stall", p99)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{100, 0.99, 0},
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{1000, 0.5, 500},
		{0, 0.5, 0},
	} {
		got, err := percentile(ramp(tc.n), tc.q)
		if tc.want == 0 {
			if !errors.Is(err, errThinTail) {
				t.Errorf("p%g of %d samples: got %v, %v; want refusal", 100*tc.q, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples: got %v, %v; want %v", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// command prints; the two must not drift apart.
func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			d := c.code[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("metric %d: file %+v, code %s/%s/%s", i, m, d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, w := range bf.Workloads {
		if !slices.ContainsFunc(specs, func(s spec) bool { return s.name == w.Name }) {
			t.Errorf("BENCHMARK.json workload %s is not defined in the code", w.Name)
		}
	}
}
