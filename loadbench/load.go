package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client sends requests over exactly one keep-alive connection.
type client struct {
	base string
	ids  []string // live session ids by slot
	hc   *http.Client
}

func newClient(base string, ids []string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, ids: ids, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads its whole response.
func (c *client) do(r *Request) outcome {
	o := outcome{req: r}
	resp, err := c.hc.Post(c.base+r.path(c.ids), "application/json", bytes.NewReader(r.Body))
	if err != nil {
		o.err = err
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
	o.replica = resp.Header.Get("X-Edf-Replica")
	return o
}

// sendFunc sends one request; the load drivers are written against it so
// tests can substitute a fake server.
type sendFunc func(conn int, r *Request) outcome

// runOrdered waits until the request's session predecessor completed,
// sends it, and marks it complete.
func runOrdered(send sendFunc, conn int, r *Request) outcome {
	if r.prev != nil {
		<-r.prev.done
	}
	o := send(conn, r)
	close(r.done)
	return o
}

// openResult is what the open-loop phase observed.
type openResult struct {
	outs []outcome
	// latency[i] is request i's completion time minus its due time.
	latency []time.Duration
	// late[i] is how long after its due time the generator released
	// request i.
	late    []time.Duration
	elapsed time.Duration
}

// openLoop releases reqs on a fixed schedule, request i due at
// i/rate seconds after the start, regardless of how fast responses
// come back; conns workers take released requests in order. Latency is
// measured from the due time, so a server stall also counts against
// every request queued behind it.
func openLoop(reqs []*Request, rate float64, conns int, send sendFunc) openResult {
	res := openResult{
		outs:    make([]outcome, len(reqs)),
		latency: make([]time.Duration, len(reqs)),
		late:    make([]time.Duration, len(reqs)),
	}
	// Sized to the number of sends, so the generator never blocks on a
	// slow server: the backlog queues here, timed from its due time.
	queue := make(chan int, len(reqs))
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res.outs[i] = runOrdered(send, c, reqs[i])
				res.latency[i] = time.Since(due(i))
			}
		}()
	}
	for i := range reqs {
		d := due(i)
		sleepUntil(d)
		res.late[i] = time.Since(d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake an idle process through the network poller,
// whose millisecond timeout would release requests up to 1ms late;
// nanosleep overshoots by tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedResult is what the closed-loop phase observed.
type closedResult struct {
	outs      []outcome // outs[:sent] were sent
	completed int
	elapsed   time.Duration
	// doneAt[i] is when outs[i] completed, relative to the start.
	doneAt []time.Duration
}

// closedLoop keeps conns requests in flight, each connection sending its
// next request as soon as the previous one returns, until dur has passed
// or reqs run out.
func closedLoop(reqs []*Request, dur time.Duration, conns int, send sendFunc) closedResult {
	res := closedResult{outs: make([]outcome, len(reqs)), doneAt: make([]time.Duration, len(reqs))}
	var next atomic.Int64
	var completed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				res.outs[i] = runOrdered(send, c, reqs[i])
				res.doneAt[i] = time.Since(start)
				if res.outs[i].ok() {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sent := min(int(next.Load()), len(reqs))
	res.outs, res.doneAt = res.outs[:sent], res.doneAt[:sent]
	res.completed = int(completed.Load())
	return res
}

// minTail is the number of samples that must lie beyond a reported
// percentile, so the figure is not set by a handful of outliers.
const minTail = 10

var errThinTail = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of the samples by the
// nearest-rank rule, refusing when fewer than minTail samples lie
// beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", 100*q, n, errThinTail, minTail)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[max(rank-1, 0)], nil
}

// windows is how many consecutive windows a phase is split into for
// its statistics, each reported as the median over the windows: a
// stretch of CPU steal from neighbouring machines then moves a few
// windows' figures, not the reported one.
const windows = 9

// windowedPercentile is the median, over up to nine consecutive windows
// of the samples, of each window's q-quantile; every window must hold
// enough samples for its quantile, so short runs use fewer windows.
func windowedPercentile(samples []float64, q float64) (float64, error) {
	need := int(math.Ceil(minTail / (1 - q)))
	w := max(1, min(windows, len(samples)/need))
	var ps []float64
	for k := range w {
		p, err := percentile(samples[k*len(samples)/w:(k+1)*len(samples)/w], q)
		if err != nil {
			return 0, err
		}
		ps = append(ps, p)
	}
	return median(ps), nil
}

// capacity is the median, over nine equal windows of the closed loop,
// of the requests completed per second.
func (r closedResult) capacity() float64 {
	var done [windows]int
	width := r.elapsed / windows
	for i, o := range r.outs {
		if o.ok() {
			done[min(int(r.doneAt[i]/width), windows-1)]++
		}
	}
	rates := make([]float64, windows)
	for k, n := range done {
		rates[k] = float64(n) / width.Seconds()
	}
	return median(rates)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sequential sends reqs one at a time over one connection and returns
// each request's latency; it is the no-load reference of the traced
// run.
func sequential(reqs []*Request, send sendFunc) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(reqs))
	lat := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		start := time.Now()
		outs[i] = runOrdered(send, 0, r)
		lat[i] = time.Since(start)
	}
	return outs, lat
}
