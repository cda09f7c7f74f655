// Server: the edfd feasibility service driven end to end, in process.
//
// It boots the HTTP daemon on a random local port, then walks the three
// pillars through the typed client: a stateless analysis (twice, to show
// the content-addressed cache answering the repeat), a parallel batch
// over a fleet of generated task sets, and a stateful admission session
// with propose/commit/rollback. The same flows work from any HTTP client
// — see the README for the curl equivalents.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	edf "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	// Boot the daemon on a random port, exactly as cmd/edfd would.
	srv := edf.NewService(edf.ServiceConfig{CacheCapacity: 1024})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())

	base := "http://" + ln.Addr().String()
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	check(c.Healthz(ctx))
	fmt.Printf("edfd serving on %s\n\n", base)

	// Pillar 1+2: stateless analysis, content-addressed caching.
	ts := edf.TaskSet{
		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
		{Name: "log", WCET: 10, Deadline: 80, Period: 100},
	}
	first, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "demo", Workload: edf.SporadicWorkload(ts)})
	check(err)
	fmt.Printf("analyze %q: %s in %d intervals (wall %s, cached %v)\n",
		first.Name, first.Result.Verdict, first.Result.Iterations,
		time.Duration(first.WallNS), first.Cached)
	again, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "demo", Workload: edf.SporadicWorkload(ts)})
	check(err)
	fmt.Printf("analyze %q again: %s (cached %v, fingerprint %.12s...)\n\n",
		again.Name, again.Result.Verdict, again.Cached, again.Fingerprint)

	// The same endpoint speaks the Gresser event-stream model: the
	// workload's "model" discriminator routes it to the event-capable
	// analyzers, and its results live in their own fingerprint domain.
	ev := []edf.EventTask{
		{Name: "periodic", WCET: 2, Deadline: 9, Stream: edf.PeriodicStream(10)},
		{Name: "burst", WCET: 1, Deadline: 24, Stream: edf.BurstStream(50, 3, 4)},
	}
	evResp, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "demo-events", Workload: edf.EventWorkload(ev)})
	check(err)
	fmt.Printf("analyze %q (model %s): %s via %s (fingerprint %.12s...)\n\n",
		evResp.Name, evResp.Model, evResp.Result.Verdict, evResp.Analyzer, evResp.Fingerprint)

	// A batch of generated sets fans over the server's worker pool.
	rng := rand.New(rand.NewSource(42))
	batch := service.BatchRequest{Analyzers: []string{"devi", "cascade"}}
	for len(batch.Sets) < 8 {
		set, err := edf.Generate(edf.GenConfig{
			N: 12, Utilization: 0.85,
			PeriodMin: 100, PeriodMax: 10000, GapMean: 0.2,
		}, rng)
		if err != nil {
			continue
		}
		batch.Sets = append(batch.Sets, service.WorkloadSet{
			Name: fmt.Sprintf("gen-%d", len(batch.Sets)), Workload: edf.SporadicWorkload(set),
		})
	}
	bresp, _, err := c.Batch(ctx, batch)
	check(err)
	feasible := 0
	for _, jr := range bresp.Results {
		if jr.Analyzer == "cascade" && jr.Result.Verdict == "feasible" {
			feasible++
		}
	}
	fmt.Printf("batch: %d jobs (%d sets x 2 analyzers), %d/%d sets exactly feasible\n\n",
		len(bresp.Results), len(batch.Sets), feasible, len(batch.Sets))

	// Pillar 3: a stateful admission session.
	sess, state, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "base", WCET: 10, Deadline: 90, Period: 100}}),
	})
	check(err)
	fmt.Printf("session %.8s...: model %s, analyzer %s, %d committed, U = %.2f\n",
		state.ID, state.Model, state.Analyzer, state.Committed, state.Utilization)
	admitted, rejected := 0, 0
	for i := range 10 {
		T := int64(500 * (1 + rng.Intn(20)))
		resp, _, err := sess.Propose(ctx, service.ProposeRequest{Task: service.SporadicTask(edf.Task{
			Name: fmt.Sprintf("job-%02d", i), WCET: max(T/12, 1), Deadline: T, Period: T,
		})})
		check(err)
		if resp.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	// The bulk endpoint decides a whole arrival burst in one round trip,
	// each task seeing the ones staged before it.
	var burst []service.WorkloadTask
	for i := range 10 {
		T := int64(500 * (1 + rng.Intn(20)))
		burst = append(burst, service.SporadicTask(edf.Task{
			Name: fmt.Sprintf("bulk-%02d", i), WCET: max(T/12, 1), Deadline: T, Period: T,
		}))
	}
	bulk, err := sess.ProposeBatch(ctx, service.ProposeBatchRequest{Tasks: burst})
	check(err)
	for _, r := range bulk.Results {
		if r.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	commit, err := sess.Commit(ctx)
	check(err)
	fmt.Printf("session admitted %d, rejected %d; committed %d tasks at U = %.2f\n",
		admitted, rejected, commit.Committed, commit.Utilization)

	// Rollback demo: stage a task, discard it, state reverts.
	_, _, err = sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "tentative", WCET: 1, Deadline: 1000, Period: 1000}),
	})
	check(err)
	rb, err := sess.Rollback(ctx)
	check(err)
	fmt.Printf("rollback dropped %d staged task(s); still %d committed\n\n",
		rb.Moved, rb.Committed)

	// The metrics page summarizes everything that just happened.
	page, err := c.Metrics(ctx)
	check(err)
	fmt.Println("selected metrics:")
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		for _, want := range []string{"cache_hit", "analyses_total", "batch_jobs", "session"} {
			if strings.Contains(line, want) {
				fmt.Println(" ", line)
				break
			}
		}
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
