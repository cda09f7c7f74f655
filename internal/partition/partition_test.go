package partition

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// mapCache is a plain map satisfying Cache for tests and benchmarks.
type mapCache struct{ m map[string]core.Result }

func newMapCache() *mapCache { return &mapCache{m: map[string]core.Result{}} }

func (c *mapCache) Get(key string) (core.Result, bool) {
	r, ok := c.m[key]
	return r, ok
}
func (c *mapCache) Put(key string, r core.Result) { c.m[key] = r }

func task(name string, c, d, t int64, affinity ...int) workload.PartitionedTask {
	return workload.PartitionedTask{
		Task:     model.Task{Name: name, WCET: c, Deadline: d, Period: t},
		Affinity: affinity,
	}
}

func TestPlaceFeasibleTwoProcessors(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{Name: "p0"}, {Name: "p1"}},
		[]workload.PartitionedTask{
			task("a", 6, 10, 10),
			task("b", 6, 10, 10),
			task("c", 2, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible {
		t.Fatalf("placement infeasible: %+v", pl)
	}
	if len(pl.Assignment) != 3 || len(pl.Processors) != 2 {
		t.Fatalf("shape: %+v", pl)
	}
	if pl.Assignment[0] == pl.Assignment[1] {
		t.Error("two 0.6-utilization tasks share a processor")
	}
	for _, r := range pl.Processors {
		if r.Verdict != "feasible" {
			t.Errorf("processor %d verdict %s", r.Index, r.Verdict)
		}
		if len(r.Tasks) > 0 && r.Fingerprint == "" {
			t.Errorf("processor %d bin has no fingerprint", r.Index)
		}
	}
	if len(pl.Attempts) != 0 || pl.Counterexample != nil {
		t.Errorf("feasible placement carries a failure trail: %+v", pl)
	}
	if pl.Stats.BinChecks == 0 {
		t.Error("no bin checks counted")
	}
}

func TestPlaceHonorsAffinity(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {}},
		[]workload.PartitionedTask{
			task("pinned", 1, 10, 10, 1),
			task("free", 8, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible || pl.Assignment[0] != 1 {
		t.Fatalf("affinity violated: %+v", pl)
	}
}

func TestPlaceHeuristicRanking(t *testing.T) {
	// One 0.5-utilization task, processors of speed 1 and 2: first-fit
	// takes index 0, worst-fit the most spare absolute capacity (the
	// fast processor), balance the lowest resulting fill (also the fast
	// one, where the scaled demand is ceil(5/2)/10 = 3/10).
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}},
		[]workload.PartitionedTask{task("t", 5, 10, 10)},
	)
	for h, want := range map[Heuristic]int{FirstFit: 0, WorstFit: 1, Balance: 1} {
		pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{h}})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible || pl.Assignment[0] != want {
			t.Errorf("%s placed task on %d, want %d", h, pl.Assignment[0], want)
		}
		if pl.Heuristic != h {
			t.Errorf("winning heuristic %q, want %q", pl.Heuristic, h)
		}
	}
}

func TestPlaceRankingBeyondChunkPlan(t *testing.T) {
	// 40 distinct primes near 2^31 as periods: no two share a chunk, so
	// the exact fills run beyond the bounded-denominator plan. Ties still
	// break by processor index: worst-fit and balance put the heaviest
	// task on processor 0 of three empty, equal-speed bins, and the
	// second-heaviest on processor 1.
	var tasks []workload.PartitionedTask
	for p := int64(1<<31) + 11; len(tasks) < 40; p += 2 {
		if big.NewInt(p).ProbablyPrime(20) {
			tasks = append(tasks, task("", p/(100+int64(len(tasks))), p, p))
		}
	}
	wl := workload.NewPartitioned(make([]workload.Processor, 3), tasks)
	for _, h := range []Heuristic{WorstFit, Balance} {
		pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{h}, Analyzer: "liu"})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible || pl.Assignment[0] != 0 || pl.Assignment[1] != 1 {
			t.Errorf("%s: feasible %v, heaviest tasks on %v, want [0 1]", h, pl.Feasible, pl.Assignment[:2])
		}
	}
}

func TestPlaceSpeedScaling(t *testing.T) {
	// A task demanding 15 units per 10 fits only the speed-2 processor
	// (scaled WCET ceil(15/2) = 8 <= deadline 10).
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}},
		[]workload.PartitionedTask{{Task: model.Task{Name: "heavy", WCET: 15, Deadline: 20, Period: 10}}},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible || pl.Assignment[0] != 1 {
		t.Fatalf("heavy task not placed on the fast processor: %+v", pl)
	}
	bin := BinTasks(wl, 1, []int{0})
	if bin[0].WCET != 8 {
		t.Errorf("scaled WCET %d, want 8", bin[0].WCET)
	}
}

func TestPlaceCounterexample(t *testing.T) {
	// Three 0.7-utilization tasks on two processors: the third task is
	// gate-rejected everywhere, under every heuristic.
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {}},
		[]workload.PartitionedTask{
			task("a", 7, 10, 10),
			task("b", 7, 10, 10),
			task("c", 7, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible {
		t.Fatalf("overloaded workload placed: %+v", pl)
	}
	if len(pl.Attempts) != len(AllHeuristics()) {
		t.Fatalf("attempts: %+v", pl.Attempts)
	}
	if pl.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	ce := pl.Counterexample
	if ce.Placed != 2 || ce.FailedTaskName == "" {
		t.Errorf("counterexample: %+v", ce)
	}
	if len(ce.Rejections) != 2 {
		t.Fatalf("rejections: %+v", ce.Rejections)
	}
	for _, r := range ce.Rejections {
		if r.Reason != "gate" {
			t.Errorf("processor %d rejected for %q, want gate", r.Processor, r.Reason)
		}
	}
	if pl.Stats.GateRejections == 0 {
		t.Error("gate rejections not counted")
	}
}

func TestPlaceAnalyzerRejection(t *testing.T) {
	// Two D<T tasks whose combined demand misses deadlines although the
	// utilization gate passes (fill exactly 1): the rejection must carry
	// the analyzer verdict, not "gate".
	wl := workload.NewPartitioned(
		[]workload.Processor{{}},
		[]workload.PartitionedTask{
			task("a", 5, 5, 10),
			task("b", 5, 5, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{FirstFit}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible {
		t.Fatalf("infeasible bin placed: %+v", pl)
	}
	if got := pl.Counterexample.Rejections[0].Reason; got != "infeasible" {
		t.Errorf("rejection reason %q, want infeasible", got)
	}
}

func TestPlaceDeterministicAndCached(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}, {}},
		[]workload.PartitionedTask{
			task("a", 6, 10, 10),
			task("b", 3, 9, 10),
			task("c", 4, 12, 15, 0, 2),
			task("d", 2, 6, 8),
		},
	)
	first, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	second, err := Place(context.Background(), wl, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Assignment, second.Assignment) {
		t.Errorf("placement not deterministic: %v vs %v", first.Assignment, second.Assignment)
	}
	third, err := Place(context.Background(), wl, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Assignment, third.Assignment) {
		t.Errorf("cache changed the placement: %v vs %v", second.Assignment, third.Assignment)
	}
	if third.Stats.CacheHits != third.Stats.BinChecks {
		t.Errorf("warm run missed the cache: %+v", third.Stats)
	}
	for _, r := range third.Processors {
		if len(r.Tasks) > 0 && !r.CacheHit {
			t.Errorf("processor %d verdict not served from cache", r.Index)
		}
	}
}

func TestPlaceRejectsBadInput(t *testing.T) {
	sporadic := workload.NewSporadic(model.TaskSet{{WCET: 1, Deadline: 2, Period: 2}})
	if _, err := Place(context.Background(), sporadic, Config{}); err == nil {
		t.Error("sporadic workload accepted")
	}
	wl := workload.NewPartitioned([]workload.Processor{{}}, []workload.PartitionedTask{task("a", 1, 2, 2)})
	if _, err := Place(context.Background(), wl, Config{Analyzer: "bogus"}); err == nil {
		t.Error("unknown analyzer accepted")
	}
	if _, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{"bogus"}}); err == nil {
		t.Error("unknown heuristic accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Place(ctx, wl, Config{}); err == nil {
		t.Error("canceled context not surfaced")
	}
}
