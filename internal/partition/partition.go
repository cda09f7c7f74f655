package partition

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// Heuristic names a placement strategy. All strategies consider tasks in
// decreasing utilization order; they differ in how candidate processors
// are ranked.
type Heuristic string

const (
	// FirstFit ranks candidates by processor index.
	FirstFit Heuristic = "first-fit"
	// WorstFit ranks candidates by remaining absolute capacity,
	// speed·(1−fill), largest first.
	WorstFit Heuristic = "worst-fit"
	// Balance ranks candidates by the fill the placement would produce,
	// smallest first, keeping relative loads even across speeds.
	Balance Heuristic = "balance"
)

// AllHeuristics is the default strategy order: cheapest packing first,
// spread-out strategies after.
func AllHeuristics() []Heuristic { return []Heuristic{FirstFit, WorstFit, Balance} }

// ParseHeuristic resolves the wire form of a heuristic name.
func ParseHeuristic(s string) (Heuristic, error) {
	switch h := Heuristic(strings.ToLower(strings.TrimSpace(s))); h {
	case FirstFit, WorstFit, Balance:
		return h, nil
	case "":
		return "", fmt.Errorf("partition: empty heuristic")
	default:
		return "", fmt.Errorf("partition: unknown heuristic %q (want %q, %q or %q)", s, FirstFit, WorstFit, Balance)
	}
}

// ParseHeuristics resolves a heuristic list; an empty list selects
// AllHeuristics.
func ParseHeuristics(specs []string) ([]Heuristic, error) {
	if len(specs) == 0 {
		return AllHeuristics(), nil
	}
	out := make([]Heuristic, len(specs))
	for i, s := range specs {
		h, err := ParseHeuristic(s)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

// Cache is a result store keyed by analysis fingerprint. It is satisfied
// directly by the service's sharded LRU; a nil Cache disables reuse.
type Cache interface {
	Get(key string) (core.Result, bool)
	Put(key string, r core.Result)
}

// Config tunes a placement run.
type Config struct {
	// Analyzer is the registry name (or group spec) verifying each bin;
	// empty selects "cascade".
	Analyzer string
	// Options tune the per-bin analyses and contribute to their cache
	// identity.
	Options core.Options
	// Workers bounds the batch runner's pool; <= 0 selects NumCPU.
	Workers int
	// Cache, when non-nil, short-circuits bin checks whose fingerprint
	// was analyzed before and receives every fresh verdict.
	Cache Cache
	// Heuristics is the strategy order; empty selects AllHeuristics.
	Heuristics []Heuristic
}

// Stats count the work a placement run performed.
type Stats struct {
	// BinChecks is the number of candidate-bin verdicts consulted.
	BinChecks uint64 `json:"bin_checks"`
	// CacheHits is how many of those came from the cache.
	CacheHits uint64 `json:"cache_hits"`
	// GateRejections counts candidates dismissed by the O(1) utilization
	// gate without any analyzer run.
	GateRejections uint64 `json:"gate_rejections"`
	// Promotions counts exits from the bounded-denominator arithmetic
	// fast path across all bin checks.
	Promotions uint64 `json:"promotions,omitempty"`
}

// ProcessorReport is the per-processor slice of a feasible placement.
type ProcessorReport struct {
	// Index is the processor's position in the workload.
	Index int `json:"processor"`
	// Name echoes the processor's name when it has one.
	Name string `json:"name,omitempty"`
	// Speed is the effective relative speed.
	Speed int64 `json:"speed"`
	// Tasks lists the assigned tasks by their original workload index,
	// in placement order.
	Tasks []int `json:"tasks"`
	// Utilization is the scaled fill Σ ceil(C/speed)/T as a float, the
	// fraction of this processor the bin consumes.
	Utilization float64 `json:"utilization"`
	// UtilizationExact is the same fill as an exact rational string.
	UtilizationExact string `json:"utilization_exact"`
	// Verdict is the uniprocessor verdict for the bin ("feasible" for an
	// empty bin, which needs no test).
	Verdict string `json:"verdict"`
	// Iterations is the verifying analysis' effort metric.
	Iterations int64 `json:"iterations,omitempty"`
	// WallNS is the verifying analysis' wall time (0 on a cache hit).
	WallNS int64 `json:"wall_ns,omitempty"`
	// CacheHit reports whether the final verdict came from the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Fingerprint is the bin's content address — the same key
	// /v1/analyze would use for this scaled task set — empty when the
	// options are not content-addressable or the bin is empty.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Rejection explains why one processor could not take the failed task.
type Rejection struct {
	// Processor is the rejecting processor's index.
	Processor int `json:"processor"`
	// Reason is "affinity", "gate", or the analyzer verdict that refused
	// the extended bin ("infeasible", "not-accepted", "undecided").
	Reason string `json:"reason"`
}

// Attempt is the trail of one heuristic that failed to place the
// workload.
type Attempt struct {
	// Heuristic names the strategy.
	Heuristic Heuristic `json:"heuristic"`
	// Placed is how many tasks the strategy placed before failing.
	Placed int `json:"placed"`
	// FailedTask is the original index of the first unplaceable task.
	FailedTask int `json:"failed_task"`
	// FailedTaskName echoes the task's name when it has one.
	FailedTaskName string `json:"failed_task_name,omitempty"`
	// Rejections holds one entry per processor.
	Rejections []Rejection `json:"rejections"`
}

// Placement is the outcome of a Place run: a proven placement, or the
// counterexample trail of every heuristic.
type Placement struct {
	// Feasible reports whether some heuristic found a placement whose
	// every bin a full analyzer run proved feasible.
	Feasible bool `json:"feasible"`
	// Heuristic names the winning strategy (feasible placements only).
	Heuristic Heuristic `json:"heuristic,omitempty"`
	// Assignment maps each task's original index to its processor
	// (feasible placements only).
	Assignment []int `json:"assignment,omitempty"`
	// Processors reports each bin's tasks, fill and verdict (feasible
	// placements only).
	Processors []ProcessorReport `json:"processors,omitempty"`
	// Attempts records every heuristic that failed, in strategy order.
	Attempts []Attempt `json:"attempts,omitempty"`
	// Counterexample, set when no heuristic succeeded, is the attempt
	// that got furthest — the task it names cannot be placed by the best
	// strategy tried.
	Counterexample *Attempt `json:"counterexample,omitempty"`
	// Stats counts the run's work.
	Stats Stats `json:"stats"`
}

// ceilDiv is ceil(c/s) for c >= 0, s >= 1.
func ceilDiv(c, s int64) int64 { return (c + s - 1) / s }

// scaledTask maps a task onto a processor of relative speed s: execution
// demands shrink by s, rounded up so the mapping stays conservative.
// Speed 1 is the identity, keeping unit-speed bins byte-identical to
// plain sporadic tasks.
func scaledTask(t model.Task, s int64) model.Task {
	if s <= 1 {
		return t
	}
	t.WCET = ceilDiv(t.WCET, s)
	if t.CriticalSection > 0 {
		t.CriticalSection = ceilDiv(t.CriticalSection, s)
	}
	if t.SelfSuspension > 0 {
		t.SelfSuspension = ceilDiv(t.SelfSuspension, s)
	}
	return t
}

// BinTasks returns processor proc's bin as the uniprocessor task set the
// verdict applies to: the listed tasks (by original index) scaled to the
// processor's speed. It is the oracle-side twin of the sets Place
// verifies.
func BinTasks(wl workload.Workload, proc int, tasks []int) model.TaskSet {
	s := wl.Processors[proc].EffectiveSpeed()
	out := make(model.TaskSet, len(tasks))
	for i, ti := range tasks {
		out[i] = scaledTask(wl.PartTasks[ti].Task, s)
	}
	return out
}

// bin is one processor's working state during placement.
type bin struct {
	// scaled holds the placed tasks scaled to the bin's speed, in
	// placement order. The slot past its end is scratch: a candidate's
	// tentative set is scaled plus the candidate task written there, so
	// trying a bin copies nothing.
	scaled model.TaskSet
	fill   numeric.Chunked // Σ ceil(C/speed)/T
	speed  int64
}

// placer carries the run-wide state shared by the heuristics, and the
// buffers they reuse from task to task and run to run.
type placer struct {
	wl       workload.Workload
	analyzer engine.Analyzer
	name     string // analyzer spelling used for fingerprints
	cfg      Config
	stats    Stats
	order    []int // task indices in decreasing utilization order

	// plan folds the task periods, the denominators of every fill, into
	// the bounded-denominator base of numeric.Chunked, so the gate and
	// the rankings stay exact and allocation-free however widely the
	// periods spread (values it cannot cover fall back to big.Rat).
	plan numeric.Plan
	bins []bin
	// after and rem hold, per processor, the candidate keys for the task
	// at hand: the bin's fill if the task lands there, and the worst-fit
	// remaining capacity speed·(1−fill).
	after, rem []numeric.Chunked
	cands      []candidate
	rejections []Rejection
	fp         engine.Fingerprinter
}

// Place assigns the partitioned workload's tasks to processors. It
// returns an error for structural problems (wrong model, invalid
// workload, unknown analyzer or heuristic, canceled context); an
// infeasible workload is not an error but a Placement with Feasible
// false and the counterexample trail filled in.
func Place(ctx context.Context, wl workload.Workload, cfg Config) (Placement, error) {
	if wl.Kind() != workload.Partitioned {
		return Placement{}, fmt.Errorf("partition: workload model %q is not %q", wl.Kind(), workload.Partitioned)
	}
	if err := wl.Validate(); err != nil {
		return Placement{}, err
	}
	name := cfg.Analyzer
	if strings.TrimSpace(name) == "" {
		name = "cascade"
	}
	analyzer, ok := engine.Get(name)
	if !ok {
		return Placement{}, fmt.Errorf("partition: unknown analyzer %q", name)
	}
	hs := cfg.Heuristics
	if len(hs) == 0 {
		hs = AllHeuristics()
	}
	for _, h := range hs {
		if _, err := ParseHeuristic(string(h)); err != nil {
			return Placement{}, err
		}
	}

	m := len(wl.Processors)
	p := &placer{wl: wl, analyzer: analyzer, name: name, cfg: cfg, order: taskOrder(wl.PartTasks),
		bins: make([]bin, m), after: make([]numeric.Chunked, m), rem: make([]numeric.Chunked, m)}
	periods := make([]int64, len(wl.PartTasks))
	for i, t := range wl.PartTasks {
		periods[i] = t.Period
	}
	p.plan.Build(periods)
	var out Placement
	for _, h := range hs {
		asg, attempt, err := p.run(ctx, h)
		if err != nil {
			return Placement{}, err
		}
		if attempt != nil {
			out.Attempts = append(out.Attempts, *attempt)
			continue
		}
		reports, err := p.finalReports(ctx, asg)
		if err != nil {
			return Placement{}, err
		}
		out.Feasible = true
		out.Heuristic = h
		out.Assignment = asg
		out.Processors = reports
		out.Stats = p.stats
		return out, nil
	}
	// Every heuristic failed: surface the attempt that got furthest as
	// the counterexample.
	best := 0
	for i, a := range out.Attempts {
		if a.Placed > out.Attempts[best].Placed {
			best = i
		}
	}
	ce := out.Attempts[best]
	out.Counterexample = &ce
	out.Stats = p.stats
	return out, nil
}

// taskOrder returns the task indices in decreasing exact utilization
// order (ties by original index), the "decreasing" in every heuristic's
// name — placing heavy tasks first is what makes the greedy strategies
// effective.
func taskOrder(tasks []workload.PartitionedTask) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmpUtilization(tasks[b].Task, tasks[a].Task)
	})
	return order
}

// cmpUtilization compares C_a/T_a with C_b/T_b exactly, by the 128-bit
// cross products C_a·T_b and C_b·T_a (validated tasks have C, T > 0).
func cmpUtilization(a, b model.Task) int {
	ah, al := bits.Mul64(uint64(a.WCET), uint64(b.Period))
	bh, bl := bits.Mul64(uint64(b.WCET), uint64(a.Period))
	if c := cmp.Compare(ah, bh); c != 0 {
		return c
	}
	return cmp.Compare(al, bl)
}

// candidate is one gate-surviving processor for the task at hand.
type candidate struct {
	proc    int
	tent    model.TaskSet
	key     string // fingerprint of tent; "" when not addressable
	verdict core.Result
	known   bool
}

// run executes one heuristic. On success the assignment is returned; on
// failure the attempt describes the first unplaceable task.
func (p *placer) run(ctx context.Context, h Heuristic) ([]int, *Attempt, error) {
	bins := p.bins
	for j := range bins {
		bins[j].scaled = bins[j].scaled[:0]
		bins[j].fill.Init(&p.plan)
		bins[j].speed = p.wl.Processors[j].EffectiveSpeed()
	}
	asg := make([]int, len(p.wl.PartTasks))
	for placed, ti := range p.order {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		task := p.wl.PartTasks[ti]
		rejections := p.rejections[:0]
		cands := p.cands[:0]
		for j := range bins {
			if !task.Allows(j) {
				rejections = append(rejections, Rejection{Processor: j, Reason: "affinity"})
				continue
			}
			st := scaledTask(task.Task, bins[j].speed)
			after := &p.after[j]
			after.Set(&bins[j].fill)
			after.AddRat(st.WCET, st.Period)
			if after.CmpInt(1) > 0 {
				p.stats.GateRejections++
				rejections = append(rejections, Rejection{Processor: j, Reason: "gate"})
				continue
			}
			// Grow the bin itself when its scratch slot is missing, so
			// the slot outlives this candidate whether or not it wins.
			if len(bins[j].scaled) == cap(bins[j].scaled) {
				bins[j].scaled = slices.Grow(bins[j].scaled, 1)
			}
			cands = append(cands, candidate{proc: j, tent: append(bins[j].scaled, st)})
		}
		p.cands = cands
		p.rank(h, cands)
		if err := p.resolve(ctx, cands); err != nil {
			return nil, nil, err
		}
		won := -1
		for i := range cands {
			if cands[i].known && cands[i].verdict.Verdict == core.Feasible {
				won = i
				break
			}
			rejections = append(rejections, Rejection{
				Processor: cands[i].proc,
				Reason:    cands[i].verdict.Verdict.String(),
			})
		}
		p.rejections = rejections
		if won < 0 {
			rejections = slices.Clone(rejections)
			slices.SortFunc(rejections, func(a, b Rejection) int { return cmp.Compare(a.Processor, b.Processor) })
			return nil, &Attempt{
				Heuristic:      h,
				Placed:         placed,
				FailedTask:     ti,
				FailedTaskName: task.Name,
				Rejections:     rejections,
			}, nil
		}
		c := cands[won]
		bins[c.proc].scaled = c.tent
		bins[c.proc].fill.Set(&p.after[c.proc])
		asg[ti] = c.proc
	}
	return asg, nil, nil
}

// rank orders the candidates by the heuristic, ties broken by processor
// index (every candidate list starts index-ascending).
func (p *placer) rank(h Heuristic, cands []candidate) {
	switch h {
	case WorstFit:
		// Remaining absolute capacity speed·(1−fill), largest first.
		for _, c := range cands {
			b, rem := &p.bins[c.proc], &p.rem[c.proc]
			rem.Init(&p.plan)
			rem.SetInt(1)
			rem.Sub(&b.fill)
			rem.MulInt(b.speed)
		}
		slices.SortStableFunc(cands, func(a, b candidate) int { return p.rem[b.proc].Cmp(&p.rem[a.proc]) })
	case Balance:
		// Resulting fill, smallest first.
		slices.SortStableFunc(cands, func(a, b candidate) int { return p.after[a.proc].Cmp(&p.after[b.proc]) })
	}
}

// resolve fills in every candidate's verdict: cache hits first, then one
// parallel engine batch over the misses, short-circuited entirely when
// the top-ranked candidate is already known feasible.
func (p *placer) resolve(ctx context.Context, cands []candidate) error {
	for i := range cands {
		c := &cands[i]
		c.key, _ = p.fp.Sporadic(c.tent, p.name, p.cfg.Options)
		if p.cfg.Cache != nil && c.key != "" {
			if r, hit := p.cfg.Cache.Get(c.key); hit {
				c.verdict, c.known = r, true
				p.stats.BinChecks++
				p.stats.CacheHits++
			}
		}
	}
	if len(cands) > 0 && cands[0].known && cands[0].verdict.Verdict == core.Feasible {
		return nil
	}
	var jobs []engine.Job
	var idx []int
	for i := range cands {
		if !cands[i].known {
			jobs = append(jobs, engine.Job{Set: cands[i].tent, Analyzer: p.analyzer, Opt: p.cfg.Options})
			idx = append(idx, i)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	results := engine.Run(ctx, jobs, engine.RunOptions{Workers: p.cfg.Workers})
	for ri, jr := range results {
		if jr.Err != nil {
			return jr.Err
		}
		c := &cands[idx[ri]]
		c.verdict, c.known = jr.Result, true
		p.stats.BinChecks++
		p.stats.Promotions += jr.Promotions
		if p.cfg.Cache != nil && c.key != "" {
			p.cfg.Cache.Put(c.key, jr.Result)
		}
	}
	return nil
}

// finalReports re-derives each processor's verdict for the response. The
// closing bin states were all just verified, so with a cache every check
// is a hit; without one the bins are re-run in a single batch.
func (p *placer) finalReports(ctx context.Context, asg []int) ([]ProcessorReport, error) {
	m := len(p.wl.Processors)
	binTasks := make([][]int, m)
	for _, ti := range p.order {
		j := asg[ti]
		binTasks[j] = append(binTasks[j], ti)
	}
	reports := make([]ProcessorReport, m)
	var jobs []engine.Job
	var idx []int
	for j := range m {
		speed := p.wl.Processors[j].EffectiveSpeed()
		r := ProcessorReport{
			Index:            j,
			Name:             p.wl.Processors[j].Name,
			Speed:            speed,
			Tasks:            binTasks[j],
			Verdict:          core.Feasible.String(),
			UtilizationExact: "0",
		}
		if len(binTasks[j]) == 0 {
			reports[j] = r
			continue
		}
		scaled := BinTasks(p.wl, j, binTasks[j])
		sum := &p.after[j]
		sum.Init(&p.plan)
		for _, t := range scaled {
			sum.AddRat(t.WCET, t.Period)
		}
		fill := sum.Rat()
		r.Utilization, _ = fill.Float64()
		r.UtilizationExact = fill.RatString()
		if key, ok := p.fp.Sporadic(scaled, p.name, p.cfg.Options); ok {
			r.Fingerprint = key
			if p.cfg.Cache != nil {
				if res, hit := p.cfg.Cache.Get(key); hit {
					p.stats.BinChecks++
					p.stats.CacheHits++
					r.Verdict = res.Verdict.String()
					r.Iterations = res.Iterations
					r.CacheHit = true
					reports[j] = r
					continue
				}
			}
		}
		jobs = append(jobs, engine.Job{Set: scaled, Analyzer: p.analyzer, Opt: p.cfg.Options})
		idx = append(idx, j)
		reports[j] = r
	}
	if len(jobs) > 0 {
		results := engine.Run(ctx, jobs, engine.RunOptions{Workers: p.cfg.Workers})
		for ri, jr := range results {
			if jr.Err != nil {
				return nil, jr.Err
			}
			p.stats.BinChecks++
			p.stats.Promotions += jr.Promotions
			j := idx[ri]
			reports[j].Verdict = jr.Result.Verdict.String()
			reports[j].Iterations = jr.Result.Iterations
			reports[j].WallNS = int64(jr.Wall)
			if p.cfg.Cache != nil && reports[j].Fingerprint != "" {
				p.cfg.Cache.Put(reports[j].Fingerprint, jr.Result)
			}
		}
	}
	return reports, nil
}
