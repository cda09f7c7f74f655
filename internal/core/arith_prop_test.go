package core

// Property tests pinning the fast-arithmetic default (ArithExact, backed
// by numeric.Fast) to the big.Rat reference (ArithBigRat): both are exact,
// so every analyzer must produce bit-identical Results — verdict,
// iterations, revisions, level, failure interval and bound — on any
// workload, including parameter ranges that force the int64 fast path to
// overflow into its big.Rat fallback.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/numeric"
)

// randomSporadicSet draws a set biased toward the decision boundary
// (utilizations around 0.8..1.05) over the given period range.
func randomSporadicSet(rng *rand.Rand, periodMax int64) model.TaskSet {
	n := rng.Intn(12) + 1
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := rng.Int63n(periodMax-2) + 2
		c := rng.Int63n(max(t/int64(n)+1, 1)) + 1
		d := c + rng.Int63n(2*t)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// randomEventTasks draws a small event-driven task set with mixed
// periodic, bursty and one-shot stream elements.
func randomEventTasks(rng *rand.Rand) []eventstream.Task {
	n := rng.Intn(6) + 1
	tasks := make([]eventstream.Task, 0, n)
	for range n {
		elems := rng.Intn(3) + 1
		stream := make(eventstream.Stream, 0, elems)
		for range elems {
			cycle := rng.Int63n(5000)
			if cycle > 0 && cycle < 100 {
				cycle += 100
			}
			stream = append(stream, eventstream.Element{
				Cycle:  cycle, // 0 = one-shot
				Offset: rng.Int63n(300),
			})
		}
		tasks = append(tasks, eventstream.Task{
			Stream:   stream,
			WCET:     rng.Int63n(40) + 1,
			Deadline: rng.Int63n(2000) + 1,
		})
	}
	return tasks
}

// compareResults fails unless the two results are identical in every
// reported field.
func compareResults(t *testing.T, what string, fast, ref Result) {
	t.Helper()
	if fast != ref {
		t.Fatalf("%s: fast arithmetic %+v != big.Rat reference %+v", what, fast, ref)
	}
}

// refCeil rounds a big.Rat up to int64 with the bounds package's
// semantics: non-positive values yield 0, ok is false on overflow.
func refCeil(r *big.Rat) (int64, bool) {
	if r.Sign() <= 0 {
		return 0, true
	}
	num := new(big.Int).Add(r.Num(), new(big.Int).Sub(r.Denom(), big.NewInt(1)))
	num.Div(num, r.Denom())
	if !num.IsInt64() {
		return 0, false
	}
	return num.Int64(), true
}

// refBest is the default bound selection in math/big: the smallest of
// the Baruah, George and superposition formulas (as in the bounds
// package's fastref_test) for U < 1, hyperperiod + Dmax + 1 for U == 1.
// It returns (0, "") where the analyzers report no bound.
func refBest(ts model.TaskSet) (int64, bounds.Kind) {
	one := big.NewRat(1, 1)
	u := ts.Utilization()
	switch u.Cmp(one) {
	case 1:
		return 0, ""
	case 0:
		h, ok := bounds.Hyperperiod(ts)
		if b := new(big.Int).SetInt64(h); ok && b.Add(b, big.NewInt(ts.MaxDeadline()+1)).IsInt64() {
			return b.Int64(), bounds.KindHyperperiod
		}
		return 0, ""
	}
	free := new(big.Rat).Sub(one, u)
	best, kind := int64(0), bounds.Kind("")
	consider := func(b int64, k bounds.Kind, ok bool) {
		if ok && (kind == "" || b < best) {
			best, kind = b, k
		}
	}
	if ts.Constrained() {
		var maxGap int64
		for _, t := range ts {
			maxGap = max(maxGap, t.Period-t.Deadline)
		}
		b, ok := refCeil(new(big.Rat).Quo(new(big.Rat).Mul(u, big.NewRat(maxGap, 1)), free))
		consider(b, bounds.KindBaruah, ok)
	}
	pos, all := new(big.Rat), new(big.Rat)
	var dmax int64
	for _, t := range ts {
		term := new(big.Rat).Sub(big.NewRat(t.WCET, 1), new(big.Rat).Mul(big.NewRat(t.WCET, t.Period), big.NewRat(t.Deadline, 1)))
		all.Add(all, term)
		if term.Sign() > 0 {
			pos.Add(pos, term)
		}
		dmax = max(dmax, t.Deadline)
	}
	b, ok := refCeil(pos.Quo(pos, free))
	consider(b, bounds.KindGeorge, ok)
	b, ok = refCeil(all.Quo(all, free))
	consider(max(b, dmax), bounds.KindSuperposition, ok)
	return best, kind
}

// refDevi is Devi's test in math/big, with the prefix condition in its
// original division form.
func refDevi(ts model.TaskSet) Result {
	one := big.NewRat(1, 1)
	if ts.Utilization().Cmp(one) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	cumU, cumGap := new(big.Rat), new(big.Rat)
	var iterations int64
	for _, t := range ts.SortedByDeadline() {
		iterations++
		cumU.Add(cumU, big.NewRat(t.WCET, t.Period))
		gap := t.Period - min(t.Period, t.Deadline)
		cumGap.Add(cumGap, new(big.Rat).Mul(big.NewRat(gap, t.Period), big.NewRat(t.WCET, 1)))
		cond := new(big.Rat).Quo(cumGap, big.NewRat(t.Deadline, 1))
		if cond.Add(cond, cumU).Cmp(one) > 0 {
			return Result{Verdict: NotAccepted, Iterations: iterations, FailureInterval: t.Deadline}
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}

// refLiuLayland is Liu & Layland's test in math/big.
func refLiuLayland(ts model.TaskSet) Result {
	if ts.Utilization().Cmp(big.NewRat(1, 1)) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	for _, t := range ts {
		if t.Deadline < t.Period {
			return Result{Verdict: NotAccepted, Iterations: 1}
		}
	}
	return Result{Verdict: Feasible, Iterations: 1}
}

// compareClosedForms pins Devi, LiuLayland and the default bound
// selection (ProcessorDemand's Bound/BoundKind) under opt to their
// big.Rat oracles.
func compareClosedForms(t *testing.T, what string, ts model.TaskSet, opt Options) {
	t.Helper()
	compareResults(t, what+"/devi", DeviOpt(ts, opt), refDevi(ts))
	compareResults(t, what+"/liu", LiuLayland(ts, opt), refLiuLayland(ts))
	r := ProcessorDemand(ts, opt)
	if b, k := refBest(ts); r.Bound != b || r.BoundKind != k {
		t.Fatalf("%s/bound: (%d, %q), big.Rat reference (%d, %q) for %v", what, r.Bound, r.BoundKind, b, k, ts)
	}
}

// TestFastArithmeticMatchesBigRatSporadic runs every scalar-based
// analyzer on random sporadic sets under both exact arithmetic modes.
func TestFastArithmeticMatchesBigRatSporadic(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ranges := []int64{20, 1000, 100000, 1 << 40}
	for i := range 320 {
		ts := randomSporadicSet(rng, ranges[i%len(ranges)])
		fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
		for _, level := range []int64{1, 3, 7} {
			compareResults(t, "superpos", SuperPos(ts, level, fast), SuperPos(ts, level, ref))
		}
		compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
		// ProcessorDemand has no scalar accumulator, but its bound now
		// runs on fast arithmetic; pin it against itself across modes.
		compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
		compareClosedForms(t, "sporadic", ts, fast)
	}
}

// TestFastArithmeticMatchesBigRatEvents does the same over event-stream
// workloads through the source-level entry points.
func TestFastArithmeticMatchesBigRatEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 320 {
		tasks := randomEventTasks(rng)
		srcs := eventstream.Sources(tasks)
		fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
		compareResults(t, "superpos-sources",
			SuperPosSources(srcs, 4, fast), SuperPosSources(srcs, 4, ref))
		compareResults(t, "allapprox-sources",
			AllApproxSources(srcs, 0, fast), AllApproxSources(srcs, 0, ref))
		compareResults(t, "dynamic-sources",
			DynamicErrorSources(srcs, 0, fast), DynamicErrorSources(srcs, 0, ref))
		compareResults(t, "pd-sources",
			ProcessorDemandSources(srcs, fast), ProcessorDemandSources(srcs, ref))
	}
}

// spreadSet draws a set with log-uniform periods across the given number
// of decades above 1000 — the `edfgen -spread` shape whose wide period
// mix is what the bounded-denominator plan exists for — with utilization
// biased toward the decision boundary.
func spreadSet(rng *rand.Rand, decades int) model.TaskSet {
	n := rng.Intn(24) + 4
	lo := 3.0
	hi := lo + float64(decades)
	target := 0.8 + rng.Float64()*0.25
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := int64(math.Pow(10, lo+rng.Float64()*(hi-lo)))
		c := int64(target / float64(n) * float64(t))
		if c < 1 {
			c = 1
		}
		d := c + rng.Int63n(t)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// TestFastArithmeticMatchesBigRatSpread runs every analyzer on
// log-uniform spread corpora of 4, 6 and 8 decades under both exact
// arithmetic modes. These are the denominator-stress shapes the chunked
// fast path is built for; the reference must stay bit-identical whether
// an analysis runs on chunk registers, numeric.Fast, or the big.Rat
// fallback.
func TestFastArithmeticMatchesBigRatSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
	ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
	for _, decades := range []int{4, 6, 8} {
		for range 80 {
			ts := spreadSet(rng, decades)
			for _, level := range []int64{1, 3, 7} {
				compareResults(t, "superpos", SuperPos(ts, level, fast), SuperPos(ts, level, ref))
			}
			compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
			compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
			compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
			compareResults(t, "qpa", QPA(ts, fast), QPA(ts, ref))
			compareClosedForms(t, "spread", ts, fast)
		}
	}
}

// capBoundaryPrimes returns n primes just above 2^31: any two multiply
// past the 2^62 chunk denominator cap, so each needs its own chunk and a
// set of n of them needs exactly n chunks.
func capBoundaryPrimes(n int) []int64 {
	isPrime := func(v int64) bool {
		for d := int64(3); d*d <= v; d += 2 {
			if v%d == 0 {
				return false
			}
		}
		return true
	}
	out := make([]int64, 0, n)
	for p := int64(1)<<31 + 1; len(out) < n; p += 2 {
		if isPrime(p) {
			out = append(out, p)
		}
	}
	return out
}

// TestChunkPlanCapBoundary pins both sides of the plan-capacity edge
// with directed sets: one prime per chunk at exactly the chunk budget
// (plannable, zero promotions) and one past it (every analysis falls
// off the fast path and counts promotions) — with bit-identical results
// against the big.Rat reference either way.
func TestChunkPlanCapBoundary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		primes   int
		promoted bool
	}{
		{"at-cap", numeric.MaxChunks, false},
		{"past-cap", numeric.MaxChunks + 1, true},
	} {
		var ts model.TaskSet
		for _, p := range capBoundaryPrimes(tc.primes) {
			ts = append(ts, model.Task{WCET: 1, Deadline: p - 1, Period: p})
		}
		sc := demand.NewScratch()
		fast := Options{Arithmetic: ArithExact, Scratch: sc}
		ref := Options{Arithmetic: ArithBigRat}
		compareResults(t, tc.name+"/superpos", SuperPos(ts, 3, fast), SuperPos(ts, 3, ref))
		compareResults(t, tc.name+"/allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, tc.name+"/devi", DeviOpt(ts, fast), DeviOpt(ts, ref))
		compareClosedForms(t, tc.name, ts, fast)
		if promoted := sc.ArithPromotions() > 0; promoted != tc.promoted {
			t.Fatalf("%s: promotions=%d, want promoted=%v",
				tc.name, sc.ArithPromotions(), tc.promoted)
		}
	}
}

// overflowSet builds a set whose slope sum cannot be represented with an
// int64 denominator: huge pairwise-coprime periods force the fast path
// into the big.Rat fallback.
func overflowSet(rng *rand.Rand) model.TaskSet {
	// Periods near 2^61 chosen coprime by construction (consecutive odd
	// offsets of a common huge base are pairwise coprime often enough;
	// verified below by the promotion assertion).
	base := int64(1) << 61
	n := 4
	ts := make(model.TaskSet, 0, n)
	for i := range n {
		t := base + int64(2*i+1) + rng.Int63n(64)*2
		c := t/int64(n) - rng.Int63n(1<<40)
		d := c + rng.Int63n(1<<50)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// TestFastArithmeticOverflowFallback runs directed extreme-parameter sets
// that must overflow the int64 fast path, checks the fallback actually
// engaged, and requires bit-identical results anyway.
func TestFastArithmeticOverflowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fallbacks := 0
	for range 40 {
		ts := overflowSet(rng)
		if demand.UtilizationFast(demand.FromTasks(ts)).Promoted() {
			fallbacks++
		}
		fast := Options{Arithmetic: ArithExact, MaxIterations: 50000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 50000}
		compareResults(t, "superpos", SuperPos(ts, 3, fast), SuperPos(ts, 3, ref))
		compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
		compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
	}
	if fallbacks == 0 {
		t.Fatalf("no overflow set promoted the utilization sum — the directed cases lost their teeth")
	}
}

// TestProcessorDemandSourcesFullUtilization pins the documented U == 1
// contract of the generic-source processor demand test: a clean Undecided
// (no analyzer walk), while the task-set entry point still decides via
// its hyperperiod horizon.
func TestProcessorDemandSourcesFullUtilization(t *testing.T) {
	ts := model.TaskSet{
		{WCET: 2, Deadline: 3, Period: 4},
		{WCET: 1, Deadline: 2, Period: 2},
	}
	// U = 2/4 + 1/2 = 1 exactly.
	if got := utilCmpOne(demand.FromTasks(ts), demand.NewScratch()); got != 0 {
		t.Fatalf("test set utilization cmp 1 = %d, want 0", got)
	}
	srcs := demand.FromTasks(ts)
	r := ProcessorDemandSources(srcs, Options{})
	if r.Verdict != Undecided || r.Iterations != 0 {
		t.Fatalf("ProcessorDemandSources(U==1) = %+v, want clean Undecided with 0 iterations", r)
	}
	// The task-set entry point knows the hyperperiod and stays decisive.
	if rt := ProcessorDemand(ts, Options{}); !rt.Verdict.Definite() {
		t.Fatalf("ProcessorDemand(U==1 task set) = %+v, want a definite verdict", rt)
	}
	// U > 1 still rejects outright.
	over := append(ts.Clone(), model.Task{WCET: 1, Deadline: 5, Period: 5})
	if r := ProcessorDemandSources(demand.FromTasks(over), Options{}); r.Verdict != Infeasible {
		t.Fatalf("ProcessorDemandSources(U>1) = %+v, want Infeasible", r)
	}
}

// TestOverflowSetSanity keeps the directed generator honest: its WCETs
// stay positive and below the period.
func TestOverflowSetSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 40 {
		for _, task := range overflowSet(rng) {
			if task.WCET <= 0 || task.WCET > task.Period || task.Deadline <= 0 {
				t.Fatalf("degenerate overflow task %+v", task)
			}
			if task.Period >= math.MaxInt64/2 {
				t.Fatalf("period overflows downstream math: %d", task.Period)
			}
		}
	}
}
