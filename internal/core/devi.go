package core

import (
	"repro/internal/model"
	"repro/internal/numeric"
)

// Devi applies the sufficient test of Devi (Definition 1): with tasks
// ordered by non-decreasing relative deadline, the set is accepted if
// U <= 1 and for every prefix k
//
//	Σ_{i<=k} Ci/Ti  +  (1/Dk)·Σ_{i<=k} ((Ti - min(Ti,Di))/Ti)·Ci  <=  1.
//
// The test is evaluated in exact rational arithmetic; the prefix
// condition is checked in the division-free form
// Σ Ci/Ti · Dk + Σ gap-terms <= Dk. Iterations counts the prefix
// conditions checked, one per task up to and including the first failing
// one, matching the iteration metric of the paper's Table 1.
func Devi(ts model.TaskSet) Result { return DeviOpt(ts, Options{}) }

// DeviOpt is Devi honoring Options: with a reused Scratch the test runs
// allocation-free — the deadline-sorted copy lives in a scratch buffer
// and the prefix accumulators in the chunk register bank (numeric.Fast
// when the denominator plan cannot cover the periods). With Blocking set
// each prefix condition is checked against the reduced capacity
// Dk - B(Dk), Devi's blocking extension. No other field influences the
// execution.
func DeviOpt(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	srcs := opt.Scratch.Sources(ts)
	if utilCmpOne(srcs, opt.Scratch) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	sorted := opt.Scratch.SortedByDeadline(ts)
	if sc := opt.Scratch; sc.Arith(srcs) != nil {
		return devi(sc.Reg(0), sc.Reg(1), sc.Reg(2), sc.Reg(3), sorted, opt)
	}
	var zero numeric.Fast
	return devi(zero, zero, zero, zero, sorted, opt)
}

// devi evaluates the prefix conditions over the deadline-sorted tasks.
// cumU, cumGap, cond and term are zero accumulators of their own, so no
// intermediate ever overwrites a running sum it is built from.
func devi[S numeric.Exact[S]](cumU, cumGap, cond, term S, sorted model.TaskSet, opt Options) Result {
	var iterations int64
	for _, t := range sorted {
		iterations++
		cumU = cumU.AddRat(t.WCET, t.Period)
		if gap := t.Period - min(t.Period, t.Deadline); gap > 0 {
			// gap·C/T, scaled in term when gap·C overflows int64.
			if num, ok := numeric.MulChecked(gap, t.WCET); ok {
				cumGap = cumGap.AddRat(num, t.Period)
			} else {
				term = term.SetInt(0).AddRat(gap, t.Period).MulInt(t.WCET)
				cumGap = cumGap.Add(term)
			}
		}
		// cumU + (cumGap + B(Dk))/Dk <= 1  ⇔  cumU·Dk + cumGap <= Dk - B(Dk)
		// (Dk > 0; B = 0 without blocking).
		cond = cond.Set(cumU).MulInt(t.Deadline).Add(cumGap)
		if cond.CmpInt(opt.capacityAt(t.Deadline)) > 0 {
			return Result{
				Verdict:         NotAccepted,
				Iterations:      iterations,
				FailureInterval: t.Deadline,
			}
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}
