package core

import (
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// DynamicError applies the paper's dynamic error test (Section 4.1,
// Figure 5), an exact feasibility test that starts at approximation level
// SuperPos(1) and, whenever the approximated demand exceeds a test
// interval, doubles the level and withdraws the approximation of the tasks
// that the new level no longer allows to approximate (reusing all values
// already computed). Task sets accepted by Devi's test run entirely on
// level 1 with the same cost; only sets the sufficient tests cannot decide
// pay for higher levels.
//
// With Options.MaxLevel set the test becomes the bounded variant the paper
// describes: a strictly limited worst-case run time at the price of a
// merely sufficient verdict (NotAccepted when the cap prevents refinement).
func DynamicError(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	srcs := opt.Scratch.Sources(ts)
	stopAt, kind, ok := fullUtilizationHorizon(ts, srcs, opt.Scratch)
	if !ok {
		return Result{Verdict: Undecided}
	}
	r := DynamicErrorSources(srcs, stopAt, opt)
	if stopAt > 0 {
		r.Bound, r.BoundKind = stopAt, kind
	}
	return r
}

// DynamicErrorSources runs the dynamic error test over generic demand
// sources. stopAt, when positive, is an exclusive sound horizon (needed
// only for U == 1; pass 0 otherwise).
func DynamicErrorSources(srcs []demand.Source, stopAt int64, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	switch utilCmpOne(srcs, opt.Scratch) {
	case 1:
		return Result{Verdict: Infeasible, Iterations: 1, MaxLevel: 1}
	case 0:
		if stopAt == 0 && opt.MaxIterations == 0 {
			// See AllApproxSources: no implicit bound at full utilization.
			return Result{Verdict: Undecided}
		}
	}
	switch opt.Arithmetic {
	case ArithFloat64:
		return dynamicError(numeric.F64(0), numeric.F64(0), srcs, stopAt, opt)
	case ArithBigRat:
		return dynamicError(numeric.Rat{}, numeric.Rat{}, srcs, stopAt, opt)
	default:
		return dynamicError(numeric.Fast{}, numeric.Fast{}, srcs, stopAt, opt)
	}
}

// dynamicError is the arithmetic-generic walk; dbf and uready are its two
// zero accumulators.
func dynamicError[S numeric.Scalar[S]](dbf, uready S, srcs []demand.Source, stopAt int64, opt Options) Result {
	tl := opt.Scratch.TestList(len(srcs))
	jobs := opt.Scratch.Jobs(len(srcs))
	for i, s := range srcs {
		tl.Add(s.JobDeadline(1), i)
	}
	approx := newApproxTracker(opt.Scratch, len(srcs))
	level := int64(1)
	var iold, iterations, revisions int64
	for !tl.Empty() {
		e := tl.Next()
		I := e.I
		if stopAt > 0 && I >= stopAt {
			return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions, MaxLevel: level}
		}
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations, Revisions: revisions, MaxLevel: level}
		}
		s := srcs[e.Src]
		jobs[e.Src]++
		dbf = dbf.AddInt(s.WCET()).AddScaled(uready, I-iold)
		capacity := opt.capacityAt(I)
		for dbf.CmpInt(capacity) > 0 {
			if approx.empty() {
				exact := accountedDemand(srcs, jobs)
				if exact > capacity {
					return Result{Verdict: Infeasible, Iterations: iterations,
						Revisions: revisions, FailureInterval: I, MaxLevel: level}
				}
				dbf = dbf.SetInt(exact) // float-mode drift: re-synchronize
				break
			}
			// Raise the level (doubling, as the paper proposes) until at
			// least one approximated source's test border JobDeadline(level)
			// moves beyond I, so withdrawing its approximation is possible.
			raised := false
			for !raised {
				next := level * 2
				if next <= level {
					next = numeric.MaxInt64 / 2
				}
				if opt.MaxLevel > 0 && next > opt.MaxLevel {
					next = opt.MaxLevel
				}
				if next <= level {
					break // cap reached, cannot raise further
				}
				level = next
				for _, j := range approx.order {
					if srcs[j].JobDeadline(level) > I {
						raised = true
						break
					}
				}
			}
			if !raised {
				// Level capped with nothing to revise: sufficient mode.
				return Result{Verdict: NotAccepted, Iterations: iterations,
					Revisions: revisions, FailureInterval: I, MaxLevel: level}
			}
			// Γrev: withdraw every approximated source whose border at the
			// new level lies beyond I (it would not be approximated yet).
			for pos := 0; pos < len(approx.order); {
				j := approx.order[pos]
				sj := srcs[j]
				if sj.JobDeadline(level) <= I {
					pos++
					continue
				}
				approx.removeAt(pos)
				num, den := sj.UtilRat()
				uready = uready.SubRat(num, den)
				an, ad := sj.ApproxError(I)
				dbf = dbf.SubRat(an, ad)
				jobs[j] = sj.JobsUpTo(I)
				tl.Add(sj.NextDeadline(I), j)
				revisions++
			}
		}
		// Past its border the source is approximated, otherwise its next
		// job deadline becomes a test interval (Iact + Ti in the paper).
		if I < srcs[e.Src].JobDeadline(level) {
			tl.Add(srcs[e.Src].NextDeadline(I), e.Src)
		} else if num, den := s.UtilRat(); num > 0 {
			uready = uready.AddRat(num, den)
			approx.add(e.Src)
		}
		iold = I
	}
	return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions, MaxLevel: level}
}
