package core

import (
	"repro/internal/model"
)

// LiuLayland applies the classic utilization-bound test of Liu & Layland
// (Section 3.1 of the paper): for deadlines no smaller than periods, the
// set is feasible under EDF if and only if U <= 1. For sets with some
// D < T the test cannot accept (NotAccepted), although U > 1 still proves
// infeasibility. Only the Scratch field of the options influences the
// execution: the utilization sum runs on its chunk registers, and the
// plan it builds serves the later stages of a cascade.
func LiuLayland(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	if utilCmpOne(opt.Scratch.Sources(ts), opt.Scratch) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	for _, t := range ts {
		if t.Deadline < t.Period {
			return Result{Verdict: NotAccepted, Iterations: 1}
		}
	}
	return Result{Verdict: Feasible, Iterations: 1}
}
