package bounds

import (
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// regs holds the accumulators of one bound computation, one per role:
// the utilization U, George's sum of positive terms, the superposition
// sum of all terms, the per-source term and 1-U. For numeric.Fast they
// are plain values; on the chunk registers each is its own Scratch
// register, so no result ever lands in an operand that is still needed.
type regs[S numeric.Exact[S]] struct {
	u, sumPos, sumAll, term, den S
}

// chunkRegs binds a bound computation to the scratch's registers 0-4.
// The caller holds a plan from sc.Arith.
func chunkRegs(sc *demand.Scratch) regs[*numeric.Chunked] {
	return regs[*numeric.Chunked]{sc.Reg(0), sc.Reg(1), sc.Reg(2), sc.Reg(3), sc.Reg(4)}
}

// util sums the sources' slopes into r.u and compares U with 1.
func (r *regs[S]) util(srcs []demand.Source) int {
	r.u = demand.AddUtil(r.u, srcs)
	return r.u.CmpInt(1)
}

// ceilQuo rounds sum/(1-U) up to an int64: non-positive sums yield 0,
// and ok is false only when the (positive) result does not fit in int64.
// Requires U < 1 in r.u.
func (r *regs[S]) ceilQuo(sum S) (int64, bool) {
	if sum.Sign() <= 0 {
		return 0, true
	}
	r.den = r.den.SetInt(1).Sub(r.u)
	return sum.QuoCeil(r.den)
}

// baruah is Baruah's bound with U < 1 already in r.u.
func (r *regs[S]) baruah(ts model.TaskSet) (int64, bool) {
	if !ts.Constrained() {
		return 0, false
	}
	var maxGap int64
	for _, t := range ts {
		maxGap = max(maxGap, t.Period-t.Deadline)
	}
	if maxGap == 0 {
		return 0, true
	}
	// ceil(U*maxGap / (1-U))
	r.term = r.term.Set(r.u).MulInt(maxGap)
	return r.ceilQuo(r.term)
}

// linear computes George's bound and the superposition bound in one
// pass, with U < 1 already in r.u: the two share the utilization and the
// per-source terms C - F*U_s (first deadline F, slope U_s), the constants
// of the linear upper bounds dbf_s(I) <= U_s*I + (C - F*U_s). George's
// sum starts at bmax, the blocking allowance of GeorgeWithBlocking.
func (r *regs[S]) linear(srcs []demand.Source, bmax int64) (george int64, okG bool, superpos int64, okS bool) {
	r.sumPos = r.sumPos.SetInt(bmax)
	r.sumAll = r.sumAll.SetInt(0)
	var dmax int64
	for _, s := range srcs {
		f := s.JobDeadline(1)
		r.term = r.term.SetInt(0).AddRat(s.UtilRat()).MulInt(-f).AddInt(s.WCET())
		r.sumAll = r.sumAll.Add(r.term)
		if r.term.Sign() > 0 {
			r.sumPos = r.sumPos.Add(r.term)
		}
		dmax = max(dmax, f)
	}
	george, okG = r.ceilQuo(r.sumPos)
	b, okB := r.ceilQuo(r.sumAll)
	if !okB {
		return george, okG, 0, false
	}
	return george, okG, max(b, dmax), true
}

// linearBounds is LinearBounds on the given accumulators.
func linearBounds[S numeric.Exact[S]](srcs []demand.Source, bmax int64, r *regs[S]) (george int64, okG bool, superpos int64, okS bool) {
	if r.util(srcs) >= 0 {
		return 0, false, 0, false
	}
	return r.linear(srcs, bmax)
}

// Baruah returns the bound of Baruah et al. (Definition 3):
// I < U/(1-U) * max(Ti - Di). It applies only to constrained-deadline sets
// (Di <= Ti for every task) with U < 1; otherwise ok is false. A zero bound
// means no violation interval exists at all (every Di == Ti and U <= 1).
func Baruah(ts model.TaskSet) (bound int64, ok bool) {
	var r regs[numeric.Fast]
	if r.util(demand.FromTasks(ts)) >= 0 {
		return 0, false
	}
	return r.baruah(ts)
}

// George returns the bound of George et al.:
// I < Σ_{Di<=Ti} (1-Di/Ti)·Ci / (1-U). Sources whose term is negative
// (deadline beyond period) are excluded, which keeps the bound sound.
// ok is false when U >= 1 or the bound overflows.
func George(srcs []demand.Source) (bound int64, ok bool) { return GeorgeWithBlocking(srcs, 0) }

// GeorgeTasks is George over a sporadic task set.
func GeorgeTasks(ts model.TaskSet) (int64, bool) { return George(demand.FromTasks(ts)) }

// GeorgeWithBlocking extends George's bound to blocking-reduced capacity:
// a violation dbf(I) > I - B(I) with B non-increasing and B(I) <= bmax
// implies I < (Σ terms + bmax)/(1-U).
func GeorgeWithBlocking(srcs []demand.Source, bmax int64) (bound int64, ok bool) {
	bound, ok, _, _ = linearBounds(srcs, bmax, &regs[numeric.Fast]{})
	return bound, ok
}

// Superposition returns the new bound I_sup of Section 4.3:
// the interval beyond which the all-approximated test can approximate every
// task, I_sup = max(Dmax, Σ_all (1-Di/Ti)·Ci / (1-U)). Unlike George, the
// sum ranges over every source including those with negative terms, which
// is sound for intervals >= the largest first deadline and makes the bound
// at most George's bound (the relationship the paper proves). ok is false
// when U >= 1 or on overflow.
func Superposition(srcs []demand.Source) (bound int64, ok bool) {
	_, _, bound, ok = LinearBounds(srcs, nil)
	return bound, ok
}

// SuperpositionTasks is Superposition over a sporadic task set.
func SuperpositionTasks(ts model.TaskSet) (int64, bool) {
	return Superposition(demand.FromTasks(ts))
}

// LinearBounds returns George's bound and the superposition bound in one
// pass over the sources; each (bound, ok) pair matches the standalone
// function exactly. With a non-nil Scratch whose chunk plan covers the
// sources the sums run on its registers, allocation-free even on
// spread-period sets whose slopes overflow numeric.Fast; otherwise they
// run in numeric.Fast. Both are exact, so the results are identical.
func LinearBounds(srcs []demand.Source, sc *demand.Scratch) (george int64, okG bool, superpos int64, okS bool) {
	if sc != nil && sc.Arith(srcs) != nil {
		r := chunkRegs(sc)
		return linearBounds(srcs, 0, &r)
	}
	return linearBounds(srcs, 0, &regs[numeric.Fast]{})
}

// busyPeriodMaxIter caps the fixpoint iteration of BusyPeriod; real task
// sets converge in a handful of steps.
const busyPeriodMaxIter = 100000

// BusyPeriod returns the length of the synchronous processor busy period:
// the least fixpoint of L = Σ ceil(L/Ti)·Ci starting from L0 = Σ Ci.
// ok is false when U > 1, the iteration does not converge within the cap,
// or an intermediate value overflows. The paper notes this bound can be
// tighter than the superposition bound but is expensive to compute.
func BusyPeriod(ts model.TaskSet) (length int64, ok bool) {
	var l int64
	for _, t := range ts {
		var okAdd bool
		l, okAdd = numeric.AddChecked(l, t.WCET)
		if !okAdd {
			return 0, false
		}
	}
	for range busyPeriodMaxIter {
		var next int64
		for _, t := range ts {
			jobs := numeric.CeilDiv(l, t.Period)
			d, okMul := numeric.MulChecked(jobs, t.WCET)
			if !okMul {
				return 0, false
			}
			var okAdd bool
			next, okAdd = numeric.AddChecked(next, d)
			if !okAdd {
				return 0, false
			}
		}
		if next == l {
			return l, true
		}
		l = next
	}
	return 0, false
}

// Hyperperiod returns lcm(T1,...,Tn), ok=false on int64 overflow.
func Hyperperiod(ts model.TaskSet) (int64, bool) {
	h := int64(1)
	for _, t := range ts {
		var ok bool
		h, ok = numeric.LCM(h, t.Period)
		if !ok {
			return 0, false
		}
	}
	return h, true
}

// Kind names a feasibility bound for reporting.
type Kind string

// Bound kinds.
const (
	KindBaruah        Kind = "baruah"
	KindGeorge        Kind = "george"
	KindSuperposition Kind = "superposition"
	KindBusyPeriod    Kind = "busy-period"
	KindHyperperiod   Kind = "hyperperiod"
	KindNone          Kind = "none"
)

// Best returns the smallest applicable cheap bound (Baruah, George,
// superposition) for a task set with U < 1, together with its name.
// For U == 1 it falls back to hyperperiod + Dmax, which is sound because
// dbf(I+H) = dbf(I) + H for I >= Dmax when U == 1. ok is false for U > 1
// or when nothing applies within int64.
func Best(ts model.TaskSet) (bound int64, kind Kind, ok bool) {
	return BestSources(ts, demand.FromTasks(ts), nil)
}

// BestSources is Best for callers that already hold the set's demand
// sources: srcs must be FromTasks(ts) or equivalent. The Scratch selects
// the arithmetic as in LinearBounds (nil means numeric.Fast); the result
// is the same either way.
func BestSources(ts model.TaskSet, srcs []demand.Source, sc *demand.Scratch) (bound int64, kind Kind, ok bool) {
	if sc != nil && sc.Arith(srcs) != nil {
		r := chunkRegs(sc)
		return best(ts, srcs, &r)
	}
	return best(ts, srcs, &regs[numeric.Fast]{})
}

// best is BestSources on the given accumulators. One utilization sum
// feeds every candidate bound.
func best[S numeric.Exact[S]](ts model.TaskSet, srcs []demand.Source, r *regs[S]) (bound int64, kind Kind, ok bool) {
	switch r.util(srcs) {
	case 1:
		return 0, KindNone, false
	case 0:
		return fullUtilBound(ts)
	}
	bound, kind, ok = 0, KindNone, false
	consider := func(b int64, k Kind, okB bool) {
		if okB && (!ok || b < bound) {
			bound, kind, ok = b, k, true
		}
	}
	b, okB := r.baruah(ts)
	consider(b, KindBaruah, okB)
	bg, okG, bs, okS := r.linear(srcs, 0)
	consider(bg, KindGeorge, okG)
	consider(bs, KindSuperposition, okS)
	return bound, kind, ok
}

// fullUtilBound is the U == 1 fallback of Best: hyperperiod + Dmax + 1.
func fullUtilBound(ts model.TaskSet) (int64, Kind, bool) {
	h, okH := Hyperperiod(ts)
	if !okH {
		return 0, KindNone, false
	}
	b, okB := numeric.AddChecked(h, ts.MaxDeadline())
	if !okB {
		return 0, KindNone, false
	}
	// Exclusive bound: candidate violations lie at I <= H + Dmax.
	b, okB = numeric.AddChecked(b, 1)
	if !okB {
		return 0, KindNone, false
	}
	return b, KindHyperperiod, true
}
