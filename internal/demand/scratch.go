package demand

import (
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/numeric"
)

// Scratch is reusable working memory for the iterative feasibility tests:
// the test list, the per-source job counters, the adapted source slice
// and the revision-tracker buffers. A Scratch serves one analysis at a
// time — its parts are distinct fields, so one test may use all of them
// concurrently, but two concurrent tests must not share a Scratch. With a
// reused Scratch the sporadic analyzers run allocation-free in steady
// state.
//
// The zero value is ready for use; NewScratch exists for symmetry with
// the pool helpers.
type Scratch struct {
	list      TestList
	jobs      []int64
	sporadics []Sporadic
	srcs      []Source
	ints      []int
	bools     []bool

	// Bounded-denominator arithmetic state: the per-workload chunk plan
	// (cached under its denominator key across analyses of the same set),
	// the register bank the analyzers and bounds compute in, and the
	// promotion tally that survives plan rebuilds.
	denBuf  []int64
	planKey []int64
	plan    numeric.Plan
	planOK  bool
	hasPlan bool
	promos  uint64
	regs    [ScratchRegs]numeric.Chunked

	// Uniform-walk shape arrays, the walk's selection tree and the
	// deadline-sorted task buffer.
	shapeC   []int64
	shapeSep []int64
	merge    LoserTree
	sorted   model.TaskSet
}

// ScratchRegs is the size of the chunk-register bank. The widest
// consumer is the combined bound computation (utilization, two linear
// sums, a term and 1-U).
const ScratchRegs = 5

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool feeds analyzers that were not handed an explicit Scratch.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch from the package pool. Return it with
// PutScratch when the analysis is done.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a borrowed Scratch to the pool. The caller must not
// use s afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// TestList returns the scratch test list, emptied and grown to hold n
// entries.
func (s *Scratch) TestList(n int) *TestList {
	s.list.Reset()
	s.list.Grow(n)
	return &s.list
}

// Jobs returns a zeroed int64 slice of length n.
func (s *Scratch) Jobs(n int) []int64 {
	if cap(s.jobs) < n {
		s.jobs = make([]int64, n)
	}
	s.jobs = s.jobs[:n]
	for i := range s.jobs {
		s.jobs[i] = 0
	}
	return s.jobs
}

// Ints returns an empty int slice with capacity for n elements.
func (s *Scratch) Ints(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, 0, n)
	}
	return s.ints[:0]
}

// Bools returns a zeroed bool slice of length n.
func (s *Scratch) Bools(n int) []bool {
	if cap(s.bools) < n {
		s.bools = make([]bool, n)
	}
	s.bools = s.bools[:n]
	for i := range s.bools {
		s.bools[i] = false
	}
	return s.bools
}

// Arith returns the bounded-denominator chunk plan covering the
// sources' slope denominators, building it on first use and reusing the
// cached plan while the denominator sequence is unchanged (the common
// case: every stage of a cascade analyzes the same workload). A nil
// result means the workload genuinely exceeds the chunk cap — callers
// fall back to the numeric.Fast path and the analysis counts as one
// promotion.
func (s *Scratch) Arith(srcs []Source) *numeric.Plan {
	s.denBuf = s.denBuf[:0]
	for _, src := range srcs {
		_, den := src.UtilRat()
		s.denBuf = append(s.denBuf, den)
	}
	if !s.hasPlan || !slices.Equal(s.denBuf, s.planKey) {
		// Fold the retiring plan's tally so ArithPromotions stays
		// monotonic across rebuilds.
		s.promos += s.plan.Promotions()
		s.planOK = s.plan.Build(s.denBuf)
		s.hasPlan = true
		s.planKey = append(s.planKey[:0], s.denBuf...)
	}
	if !s.planOK {
		s.promos++
		return nil
	}
	return &s.plan
}

// ArithPromotions returns the total fast-path exits recorded against
// this Scratch: values promoted to math/big plus whole analyses that
// fell back to numeric.Fast because no plan fit. The counter is
// monotonic over the Scratch's lifetime; callers attribute per-analysis
// promotions by delta.
func (s *Scratch) ArithPromotions() uint64 {
	return s.promos + s.plan.Promotions()
}

// Reg returns register i of the chunk-register bank, zeroed and bound to
// the current plan. Registers are shared working memory: a computation
// owns the indices it uses until it returns. Callers must hold a plan
// from Arith (the registers bind to it).
func (s *Scratch) Reg(i int) *numeric.Chunked {
	s.regs[i].Init(&s.plan)
	return &s.regs[i]
}

// UniformShapes fills the per-source WCET and deadline-separation arrays
// for the uniform-walk fast path. ok is false when any source is not an
// endlessly repeating equidistant stream (one-shot sources included);
// the walk then falls back to the generic interface loop.
func (s *Scratch) UniformShapes(srcs []Source) (c, sep []int64, ok bool) {
	if cap(s.shapeC) < len(srcs) {
		s.shapeC = make([]int64, len(srcs))
		s.shapeSep = make([]int64, len(srcs))
	}
	s.shapeC = s.shapeC[:len(srcs)]
	s.shapeSep = s.shapeSep[:len(srcs)]
	for i, src := range srcs {
		us, okSrc := src.(UniformShaped)
		if !okSrc {
			return nil, nil, false
		}
		w, sp, okShape := us.UniformShape()
		if !okShape {
			return nil, nil, false
		}
		s.shapeC[i], s.shapeSep[i] = w, sp
	}
	return s.shapeC, s.shapeSep, true
}

// MergeTree returns the scratch loser tree reset for n sources. The
// caller seeds the leaves with Set and calls Build before selecting.
func (s *Scratch) MergeTree(n int) *LoserTree {
	s.merge.Reset(n)
	return &s.merge
}

// SortedByDeadline copies the tasks into a scratch buffer sorted by
// non-decreasing relative deadline — the same stable order as
// model.TaskSet.SortedByDeadline without the per-call clone. The result
// is valid until the next SortedByDeadline call on the same Scratch.
func (s *Scratch) SortedByDeadline(ts model.TaskSet) model.TaskSet {
	if cap(s.sorted) < len(ts) {
		s.sorted = make(model.TaskSet, 0, len(ts))
	}
	s.sorted = append(s.sorted[:0], ts...)
	slices.SortStableFunc(s.sorted, func(a, b model.Task) int {
		switch {
		case a.Deadline < b.Deadline:
			return -1
		case a.Deadline > b.Deadline:
			return 1
		default:
			return 0
		}
	})
	return s.sorted
}

// Sources adapts the task set to demand sources, rebuilding the scratch
// source slice in place: after the first call at a given size, no
// allocation happens. The returned slice is valid until the next Sources
// call on the same Scratch.
func (s *Scratch) Sources(ts model.TaskSet) []Source {
	s.sporadics = s.sporadics[:0]
	for _, t := range ts {
		s.sporadics = append(s.sporadics, NewSporadic(t))
	}
	s.srcs = s.srcs[:0]
	for i := range s.sporadics {
		// Pointers into the stable sporadics backing array: the interface
		// conversion is allocation-free, unlike boxing a Sporadic value.
		s.srcs = append(s.srcs, &s.sporadics[i])
	}
	return s.srcs
}
