package core

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
)

// deviRejectedFeasible is a feasible set Devi cannot accept (tight-deadline
// heavy task), used to exercise the refinement paths.
func deviRejectedFeasible() model.TaskSet {
	return model.TaskSet{
		{WCET: 1, Deadline: 4, Period: 4},
		{WCET: 2, Deadline: 10, Period: 10},
		{WCET: 3, Deadline: 20, Period: 20},
		{WCET: 2, Deadline: 25, Period: 25},
		{WCET: 6, Deadline: 50, Period: 50},
		{WCET: 2, Deadline: 80, Period: 80},
		{WCET: 6, Deadline: 100, Period: 100},
		{WCET: 4, Deadline: 200, Period: 200},
		{WCET: 5, Deadline: 250, Period: 250},
		{WCET: 6, Deadline: 300, Period: 300},
		{WCET: 12, Deadline: 280, Period: 2800},
		{WCET: 16, Deadline: 420, Period: 4200},
	}
}

func TestDeviRejectedFeasibleFixture(t *testing.T) {
	ts := deviRejectedFeasible()
	if r := Devi(ts); r.Verdict == Feasible {
		t.Fatalf("fixture accepted by Devi")
	}
	if r := ProcessorDemand(ts, Options{}); r.Verdict != Feasible {
		t.Fatalf("fixture not feasible: %v", r.Verdict)
	}
}

func TestDynamicMaxLevelCap(t *testing.T) {
	ts := deviRejectedFeasible()
	// Uncapped: exact, feasible, level must have risen above 1.
	r := DynamicError(ts, Options{})
	if r.Verdict != Feasible || r.MaxLevel <= 1 {
		t.Fatalf("uncapped: %v level %d", r.Verdict, r.MaxLevel)
	}
	// Capped at level 1 the test degenerates to SuperPos(1) = Devi and
	// must refuse the set rather than claim infeasibility.
	r = DynamicError(ts, Options{MaxLevel: 1})
	if r.Verdict != NotAccepted {
		t.Fatalf("capped at 1: %v, want not-accepted", r.Verdict)
	}
	// A generous cap is never reached: still exact.
	r = DynamicError(ts, Options{MaxLevel: 1 << 30})
	if r.Verdict != Feasible {
		t.Fatalf("generous cap: %v", r.Verdict)
	}
}

func TestDynamicCapNeverFlipsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for range 2000 {
		ts := randomSmallSet(rng)
		exact := ProcessorDemand(ts, Options{})
		capped := DynamicError(ts, Options{MaxLevel: 2})
		switch capped.Verdict {
		case Feasible:
			if exact.Verdict != Feasible {
				t.Fatalf("capped dynamic accepted infeasible set %v", ts)
			}
		case Infeasible:
			if exact.Verdict != Infeasible {
				t.Fatalf("capped dynamic rejected feasible set %v", ts)
			}
		}
	}
}

func TestMaxIterationsYieldsUndecided(t *testing.T) {
	ts := deviRejectedFeasible()
	for name, r := range map[string]Result{
		"pd":      ProcessorDemand(ts, Options{MaxIterations: 2}),
		"qpa":     QPA(ts, Options{MaxIterations: 1}),
		"dynamic": DynamicError(ts, Options{MaxIterations: 2}),
		"all":     AllApprox(ts, Options{MaxIterations: 2}),
	} {
		if r.Verdict != Undecided {
			t.Errorf("%s: %v, want undecided", name, r.Verdict)
		}
	}
}

func TestOverUtilizedShortCircuit(t *testing.T) {
	ts := model.TaskSet{
		{WCET: 2, Deadline: 3, Period: 3},
		{WCET: 2, Deadline: 4, Period: 4},
	}
	for name, r := range map[string]Result{
		"liu":     LiuLayland(ts, Options{}),
		"devi":    Devi(ts),
		"sp":      SuperPos(ts, 3, Options{}),
		"pd":      ProcessorDemand(ts, Options{}),
		"qpa":     QPA(ts, Options{}),
		"dynamic": DynamicError(ts, Options{}),
		"all":     AllApprox(ts, Options{}),
	} {
		if r.Verdict != Infeasible {
			t.Errorf("%s: %v, want infeasible for U>1", name, r.Verdict)
		}
		if r.Iterations > 1 {
			t.Errorf("%s: %d iterations for a U>1 set", name, r.Iterations)
		}
	}
}

func TestFullUtilizationImplicitDeadlines(t *testing.T) {
	// U == 1 with D == T: feasible, and the exact tests must terminate via
	// the hyperperiod horizon.
	ts := model.TaskSet{
		{WCET: 1, Deadline: 2, Period: 2},
		{WCET: 2, Deadline: 6, Period: 6},
		{WCET: 1, Deadline: 6, Period: 6},
	}
	if !ts.FullyUtilized() {
		t.Fatal("fixture not fully utilized")
	}
	for name, r := range map[string]Result{
		"pd":      ProcessorDemand(ts, Options{}),
		"qpa":     QPA(ts, Options{}),
		"dynamic": DynamicError(ts, Options{}),
		"all":     AllApprox(ts, Options{}),
	} {
		if r.Verdict != Feasible {
			t.Errorf("%s: %v, want feasible", name, r.Verdict)
		}
	}
}

func TestFullUtilizationConstrainedInfeasible(t *testing.T) {
	// U == 1 with one tightened deadline: infeasible, must be detected.
	ts := model.TaskSet{
		{WCET: 1, Deadline: 1, Period: 2},
		{WCET: 3, Deadline: 5, Period: 6},
	}
	if !ts.FullyUtilized() {
		t.Fatal("fixture not fully utilized")
	}
	for name, r := range map[string]Result{
		"pd":      ProcessorDemand(ts, Options{}),
		"qpa":     QPA(ts, Options{}),
		"dynamic": DynamicError(ts, Options{}),
		"all":     AllApprox(ts, Options{}),
	} {
		if r.Verdict != Infeasible {
			t.Errorf("%s: %v, want infeasible", name, r.Verdict)
		}
	}
}

// TestFailureIntervalWitnesses checks that reported failure intervals are
// genuine demand violations.
func TestFailureIntervalWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	seen := 0
	for range 4000 {
		ts := randomSmallSet(rng)
		if ts.OverUtilized() {
			continue
		}
		srcs := demand.FromTasks(ts)
		for name, r := range map[string]Result{
			"pd":      ProcessorDemand(ts, Options{}),
			"dynamic": DynamicError(ts, Options{}),
			"all":     AllApprox(ts, Options{}),
		} {
			if r.Verdict != Infeasible {
				continue
			}
			seen++
			if r.FailureInterval <= 0 {
				t.Fatalf("%s: infeasible without witness for %v", name, ts)
			}
			if demand.Dbf(srcs, r.FailureInterval) <= r.FailureInterval {
				t.Fatalf("%s: witness %d is not a violation for %v",
					name, r.FailureInterval, ts)
			}
		}
	}
	if seen < 100 {
		t.Fatalf("only %d infeasible witnesses checked", seen)
	}
}

// TestPDIterationsCountDistinctDeadlines pins the iteration metric of the
// processor demand test: one iteration per distinct absolute deadline below
// the bound it uses.
func TestPDIterationsCountDistinctDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for range 1000 {
		ts := randomSmallSet(rng)
		if ts.OverUtilized() {
			continue
		}
		r := ProcessorDemand(ts, Options{})
		if r.Verdict != Feasible {
			continue // counting up to a failure is a prefix, skip
		}
		b, _, ok := bounds.Best(ts)
		if !ok {
			continue
		}
		distinct := map[int64]bool{}
		for _, s := range demand.FromTasks(ts) {
			for k := int64(1); ; k++ {
				d := s.JobDeadline(k)
				if d >= b {
					break
				}
				distinct[d] = true
			}
		}
		if r.Iterations != int64(len(distinct)) {
			t.Fatalf("pd iterations %d, distinct deadlines %d for %v (bound %d)",
				r.Iterations, len(distinct), ts, b)
		}
	}
}

// TestNewTestsMatchDeviCostWhenDeviAccepts pins the paper's claim that the
// new tests run entirely on level SuperPos(1) for Devi-accepted sets: one
// checked interval per task, no revisions.
func TestNewTestsMatchDeviCostWhenDeviAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	count := 0
	for range 4000 {
		ts := randomSmallSet(rng)
		if Devi(ts).Verdict != Feasible {
			continue
		}
		count++
		n := int64(len(ts))
		dyn := DynamicError(ts, Options{})
		all := AllApprox(ts, Options{})
		if dyn.Iterations != n || dyn.Revisions != 0 {
			t.Fatalf("dynamic cost %d/%d revisions on Devi-accepted %v",
				dyn.Iterations, dyn.Revisions, ts)
		}
		if all.Iterations != n || all.Revisions != 0 {
			t.Fatalf("allapprox cost %d/%d revisions on Devi-accepted %v",
				all.Iterations, all.Revisions, ts)
		}
	}
	if count < 500 {
		t.Fatalf("only %d Devi-accepted sets", count)
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		Feasible:    "feasible",
		Infeasible:  "infeasible",
		NotAccepted: "not-accepted",
		Undecided:   "undecided",
		Verdict(42): "verdict(42)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", v, got, want)
		}
	}
	if !Feasible.Definite() || !Infeasible.Definite() {
		t.Error("feasible/infeasible must be definite")
	}
	if NotAccepted.Definite() || Undecided.Definite() {
		t.Error("not-accepted/undecided must not be definite")
	}
}

func TestSingleTaskEdgeCases(t *testing.T) {
	// C == D == T: exactly schedulable.
	ts := model.TaskSet{{WCET: 5, Deadline: 5, Period: 5}}
	for name, r := range map[string]Result{
		"liu": LiuLayland(ts, Options{}), "devi": Devi(ts),
		"pd": ProcessorDemand(ts, Options{}), "qpa": QPA(ts, Options{}),
		"dynamic": DynamicError(ts, Options{}), "all": AllApprox(ts, Options{}),
	} {
		if r.Verdict != Feasible {
			t.Errorf("%s on C=D=T: %v", name, r.Verdict)
		}
	}
	// D > T (unconstrained): feasible iff U <= 1.
	ts = model.TaskSet{{WCET: 4, Deadline: 9, Period: 5}}
	for name, r := range map[string]Result{
		"pd": ProcessorDemand(ts, Options{}), "dynamic": DynamicError(ts, Options{}),
		"all": AllApprox(ts, Options{}), "liu": LiuLayland(ts, Options{}),
	} {
		if r.Verdict != Feasible {
			t.Errorf("%s on D>T: %v", name, r.Verdict)
		}
	}
}

func TestExplicitBoundSelection(t *testing.T) {
	ts := deviRejectedFeasible()
	for _, kind := range []bounds.Kind{
		bounds.KindBaruah, bounds.KindGeorge, bounds.KindSuperposition,
		bounds.KindBusyPeriod, bounds.KindHyperperiod,
	} {
		r := ProcessorDemand(ts, Options{Bound: kind})
		if r.Verdict == Undecided {
			continue // bound not applicable to this set is acceptable
		}
		if r.Verdict != Feasible {
			t.Errorf("bound %s: verdict %v", kind, r.Verdict)
		}
		if r.BoundKind != kind {
			t.Errorf("bound %s: reported kind %s", kind, r.BoundKind)
		}
	}
	if r := ProcessorDemand(ts, Options{Bound: "bogus"}); r.Verdict != Undecided {
		t.Errorf("bogus bound: %v, want undecided", r.Verdict)
	}
}
