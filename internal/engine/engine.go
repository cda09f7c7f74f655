package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/response"
	"repro/internal/rtc"
)

// Kind classifies what an analyzer's verdict can mean.
type Kind uint8

const (
	// Exact analyzers decide feasibility both ways.
	Exact Kind = iota
	// Sufficient analyzers only accept: NotAccepted is inconclusive.
	Sufficient
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Sufficient:
		return "sufficient"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Info describes a registered analyzer.
type Info struct {
	// Name is the registry key (e.g. "allapprox", "superpos(5)").
	Name string
	// Label is the long display name used by the CLI tools
	// (e.g. "processor-demand").
	Label string
	// Kind reports whether the analyzer is exact or merely sufficient.
	Kind Kind
	// Blocking reports whether Options.Blocking is honored. Analyzers
	// without blocking support return Undecided when it is set rather
	// than silently ignoring it.
	Blocking bool
	// Events reports whether the analyzer also runs on Gresser
	// event-stream task sets (it implements EventAnalyzer).
	Events bool
}

// Analyzer is a named feasibility test on sporadic task sets.
type Analyzer interface {
	Info() Info
	Analyze(ts model.TaskSet, opt core.Options) core.Result
}

// EventAnalyzer is implemented by analyzers that also run on event-driven
// task sets (the Gresser activation model of the paper's Section 3.4).
type EventAnalyzer interface {
	Analyzer
	AnalyzeEvents(tasks []eventstream.Task, opt core.Options) core.Result
}

// funcAnalyzer adapts plain test functions to the Analyzer interface and
// centralizes the blocking-support guard.
type funcAnalyzer struct {
	info Info
	fn   func(model.TaskSet, core.Options) core.Result
}

func (a funcAnalyzer) Info() Info { return a.info }

func (a funcAnalyzer) Analyze(ts model.TaskSet, opt core.Options) core.Result {
	if opt.Blocking != nil && !a.info.Blocking {
		return core.Result{Verdict: core.Undecided}
	}
	return a.fn(ts, opt)
}

// eventFuncAnalyzer extends funcAnalyzer with an event-stream path; only
// analyzers constructed with it satisfy EventAnalyzer.
type eventFuncAnalyzer struct {
	funcAnalyzer
	evFn func([]eventstream.Task, core.Options) core.Result
}

func (a eventFuncAnalyzer) AnalyzeEvents(tasks []eventstream.Task, opt core.Options) core.Result {
	if opt.Blocking != nil && !a.info.Blocking {
		return core.Result{Verdict: core.Undecided}
	}
	return a.evFn(tasks, opt)
}

// DefaultSuperPosLevel is the superposition level of the registered
// "superpos" analyzer (matching the CLI default).
const DefaultSuperPosLevel = 3

// NewLiuLayland wraps the utilization-bound test.
func NewLiuLayland() Analyzer {
	return funcAnalyzer{
		info: Info{Name: "liu", Label: "liu-layland", Kind: Sufficient},
		fn:   core.LiuLayland,
	}
}

// NewDevi wraps Devi's sufficient test (Definition 1 of the paper).
func NewDevi() Analyzer {
	return funcAnalyzer{
		info: Info{Name: "devi", Label: "devi", Kind: Sufficient},
		fn: func(ts model.TaskSet, opt core.Options) core.Result {
			return core.DeviOpt(ts, opt)
		},
	}
}

// NewSuperPos wraps the superposition approximation at a fixed level.
// Level DefaultSuperPosLevel yields the registered "superpos" analyzer;
// other levels are named "superpos(L)".
func NewSuperPos(level int64) Analyzer {
	name := "superpos"
	if level != DefaultSuperPosLevel {
		name = fmt.Sprintf("superpos(%d)", level)
	}
	return eventFuncAnalyzer{
		funcAnalyzer: funcAnalyzer{
			info: Info{
				Name:     name,
				Label:    fmt.Sprintf("superpos(%d)", level),
				Kind:     Sufficient,
				Blocking: true,
				Events:   true,
			},
			fn: func(ts model.TaskSet, opt core.Options) core.Result {
				return core.SuperPos(ts, level, opt)
			},
		},
		evFn: func(tasks []eventstream.Task, opt core.Options) core.Result {
			return core.SuperPosSources(eventstream.Sources(tasks), level, opt)
		},
	}
}

// NewProcessorDemand wraps the exact processor demand test of Baruah et
// al., the paper's baseline.
func NewProcessorDemand() Analyzer {
	return eventFuncAnalyzer{
		funcAnalyzer: funcAnalyzer{
			info: Info{Name: "pd", Label: "processor-demand", Kind: Exact, Blocking: true, Events: true},
			fn:   core.ProcessorDemand,
		},
		evFn: func(tasks []eventstream.Task, opt core.Options) core.Result {
			return core.ProcessorDemandSources(eventstream.Sources(tasks), opt)
		},
	}
}

// NewQPA wraps Quick Processor-demand Analysis (Zhang & Burns, 2009).
func NewQPA() Analyzer {
	return funcAnalyzer{
		info: Info{Name: "qpa", Label: "qpa", Kind: Exact},
		fn:   core.QPA,
	}
}

// NewDynamicError wraps the paper's dynamic error test (Section 4.1).
func NewDynamicError() Analyzer {
	return eventFuncAnalyzer{
		funcAnalyzer: funcAnalyzer{
			info: Info{Name: "dynamic", Label: "dynamic", Kind: Exact, Blocking: true, Events: true},
			fn:   core.DynamicError,
		},
		evFn: func(tasks []eventstream.Task, opt core.Options) core.Result {
			return core.DynamicErrorSources(eventstream.Sources(tasks), 0, opt)
		},
	}
}

// NewAllApprox wraps the paper's all-approximated test (Section 4.2), the
// fastest exact test and the library default.
func NewAllApprox() Analyzer {
	return eventFuncAnalyzer{
		funcAnalyzer: funcAnalyzer{
			info: Info{Name: "allapprox", Label: "allapprox", Kind: Exact, Blocking: true, Events: true},
			fn:   core.AllApprox,
		},
		evFn: func(tasks []eventstream.Task, opt core.Options) core.Result {
			return core.AllApproxSources(eventstream.Sources(tasks), 0, opt)
		},
	}
}

// NewRTC wraps the real-time-calculus style curve test (Section 3.6), a
// sufficient cross-check that is never better than Devi's test.
func NewRTC() Analyzer {
	return eventFuncAnalyzer{
		funcAnalyzer: funcAnalyzer{
			info: Info{Name: "rtc", Label: "rtc-curves", Kind: Sufficient, Events: true},
			fn: func(ts model.TaskSet, _ core.Options) core.Result {
				return core.Result{Verdict: rtc.Feasible(ts)}
			},
		},
		evFn: func(tasks []eventstream.Task, _ core.Options) core.Result {
			return core.Result{Verdict: rtc.FeasibleEvents(tasks)}
		},
	}
}

// NewResponseTime wraps Spuri's worst-case response time analysis as an
// independent exact cross-check: feasible iff every WCRT meets its
// deadline. Undecided when the analysis does not apply (U > 1).
func NewResponseTime() Analyzer {
	return funcAnalyzer{
		info: Info{Name: "response", Label: "response-time", Kind: Exact},
		fn: func(ts model.TaskSet, _ core.Options) core.Result {
			feasible, ok := response.Feasible(ts, response.Options{})
			switch {
			case !ok:
				return core.Result{Verdict: core.Undecided}
			case feasible:
				return core.Result{Verdict: core.Feasible}
			default:
				return core.Result{Verdict: core.Infeasible}
			}
		},
	}
}
