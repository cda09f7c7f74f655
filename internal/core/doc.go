// Package core implements the feasibility tests for preemptive uniprocessor
// EDF scheduling that the paper presents, improves on, or compares against:
//
//   - LiuLayland: the classic utilization bound for implicit deadlines [12].
//   - Devi: the sufficient test of Devi (Definition 1) [9].
//   - ProcessorDemand: the exact test of Baruah et al. (Definition 3) [3].
//   - SuperPos: the superposition approximation SuperPos(x) of Albers &
//     Slomka (Definitions 4-6, Lemma 1) [1].
//   - DynamicError: the paper's first new exact test (Section 4.1, Fig. 5).
//   - AllApprox: the paper's second new exact test (Section 4.2, Fig. 7).
//   - QPA: Quick Processor-demand Analysis (Zhang & Burns 2009), included
//     as a post-paper exact baseline for the ablation benchmarks.
//
// Every test returns a Result carrying the verdict and the number of
// checked test intervals ("iterations"), the metric the paper's evaluation
// uses. The approximated tests run either in exact rational arithmetic or
// in float64 (Options.Arithmetic); rejections are always re-confirmed in
// exact integer arithmetic, so Infeasible verdicts are never rounding
// artifacts.
//
// Each exact routine — the superposition and all-approximated walks,
// Devi's prefix check, the utilization check every test starts with, and
// the feasibility bounds — has one generic body (numeric.Scalar or
// numeric.Exact). By default it runs on the Scratch's bounded-denominator
// chunk registers, and falls back to numeric.Fast when the chunk plan
// cannot cover the periods (more than numeric.MaxChunks mutually
// incompatible ones); ArithFloat64 and ArithBigRat instantiate the walks
// with numeric.F64 and numeric.Rat. The fallback is counted as an
// arithmetic promotion.
//
// The iterative tests operate on demand.Source values, so they apply
// unchanged to sporadic task sets and to Gresser event streams
// (internal/eventstream), the extension Section 2 of the paper promises.
package core
