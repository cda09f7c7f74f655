// Package numeric provides the scalar arithmetic used by the approximated
// feasibility tests.
//
// All task parameters (execution times, deadlines, periods) are integer time
// units, so the exact demand bound function dbf is pure int64 arithmetic.
// The superposition approximation however accumulates rational slopes C/T,
// which this package models behind the Scalar interface:
//
//   - F64: float64 accumulators with a symmetric comparison tolerance.
//     Fast; used by the experiment harnesses. Rejections are re-confirmed
//     with exact integer arithmetic by the callers, so a "not feasible"
//     verdict is never a rounding artifact.
//   - Rat: math/big.Rat accumulators. Exact; the cross-checking reference.
//   - Fast: exact int64 numerator/denominator rationals with 128-bit
//     intermediate products, falling back to a big.Rat payload only while
//     a value cannot be represented in int64 and demoting back as soon as
//     it fits. Allocation-free while parameters stay in range.
//   - *Chunked: the bounded-denominator registers described below.
//
// Exact extends Scalar with the copy, scaling, subtraction, sign and
// ceiling quotient that Devi's test and the feasibility bounds need; Fast
// and *Chunked implement it. Each exact routine is written once against
// these constraints and instantiated per arithmetic.
//
// An implementation may update its receiver in place and return it
// (*Chunked does, like math/big) or return a fresh value (F64, Rat and
// Fast do). Generic code therefore assigns every result back —
// x = x.AddInt(c) — and never reads an operand's old value after an
// operation: a result that must not clobber an operand still needed gets
// an accumulator of its own, passed in by the caller (zero values for the
// value types, distinct Scratch registers for *Chunked).
//
// # Bounded-denominator chunked values
//
// Fast still degrades on wide period spreads: log-uniform periods across
// several decades make the running denominator lcm overflow int64 within
// a few accumulations, and from then on every Add pays a big.Rat
// allocation. Chunked removes that cliff for the analyzers' accumulator
// loops by bounding denominators up front instead of discovering
// overflow per operation.
//
// Plan.Build inspects the full set of source denominators before the
// walk starts and folds them greedily (first-fit) into at most MaxChunks
// chunk denominators, each the lcm of its members and each capped below
// 2^62. A Chunked value is then one int64 numerator per chunk over that
// fixed denominator vector: adding a slope touches exactly one chunk,
// comparisons against an integer bound cross-multiply chunk-by-chunk
// with 128-bit intermediates, and nothing allocates — regardless of how
// the periods are spread. The spread-period benchmark shapes that used
// to allocate thousands of big.Rats per analysis run at 0 allocs/op on
// this representation.
//
// Promotion is the escape hatch, not the common case. A Chunked value
// promotes to an embedded big.Rat only when a numerator overflows its
// chunk (Promoted reports it, and the owning Plan counts it); when
// Plan.Build cannot cover the denominators at all — more mutually
// incompatible periods than MaxChunks, e.g. many pairwise-coprime
// periods above 2^31 — the analysis falls back to Fast wholesale and
// the plan records one promotion per fallen-back call. Scratch owners
// surface that tally as ArithPromotions, which feeds the
// edfd_arith_promotions_total counter and per-stage trace attribution:
// a fleet where the counter moves is running workloads off the fast
// path, which is an observable capacity signal rather than a silent
// slowdown. DynamicError intentionally stays on the generic Scalar
// path: its error-term recurrence divides by reused intermediate
// values, which a fixed denominator vector cannot express.
//
// The package also contains overflow-checked int64 helpers (gcd, lcm,
// checked multiplication/addition) shared by the bounds and demand
// packages.
package numeric
