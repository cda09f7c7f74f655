package numeric

import (
	"math"
	"math/big"
)

// Scalar is the accumulator abstraction shared by the approximated
// feasibility tests (SuperPos, DynamicError, AllApprox). The zero value of
// a value implementation must represent the number zero.
//
// An implementation may update its receiver in place and return it (the
// chunk registers do, as math/big does) or return a fresh value (F64, Rat
// and Fast do). Callers therefore assign every result back to the variable
// it came from and never use an operand's old value after an operation:
// a result that must not clobber an operand still needed goes to its own
// variable.
//
// The type parameter ties the interface to its implementation so the
// algorithms can be instantiated once per arithmetic mode without interface
// boxing on the hot path.
type Scalar[S any] interface {
	// SetInt returns the integer v.
	SetInt(v int64) S
	// Add returns s + o.
	Add(o S) S
	// AddInt returns s + v.
	AddInt(v int64) S
	// AddRat returns s + num/den. den must be positive.
	AddRat(num, den int64) S
	// SubRat returns s - num/den. den must be positive.
	SubRat(num, den int64) S
	// AddScaled returns s + u*dt, where u is another accumulator (the
	// ready-utilization slope) and dt an integer interval length.
	AddScaled(u S, dt int64) S
	// CmpInt compares s with the integer v and returns -1, 0 or +1.
	// Implementations may treat values within a small tolerance of v as
	// equal (see F64); exact implementations compare exactly.
	CmpInt(v int64) int
	// Float returns a float64 rendering for diagnostics.
	Float() float64
}

// Exact is the Scalar of the closed-form exact routines — Devi's prefix
// condition and the feasibility bounds — which also copy, scale, subtract
// and divide. Fast and the chunk registers implement it; the same
// in-place contract as Scalar applies.
type Exact[S any] interface {
	Scalar[S]
	// Set returns a copy of o.
	Set(o S) S
	// MulInt returns s * v.
	MulInt(v int64) S
	// Sub returns s - o.
	Sub(o S) S
	// Sign returns -1, 0 or +1.
	Sign() int
	// QuoCeil returns ceil(s/o) for s >= 0 and o > 0, and whether the
	// result fits in int64.
	QuoCeil(o S) (int64, bool)
}

// f64Eps is the symmetric comparison tolerance of the float64 mode: values
// within eps*max(1,|v|) of the comparison point compare as equal. Equality
// is acceptance in every test (the conditions are "demand <= interval"), so
// the tolerance errs toward acceptance; rejections are exactly re-confirmed
// by the callers.
const f64Eps = 1e-9

// F64 is the fast float64 Scalar implementation.
type F64 float64

var _ Scalar[F64] = F64(0)

// SetInt returns v.
func (s F64) SetInt(v int64) F64 { return F64(v) }

// Add returns s + o.
func (s F64) Add(o F64) F64 { return s + o }

// AddInt returns s + v.
func (s F64) AddInt(v int64) F64 { return s + F64(v) }

// AddRat returns s + num/den.
func (s F64) AddRat(num, den int64) F64 { return s + F64(float64(num)/float64(den)) }

// SubRat returns s - num/den.
func (s F64) SubRat(num, den int64) F64 { return s - F64(float64(num)/float64(den)) }

// AddScaled returns s + u*dt.
func (s F64) AddScaled(u F64, dt int64) F64 { return s + u*F64(dt) }

// CmpInt compares s with v under the package tolerance.
func (s F64) CmpInt(v int64) int {
	f := float64(v)
	eps := f64Eps * math.Max(1, math.Abs(f))
	switch {
	case float64(s) > f+eps:
		return 1
	case float64(s) < f-eps:
		return -1
	default:
		return 0
	}
}

// Float returns the value as float64.
func (s F64) Float() float64 { return float64(s) }

// Rat is the exact Scalar implementation backed by math/big.Rat. The zero
// value is the number zero. Values are immutable: operations allocate.
type Rat struct {
	r *big.Rat
}

var _ Scalar[Rat] = Rat{}

var ratZero = new(big.Rat)

func (s Rat) val() *big.Rat {
	if s.r == nil {
		return ratZero
	}
	return s.r
}

// NewRat returns the rational num/den as a Rat.
func NewRat(num, den int64) Rat { return Rat{big.NewRat(num, den)} }

// SetInt returns v.
func (s Rat) SetInt(v int64) Rat { return NewRat(v, 1) }

// Add returns s + o.
func (s Rat) Add(o Rat) Rat { return Rat{new(big.Rat).Add(s.val(), o.val())} }

// AddInt returns s + v.
func (s Rat) AddInt(v int64) Rat { return Rat{new(big.Rat).Add(s.val(), big.NewRat(v, 1))} }

// AddRat returns s + num/den.
func (s Rat) AddRat(num, den int64) Rat {
	return Rat{new(big.Rat).Add(s.val(), big.NewRat(num, den))}
}

// SubRat returns s - num/den.
func (s Rat) SubRat(num, den int64) Rat {
	return Rat{new(big.Rat).Sub(s.val(), big.NewRat(num, den))}
}

// AddScaled returns s + u*dt.
func (s Rat) AddScaled(u Rat, dt int64) Rat {
	prod := new(big.Rat).Mul(u.val(), big.NewRat(dt, 1))
	return Rat{prod.Add(prod, s.val())}
}

// CmpInt compares s with v exactly.
func (s Rat) CmpInt(v int64) int { return s.val().Cmp(big.NewRat(v, 1)) }

// Float returns the value as float64 (possibly rounded).
func (s Rat) Float() float64 { f, _ := s.val().Float64(); return f }
