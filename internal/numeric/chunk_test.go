package numeric

import (
	"math/big"
	"math/rand"
	"testing"
)

// buildPlan builds a plan from dens or fails the test.
func buildPlan(t *testing.T, dens []int64) *Plan {
	t.Helper()
	var p Plan
	if !p.Build(dens) {
		t.Fatalf("plan build failed for %v", dens)
	}
	return &p
}

func TestPlanBuildGridCollapses(t *testing.T) {
	var p Plan
	if !p.Build([]int64{10, 20, 50, 100, 200, 500, 1000}) {
		t.Fatal("grid build failed")
	}
	if p.Chunks() != 1 {
		t.Fatalf("grid periods should fold into one chunk, got %d", p.Chunks())
	}
	if p.dens[0] != 1000 {
		t.Fatalf("chunk denominator = %d, want 1000", p.dens[0])
	}
}

func TestPlanBuildRejects(t *testing.T) {
	var p Plan
	if p.Build([]int64{0}) {
		t.Error("zero denominator accepted")
	}
	if p.Build([]int64{-3}) {
		t.Error("negative denominator accepted")
	}
	if p.Build([]int64{chunkDenCap + 1}) {
		t.Error("denominator above the cap accepted")
	}
	// MaxChunks+1 pairwise-coprime primes near 2^31: no two fit one chunk.
	dens := make([]int64, 0, MaxChunks+1)
	for v := int64(1<<31) + 11; len(dens) < MaxChunks+1; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			dens = append(dens, v)
		}
	}
	if p.Build(dens) {
		t.Error("more than MaxChunks coprime denominators accepted")
	}
	if p.Build(dens[:MaxChunks]) != true || p.Chunks() != MaxChunks {
		t.Error("exactly MaxChunks coprime denominators should fit")
	}
}

func TestPlanBuildIgnoresOne(t *testing.T) {
	var p Plan
	if !p.Build([]int64{1, 1, 7, 1}) {
		t.Fatal("build failed")
	}
	if p.Chunks() != 1 {
		t.Fatalf("chunks = %d, want 1", p.Chunks())
	}
}

// chunkedOps drives one random op sequence over a Chunked register and a
// big.Rat shadow, checking exact agreement after every op. dens feed the
// plan; rng drives the ops. Returns false if the plan does not build.
func chunkedOps(t *testing.T, dens []int64, rng *rand.Rand, steps int) {
	t.Helper()
	var p Plan
	if !p.Build(dens) {
		t.Fatalf("plan build failed for %v", dens)
	}
	var v, u, tmp Chunked
	v.Init(&p)
	u.Init(&p)
	tmp.Init(&p)
	ref := new(big.Rat)
	uref := new(big.Rat)
	den := func() int64 { return dens[rng.Intn(len(dens))] }
	check := func(op string) {
		t.Helper()
		if got := v.Rat(); got.Cmp(ref) != 0 {
			t.Fatalf("%s: chunked=%s ref=%s (plan %v)", op, got, ref, dens[:min(8, len(dens))])
		}
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0:
			x := rng.Int63n(1_000_000) - 500_000
			v.AddInt(x)
			ref.Add(ref, new(big.Rat).SetInt64(x))
			check("AddInt")
		case 1:
			d := den()
			n := rng.Int63n(2*d+10) - d
			v.AddRat(n, d)
			ref.Add(ref, big.NewRat(n, d))
			check("AddRat")
		case 2:
			d := den()
			n := rng.Int63n(2*d+10) - d
			v.SubRat(n, d)
			ref.Sub(ref, big.NewRat(n, d))
			check("SubRat")
		case 3:
			dt := rng.Int63n(1 << 40)
			v.AddScaled(&u, dt)
			prod := new(big.Rat).Mul(uref, new(big.Rat).SetInt64(dt))
			ref.Add(ref, prod)
			check("AddScaled")
		case 4:
			x := rng.Int63n(1<<20) - 1<<19
			v.MulInt(x)
			ref.Mul(ref, new(big.Rat).SetInt64(x))
			check("MulInt")
		case 5:
			v.Neg()
			ref.Neg(ref)
			check("Neg")
		case 6:
			// Mutate the second register (the AddScaled slope).
			d := den()
			n := rng.Int63n(d + 3)
			u.AddRat(n, d)
			uref.Add(uref, big.NewRat(n, d))
			v.Add(&u)
			ref.Add(ref, uref)
			check("Add")
		case 7:
			v.Sub(&u)
			ref.Sub(ref, uref)
			check("Sub")
		case 8:
			x := rng.Int63n(1_000_000) - 500_000
			if got, want := v.CmpInt(x), ref.Cmp(new(big.Rat).SetInt64(x)); got != want {
				t.Fatalf("CmpInt(%d) = %d, want %d (v=%s)", x, got, want, ref)
			}
			if got, want := v.Sign(), ref.Sign(); got != want {
				t.Fatalf("Sign = %d, want %d (v=%s)", got, want, ref)
			}
		case 9:
			if got, want := v.Cmp(&u), ref.Cmp(uref); got != want {
				t.Fatalf("Cmp = %d, want %d (v=%s u=%s)", got, want, ref, uref)
			}
		}
	}
}

func TestChunkedRandomOpsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dens := []int64{10, 20, 50, 100, 1000, 2000, 5000}
	for trial := 0; trial < 30; trial++ {
		chunkedOps(t, dens, rng, 200)
	}
}

func TestChunkedRandomOpsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		dens := make([]int64, 40)
		for i := range dens {
			dens[i] = 1 + rng.Int63n(10_000_000)
		}
		chunkedOps(t, dens, rng, 120)
	}
}

func TestChunkedRandomOpsCapBoundary(t *testing.T) {
	// Denominators engineered so single chunks sit just under the cap:
	// large primes multiplied pairwise approach 2^62.
	rng := rand.New(rand.NewSource(3))
	primes := []int64{2147483647, 2147483629, 2147483587, 2305843009} // ~2^31
	for trial := 0; trial < 20; trial++ {
		dens := make([]int64, 0, 12)
		for i := 0; i < 12; i++ {
			dens = append(dens, primes[rng.Intn(len(primes))])
		}
		chunkedOps(t, dens, rng, 100)
	}
}

func TestChunkedPromotionOnOverflow(t *testing.T) {
	p := buildPlan(t, []int64{7})
	var v Chunked
	v.Init(p)
	v.SetInt(MaxInt64 - 1)
	before := p.Promotions()
	v.AddInt(100) // overflows ip -> promotes
	if !v.Promoted() {
		t.Fatal("expected promotion on ip overflow")
	}
	if p.Promotions() != before+1 {
		t.Fatalf("promotions = %d, want %d", p.Promotions(), before+1)
	}
	want := new(big.Rat).SetInt64(MaxInt64 - 1)
	want.Add(want, new(big.Rat).SetInt64(100))
	if v.Rat().Cmp(want) != 0 {
		t.Fatalf("promoted value = %s, want %s", v.Rat(), want)
	}
	// Promoted registers keep computing exactly.
	v.AddRat(3, 7)
	want.Add(want, big.NewRat(3, 7))
	if v.Rat().Cmp(want) != 0 {
		t.Fatalf("promoted AddRat = %s, want %s", v.Rat(), want)
	}
}

func TestChunkedCmpIntTight(t *testing.T) {
	// Values an epsilon away from an integer exercise the digit recursion.
	p := buildPlan(t, []int64{999999937, 999999893}) // two large primes
	var v Chunked
	v.Init(p)
	v.AddRat(999999936, 999999937) // 1 - 1/p1
	v.AddRat(1, 999999893)         // + 1/p2
	// v = 1 - 1/p1 + 1/p2 < 1 (p2 < p1 means 1/p2 > 1/p1... p2 smaller
	// prime so 1/p2 > 1/p1: v > 1).
	want := new(big.Rat)
	want.Add(want, big.NewRat(999999936, 999999937))
	want.Add(want, big.NewRat(1, 999999893))
	if got := v.CmpInt(1); got != want.Cmp(new(big.Rat).SetInt64(1)) {
		t.Fatalf("CmpInt(1) = %d, want %d", got, want.Cmp(new(big.Rat).SetInt64(1)))
	}
	// Exact integer hit: 1/3 + 2/3 over one chunk... use same den.
	p2 := buildPlan(t, []int64{3})
	var w Chunked
	w.Init(p2)
	w.AddRat(1, 3)
	w.AddRat(2, 3)
	if got := w.CmpInt(1); got != 0 {
		t.Fatalf("1/3+2/3 CmpInt(1) = %d, want 0", got)
	}
	// Cross-chunk exact integer: 1/3 + 1/5 + 2/3 + 4/5 = 2 with coprime
	// chunks forced apart by a tiny cap is not constructible here (the
	// plan folds 3 and 5 into 15); split via primes too big to fold.
	const p1, q1 = int64(2305843009213693951), int64(4611686018427387847) // 2^61-1 (prime), < 2^62
	pp := buildPlan(t, []int64{p1, q1})
	if pp.Chunks() != 2 {
		t.Fatalf("expected 2 chunks, got %d", pp.Chunks())
	}
	var x Chunked
	x.Init(pp)
	x.AddRat(p1-1, p1)
	x.AddRat(1, p1)
	x.AddRat(q1-5, q1)
	x.AddRat(5, q1)
	if got := x.CmpInt(2); got != 0 {
		t.Fatalf("cross-chunk exact 2: CmpInt(2) = %d, want 0", got)
	}
	if got := x.CmpInt(3); got != -1 {
		t.Fatalf("CmpInt(3) = %d, want -1", got)
	}
}

func TestQuoCeilChunked(t *testing.T) {
	p := buildPlan(t, []int64{1000, 999999937})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		var a, b Chunked
		a.Init(p)
		b.Init(p)
		ar := new(big.Rat)
		br := new(big.Rat)
		a.AddInt(rng.Int63n(1 << 40))
		ar.SetInt64(a.ip)
		n := rng.Int63n(1000)
		a.AddRat(n, 1000)
		ar.Add(ar, big.NewRat(n, 1000))
		// b in (0, 1]: 1 - k/p.
		k := rng.Int63n(999999937)
		b.AddInt(1)
		b.SubRat(k, 999999937)
		br.SetInt64(1)
		br.Sub(br, big.NewRat(k, 999999937))
		got, ok := a.QuoCeil(&b)
		want, wok := quoCeilBig(ar, br)
		if ok != wok || got != want {
			t.Fatalf("QuoCeil(%s / %s) = (%d,%v), want (%d,%v)", ar, br, got, ok, want, wok)
		}
	}
	// Zero numerator.
	var a, b Chunked
	a.Init(p)
	b.Init(p)
	b.AddRat(1, 1000)
	if got, ok := a.QuoCeil(&b); !ok || got != 0 {
		t.Fatalf("QuoCeil(0/x) = (%d,%v), want (0,true)", got, ok)
	}
}

func TestChunkedCopyFromIsolation(t *testing.T) {
	p := buildPlan(t, []int64{7})
	var v, w Chunked
	v.Init(p)
	w.Init(p)
	v.SetInt(MaxInt64 - 1)
	v.AddInt(10) // promote
	w.Set(&v)
	w.AddInt(5)
	diff := new(big.Rat).Sub(w.Rat(), v.Rat())
	if diff.Cmp(new(big.Rat).SetInt64(5)) != 0 {
		t.Fatalf("Set shares promoted storage: diff = %s", diff)
	}
}

// TestChunkedCmpChunklessPlan compares registers bound to a plan whose
// build failed (no chunks, integer parts only, fractions promoted): equal
// integers must compare equal.
func TestChunkedCmpChunklessPlan(t *testing.T) {
	var p Plan
	p.Build([]int64{0})
	var a, b Chunked
	a.Init(&p)
	b.Init(&p)
	for _, c := range []struct{ x, y int64 }{{0, 0}, {2, 2}, {1, 2}, {2, 1}, {-3, -3}} {
		a.SetInt(c.x)
		b.SetInt(c.y)
		want := 0
		if c.x < c.y {
			want = -1
		} else if c.x > c.y {
			want = 1
		}
		if got := a.Cmp(&b); got != want {
			t.Errorf("Cmp(%d, %d) = %d, want %d", c.x, c.y, got, want)
		}
	}
}

// FuzzChunkedVsBigRat cross-checks a short op program on a Chunked
// register against big.Rat. The program bytes select ops and operands so
// the fuzzer can explore carry, borrow, promotion and comparison edges.
func FuzzChunkedVsBigRat(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, int64(1000), int64(999999937))
	f.Add([]byte{1, 1, 1, 8, 3, 9, 2, 2, 8}, int64(3), int64(5))
	f.Add([]byte{4, 4, 4, 8}, int64(2147483647), int64(2305843009))
	f.Fuzz(func(t *testing.T, prog []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 || d1 > chunkDenCap || d2 > chunkDenCap {
			return
		}
		var p Plan
		if !p.Build([]int64{d1, d2}) {
			return
		}
		var v, u Chunked
		v.Init(&p)
		u.Init(&p)
		ref := new(big.Rat)
		uref := new(big.Rat)
		dens := []int64{d1, d2}
		for i, op := range prog {
			if i > 64 {
				break
			}
			x := int64(i)*7919 + int64(op)
			d := dens[int(op/16)%2]
			switch op % 8 {
			case 0:
				v.AddInt(x)
				ref.Add(ref, new(big.Rat).SetInt64(x))
			case 1:
				v.AddRat(x%d+1, d)
				ref.Add(ref, big.NewRat(x%d+1, d))
			case 2:
				v.SubRat(x%d+1, d)
				ref.Sub(ref, big.NewRat(x%d+1, d))
			case 3:
				v.AddScaled(&u, x)
				prod := new(big.Rat).Mul(uref, new(big.Rat).SetInt64(x))
				ref.Add(ref, prod)
			case 4:
				v.MulInt(x % 1000)
				ref.Mul(ref, new(big.Rat).SetInt64(x%1000))
			case 5:
				u.AddRat(x%d, d)
				uref.Add(uref, big.NewRat(x%d, d))
			case 6:
				v.Neg()
				ref.Neg(ref)
			case 7:
				if got, want := v.CmpInt(x%5), ref.Cmp(new(big.Rat).SetInt64(x%5)); got != want {
					t.Fatalf("op %d: CmpInt(%d) = %d, want %d (v=%s)", i, x%5, got, want, ref)
				}
			}
			if got := v.Rat(); got.Cmp(ref) != 0 {
				t.Fatalf("op %d (%d): chunked=%s ref=%s", i, op, got, ref)
			}
		}
	})
}

// FuzzFastVsBigRat cross-checks the Fast scalar against big.Rat the same
// way, covering the promotion/demotion boundary the spread workloads hit.
func FuzzFastVsBigRat(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(1<<40), int64(999999937))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, int64(2305843009213693951), int64(4611686018427387847))
	f.Fuzz(func(t *testing.T, prog []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 {
			return
		}
		var v Fast
		ref := new(big.Rat)
		dens := []int64{d1, d2}
		for i, op := range prog {
			if i > 64 {
				break
			}
			x := int64(i)*104729 + int64(op)
			d := dens[int(op/16)%2]
			switch op % 6 {
			case 0:
				v = v.AddInt(x)
				ref.Add(ref, new(big.Rat).SetInt64(x))
			case 1:
				v = v.AddRat(x%d+1, d)
				ref.Add(ref, big.NewRat(x%d+1, d))
			case 2:
				v = v.SubRat(x%d+1, d)
				ref.Sub(ref, big.NewRat(x%d+1, d))
			case 3:
				v = v.AddScaled(NewFast(x%d, d), x%(1<<40))
				prod := new(big.Rat).Mul(big.NewRat(x%d, d), new(big.Rat).SetInt64(x%(1<<40)))
				ref.Add(ref, prod)
			case 4:
				v = v.MulInt(x % 100000)
				ref.Mul(ref, new(big.Rat).SetInt64(x%100000))
			case 5:
				if got, want := v.CmpInt(x%7), ref.Cmp(new(big.Rat).SetInt64(x%7)); got != want {
					t.Fatalf("op %d: CmpInt(%d) = %d, want %d (v=%s)", i, x%7, got, want, ref)
				}
			}
			if got := v.Rat(); got.Cmp(ref) != 0 {
				t.Fatalf("op %d (%d): fast=%s ref=%s", i, op, got, ref)
			}
		}
	})
}
