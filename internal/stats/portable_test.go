package stats

import (
	"math"
	"runtime"
	"testing"
)

// ulps returns how many representable doubles lie between a and b.
func ulps(a, b float64) uint64 {
	if a == b {
		return 0
	}
	x, y := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if (x < 0) != (y < 0) {
		return math.MaxUint64
	}
	if x > y {
		return uint64(x - y)
	}
	return uint64(y - x)
}

// TestExpErfcArePortable pins exp and erfc at arguments where amd64's
// assembly math.Exp (fused multiply-adds on CPUs that have them) rounds
// differently: the pinned bits are the pure-Go algorithm's, which 386
// computes, and every architecture must print them.
func TestExpErfcArePortable(t *testing.T) {
	for _, c := range []struct {
		f       func(float64) float64
		name    string
		x, want uint64
	}{
		{exp, "exp", 0xc00e0659d2314107, 0x3f4ca051e80f0543}, // exp(−z²/2) where z has these bits
		{exp, "exp", 0x4016520319c495f0, 0x3e873fcd6a401406},
		{exp, "exp", 0x40138cf311c8a566, 0x3edb3d8237e884d0},
		{erfc, "erfc", 0x4017b19cfbd50232, 0x3c8f4abb2fd2fb2d},
		{erfc, "erfc", 0x3ffab82feba6bb50, 0x3f92a0df95fbc610},
		{erfc, "erfc", 0x400af39675ffe61c, 0x3ebfc762e0c4674a},
	} {
		x := math.Float64frombits(c.x)
		arg := x
		if c.name == "exp" {
			arg = -x * x / 2
		}
		if got := c.f(arg); math.Float64bits(got) != c.want {
			t.Errorf("%s(%v) = %#x, want %#x", c.name, arg, math.Float64bits(got), c.want)
		}
	}
}

// TestExpErfcMatchTheLibrary: on seeded arguments and at every edge of
// exp's scaling, exp is within two ulps of math.Exp (each is within one
// of e**x) and erfc, a product of two exps, within four of math.Erfc; on
// 386, where the library runs the same pure Go, bit for bit.
// (amd64's assembly overflows to +Inf a little below 709.7827, where the
// pure Go still returns finite values; above 709 exp is compared on 386
// only.)
func TestExpErfcMatchTheLibrary(t *testing.T) {
	tol, erfcTol := uint64(2), uint64(4)
	if runtime.GOARCH == "386" {
		tol, erfcTol = 0, 0
	}
	args := []float64{0, math.Copysign(0, -1), 1, -1, 0x1p-29, -0x1p-29, 0x1p-28, 1e-300,
		709.78, 709.782712893384, 709.79, -708.39, -708.4, -709, -744, -745.13, -745.14, -746,
		0.84375, 1.25, 1 / 0.35, 6, -6, 27.9, 28, -28,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	r := NewRNG(3)
	for i := 0; i < 200_000; i++ {
		args = append(args, 16*r.Float64()-8, 1500*r.Float64()-750)
	}
	for _, x := range args {
		if got, want := exp(x), math.Exp(x); !(math.IsNaN(got) && math.IsNaN(want)) && ulps(got, want) > tol && !(tol > 0 && x > 709) {
			t.Fatalf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := erfc(x), math.Erfc(x); !(math.IsNaN(got) && math.IsNaN(want)) && ulps(got, want) > erfcTol {
			t.Fatalf("erfc(%v) = %v (%#x), math.Erfc %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
