package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// FillInt63n must consume exactly the same stream as sequential Int63n
// calls — the batched sampling path's determinism contract hangs on it.
// The n values cover no rejection (1, small), rejection on roughly every
// other word (just above 2^62) and the largest n there is; the lengths
// straddle the sampling kernels' chunk boundary.
func TestFillInt63nMatchesInt63n(t *testing.T) {
	const chunk = 16384 // block.ChunkSize
	for _, n := range []int64{1, 2, 7, 1000, 1 << 40, 1<<62 + 1, 1<<63 - 1} {
		for _, k := range []int{0, 1, 3000, chunk - 1, chunk, chunk + 1} {
			scalar := NewRNG(99)
			batch := NewRNG(99)
			want := make([]int64, k)
			for i := range want {
				want[i] = scalar.Int63n(n)
			}
			got := make([]int64, len(want))
			batch.FillInt63n(got, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d len=%d: draw %d = %d, want %d", n, k, i, got[i], want[i])
				}
			}
			// Both generators must land in the same state.
			if scalar.Uint64() != batch.Uint64() {
				t.Fatalf("n=%d len=%d: generator states diverged", n, k)
			}
		}
	}
}

func TestFillInt63nQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16, lenRaw uint8) bool {
		n := int64(nRaw)%1000 + 1
		k := int(lenRaw) % 200
		scalar, batch := NewRNG(seed), NewRNG(seed)
		got := make([]int64, k)
		batch.FillInt63n(got, n)
		for i := 0; i < k; i++ {
			if v := scalar.Int63n(n); v != got[i] || got[i] < 0 || got[i] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewRNG(1).FillInt63n(make([]int64, 4), 0)
}

// AddSlice must be bit-identical to folding each element with Add,
// including the min/max bootstrap on the first observation.
func TestMomentsAddSliceBitIdentical(t *testing.T) {
	r := NewRNG(5)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = Normal{Mu: -3, Sigma: 40}.Sample(r)
	}
	var scalar, batch Moments
	for _, x := range xs {
		scalar.Add(x)
	}
	// Split into uneven chunks to exercise resumption mid-stream.
	batch.AddSlice(xs[:1])
	batch.AddSlice(xs[1:1700])
	batch.AddSlice(xs[1700:1700]) // empty chunk is a no-op
	batch.AddSlice(xs[1700:])
	if scalar != batch {
		t.Fatalf("moments diverged: scalar %+v batch %+v", scalar, batch)
	}
	if math.Float64bits(scalar.Mean()) != math.Float64bits(batch.Mean()) ||
		math.Float64bits(scalar.Variance()) != math.Float64bits(batch.Variance()) {
		t.Fatal("derived statistics diverged")
	}
}

func TestPowerSumsAddSliceBitIdentical(t *testing.T) {
	r := NewRNG(8)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = Exponential{Gamma: 0.2}.Sample(r)
	}
	var scalar, batch PowerSums
	for _, x := range xs {
		scalar.Add(x)
	}
	batch.AddSlice(xs[:777])
	batch.AddSlice(xs[777:])
	if scalar != batch {
		t.Fatalf("power sums diverged: scalar %+v batch %+v", scalar, batch)
	}
}
