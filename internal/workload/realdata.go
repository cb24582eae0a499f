package workload

import (
	"math"

	"isla/internal/block"
	"isla/internal/stats"
)

// Salary generates a census-income-like wage column (§VIII-G substitution).
//
// The real extract (UCI Census-Income KDD, 1994–95 CPS) has 299,285 rows
// with mean 1740.38 and a very heavy right tail over a large mass of zero
// and low earners. The generator reproduces that structure as a mixture:
// a ~28% zero/near-zero mass, a log-normal body, and a thin extreme tail.
// Component weights and parameters were tuned so the exact mixture mean is
// ≈1740 and the shape (zero-inflation + right skew) matches the published
// summary. The absolute numbers are not the point — the §VIII-G comparison
// only needs the skewed shape that separates ISLA from MV/MVB/US/STS.
func Salary(n, blocks int, seed uint64) (*block.Store, float64, error) {
	mix := stats.NewMixture(
		// Non-earners: wage 0–20.
		stats.Component{Weight: 0.28, Dist: stats.Uniform{Lo: 0, Hi: 20}},
		// The working body: log-normal around ~e^7.2 ≈ 1300.
		stats.Component{Weight: 0.64, Dist: stats.LogNormal{Mu: 7.2, Sigma: 0.75}},
		// High earners: a stretched tail.
		stats.Component{Weight: 0.08, Dist: stats.LogNormal{Mu: 8.75, Sigma: 0.55}},
	)
	return Generate(Spec{Name: "salary", Dist: mix, N: n, Blocks: blocks, Seed: seed})
}

// TLCTrips generates a TLC-trip-distance-like column (§VIII-G
// substitution).
//
// The paper uses yellow-cab trip distances of January 2016 (10,906,858 rows,
// values ×1000, mean 4648.2) and observes the set is highly skewed with the
// very small and very large values clustered. The generator reproduces
// that: a dominant short-trip cluster, a mid-range commute cluster, and a
// clustered long-haul tail (airport runs), scaled ×1000 like the paper.
func TLCTrips(n, blocks int, seed uint64) (*block.Store, float64, error) {
	mix := stats.NewMixture(
		// Short hops, tightly clustered near 1–2 miles (×1000).
		stats.Component{Weight: 0.55, Dist: stats.LogNormal{Mu: 7.3, Sigma: 0.45}},
		// Mid-range rides.
		stats.Component{Weight: 0.35, Dist: stats.LogNormal{Mu: 8.35, Sigma: 0.40}},
		// Long-haul cluster (airport trips ~17–20 miles ×1000).
		stats.Component{Weight: 0.10, Dist: stats.Normal{Mu: 18200, Sigma: 1500}},
	)
	return Generate(Spec{Name: "tlc", Dist: mix, N: n, Blocks: blocks, Seed: seed})
}

// TPCHLineitem generates an l_extendedprice-like column (§VIII-F
// substitution for the TPC-H 100 GB run).
//
// In TPC-H, l_extendedprice = l_quantity × p_retailprice where quantity is
// uniform 1..50 and the part retail price ramps roughly uniformly over
// ~[900, 2100). The product of those two uniforms gives the characteristic
// broad right-leaning hump of the real column. scaleRows controls the row
// count (the paper's 100 GB run has 600M lineitem rows; pick what fits).
func TPCHLineitem(rows, blocks int, seed uint64) (*block.Store, float64, error) {
	d := lineitemDist{}
	return Generate(Spec{Name: "tpch-lineitem", Dist: d, N: rows, Blocks: blocks, Seed: seed})
}

// lineitemDist is the product distribution quantity × retailprice.
type lineitemDist struct{}

func (lineitemDist) Sample(r *stats.RNG) float64 {
	qty := float64(1 + r.Intn(50))
	price := 900 + 1200*r.Float64()
	return qty * price
}

// Mean returns E[qty]·E[price] = 25.5 · 1500 (independent factors).
func (lineitemDist) Mean() float64 { return 25.5 * 1500 }

// StdDev returns the exact product-of-independents standard deviation.
func (lineitemDist) StdDev() float64 {
	// Var(XY) = E[X²]E[Y²] − (E[X]E[Y])² for independent X, Y.
	// X uniform on {1..50}: E[X]=25.5, E[X²]=(50+1)(2·50+1)/6 = 858.5.
	// Y uniform on [900,2100): E[Y]=1500, Var(Y)=1200²/12=120000,
	// E[Y²]=1500²+120000.
	ex2 := 858.5
	ey2 := 1500.0*1500.0 + 120000.0
	v := ex2*ey2 - (25.5*1500.0)*(25.5*1500.0)
	return math.Sqrt(v)
}

func (lineitemDist) String() string { return "TPCH-lineitem(qty×price)" }
