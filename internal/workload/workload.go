// Package workload generates every dataset the paper's evaluation uses.
//
// Synthetic distributions (normal / exponential / uniform / non-i.i.d.
// multi-block) are generated exactly as described in §VIII. The three
// resources we cannot ship — the TPC-H 100 GB LINEITEM column, the
// census-income salary file and the NYC TLC trip records — are replaced by
// generators that reproduce their published size (scaled), mean and shape;
// each generator's doc comment states what it substitutes and why that
// preserves the relevant behaviour.
package workload

import (
	"fmt"

	"isla/internal/block"
	"isla/internal/stats"
)

// Spec describes a dataset to generate: a distribution, a size and a block
// count.
type Spec struct {
	Name   string
	Dist   stats.Dist
	N      int
	Blocks int
	Seed   uint64
}

// Generate materializes the spec into an in-memory block store and returns
// it with the distribution's exact mean (the golden truth for accuracy
// experiments).
func Generate(sp Spec) (*block.Store, float64, error) {
	if sp.N <= 0 {
		return nil, 0, fmt.Errorf("workload: size %d must be positive", sp.N)
	}
	if sp.Blocks <= 0 {
		return nil, 0, fmt.Errorf("workload: block count %d must be positive", sp.Blocks)
	}
	if sp.Dist == nil {
		return nil, 0, fmt.Errorf("workload: nil distribution")
	}
	r := stats.NewRNG(sp.Seed)
	data := make([]float64, sp.N)
	for i := range data {
		data[i] = sp.Dist.Sample(r)
	}
	return block.Partition(data, sp.Blocks), sp.Dist.Mean(), nil
}

// Normal generates the paper's default workload: N(mu, sigma²), the
// distribution behind Fig. 6 and Tables III–V.
func Normal(mu, sigma float64, n, blocks int, seed uint64) (*block.Store, float64, error) {
	return Generate(Spec{
		Name:   fmt.Sprintf("normal-%g-%g", mu, sigma),
		Dist:   stats.Normal{Mu: mu, Sigma: sigma},
		N:      n,
		Blocks: blocks,
		Seed:   seed,
	})
}

// Exponential generates the Table VI workload Exp(gamma) with true mean
// 1/gamma.
func Exponential(gamma float64, n, blocks int, seed uint64) (*block.Store, float64, error) {
	return Generate(Spec{
		Name:   fmt.Sprintf("exp-%g", gamma),
		Dist:   stats.Exponential{Gamma: gamma},
		N:      n,
		Blocks: blocks,
		Seed:   seed,
	})
}

// UniformRange generates the Table VII workload U[lo, hi].
func UniformRange(lo, hi float64, n, blocks int, seed uint64) (*block.Store, float64, error) {
	return Generate(Spec{
		Name:   fmt.Sprintf("uniform-%g-%g", lo, hi),
		Dist:   stats.Uniform{Lo: lo, Hi: hi},
		N:      n,
		Blocks: blocks,
		Seed:   seed,
	})
}

// BlockSpec describes one block of a non-i.i.d. workload.
type BlockSpec struct {
	Dist stats.Dist
	N    int
}

// NonIID generates the §VIII-D workload: each block drawn from its own
// distribution. It returns the store and the exact overall mean
// Σ n_i·µ_i / Σ n_i.
func NonIID(specs []BlockSpec, seed uint64) (*block.Store, float64, error) {
	if len(specs) == 0 {
		return nil, 0, fmt.Errorf("workload: no block specs")
	}
	r := stats.NewRNG(seed)
	blocks := make([]block.Block, len(specs))
	var weighted float64
	var total int64
	for i, sp := range specs {
		if sp.N <= 0 {
			return nil, 0, fmt.Errorf("workload: block %d size %d must be positive", i, sp.N)
		}
		data := make([]float64, sp.N)
		for j := range data {
			data[j] = sp.Dist.Sample(r)
		}
		blocks[i] = block.NewMemBlock(i, data)
		weighted += sp.Dist.Mean() * float64(sp.N)
		total += int64(sp.N)
	}
	return block.NewStore(blocks...), weighted / float64(total), nil
}

// PaperNonIID returns the exact five-block configuration of §VIII-D —
// N(100,20²), N(50,10²), N(80,30²), N(150,60²), N(120,40²) — with perBlock
// values in each block (the paper uses 10⁸; scale to taste). The true mean
// is 100.
func PaperNonIID(perBlock int, seed uint64) (*block.Store, float64, error) {
	return NonIID([]BlockSpec{
		{Dist: stats.Normal{Mu: 100, Sigma: 20}, N: perBlock},
		{Dist: stats.Normal{Mu: 50, Sigma: 10}, N: perBlock},
		{Dist: stats.Normal{Mu: 80, Sigma: 30}, N: perBlock},
		{Dist: stats.Normal{Mu: 150, Sigma: 60}, N: perBlock},
		{Dist: stats.Normal{Mu: 120, Sigma: 40}, N: perBlock},
	}, seed)
}
