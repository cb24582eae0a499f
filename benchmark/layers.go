package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"net/rpc"
	"sync/atomic"
	"time"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/exec"
	"isla/internal/leverage"
	"isla/internal/plancache"
	"isla/internal/stats"
)

// Micro-measurements of single layers, each timing a public function from
// outside on the workload's own data. Every one repeats a fixed piece of
// work microReps times and reports the median per-unit cost, so one
// scheduler hiccup cannot move it.
const microReps = 21

// perUnit runs fn microReps times and returns the median of
// elapsed/units in nanoseconds. fn returns how many units it processed.
func perUnit(fn func() int64) float64 {
	costs := make([]float64, 0, microReps)
	for i := 0; i < microReps; i++ {
		start := time.Now()
		units := fn()
		if units > 0 {
			costs = append(costs, float64(time.Since(start))/float64(units))
		}
	}
	return median(costs)
}

var microSink float64

// rngFillNS is stats.RNG.FillInt63n, ns per index, drawing indices for a
// block of n rows.
func rngFillNS(n int64) float64 {
	r := stats.NewRNG(1)
	idx := make([]int64, block.ChunkSize)
	return perUnit(func() int64 {
		for i := 0; i < 8; i++ {
			r.FillInt63n(idx, n)
		}
		return 8 * int64(len(idx))
	})
}

// sampleValues draws one chunk of real values from the store, the input
// the accumulate kernels see.
func sampleValues(s *block.Store) ([]float64, error) {
	vs := make([]float64, block.ChunkSize)
	return vs, block.SampleInto(s.Block(0), stats.NewRNG(2), vs)
}

// momentsAddNS is stats.Moments.AddSlice, ns per value.
func momentsAddNS(vs []float64) float64 {
	return perUnit(func() int64 {
		var m stats.Moments
		for i := 0; i < 8; i++ {
			m.AddSlice(vs)
		}
		microSink += m.Mean()
		return 8 * int64(len(vs))
	})
}

// addShiftedNS is leverage.Accum.AddShifted, ns per value, with boundaries
// built from the values' own mean and deviation as the planner does.
func addShiftedNS(vs []float64) (float64, error) {
	var m stats.Moments
	m.AddSlice(vs)
	bounds, err := leverage.NewBoundaries(m.Mean(), m.SampleStdDev(), 0.5, 2)
	if err != nil {
		return 0, err
	}
	return perUnit(func() int64 {
		acc := leverage.NewAccum(bounds)
		for i := 0; i < 8; i++ {
			acc.AddShifted(vs, 0)
		}
		microSink += acc.S.Sum
		return 8 * int64(len(vs))
	}), nil
}

// microDraws is how many draws per block one sampling repetition makes:
// enough chunks that the per-call overhead vanishes, spread over every
// block so the working set is the table's, not one block's.
const microDraws = 4 * block.ChunkSize

func discard([]float64) error { return nil }

// sampleNS is block.SampleChunks over every block of the store, draws
// samples per block, in ns per sample.
func sampleNS(s *block.Store, draws int64) (float64, error) {
	var err error
	r := stats.NewRNG(3)
	ns := perUnit(func() int64 {
		var n int64
		for _, b := range s.Blocks() {
			if e := block.SampleChunks(b, r, draws, discard); e != nil {
				err = e
			}
			n += draws
		}
		return n
	})
	return ns, err
}

// filteredNS is block.SampleFilteredIntervalChunks over every block, ns per
// raw draw, with an interval from each block's mean to its maximum (about
// half the draws accepted, the worst case for a branchy select).
func filteredNS(s *block.Store) (float64, error) {
	var err error
	r := stats.NewRNG(4)
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, s.NumBlocks())
	for i, b := range s.Blocks() {
		sum, ok := block.BlockSummary(b)
		if !ok {
			vs := make([]float64, 4096)
			if e := block.SampleInto(b, stats.NewRNG(5), vs); e != nil {
				return 0, e
			}
			sum = block.ComputeSummary(vs)
		}
		ivs[i] = iv{sum.Mean(), sum.Max}
	}
	ns := perUnit(func() int64 {
		var n int64
		for i, b := range s.Blocks() {
			if _, e := block.SampleFilteredIntervalChunks(b, r, microDraws, ivs[i].lo, ivs[i].hi, discard); e != nil {
				err = e
			}
			n += microDraws
		}
		return n
	})
	return ns, err
}

// openMS is isla.OpenFilesMode's work — block.Open on each path — in ms
// for the whole file set; the store is closed again each time.
func openMS(mode block.OpenMode, paths []string) (float64, error) {
	var err error
	ns := perUnit(func() int64 {
		blocks := make([]block.Block, 0, len(paths))
		for i, p := range paths {
			b, e := block.Open(i, p, mode)
			if e != nil {
				err = e
				break
			}
			blocks = append(blocks, b)
		}
		block.NewStore(blocks...).Close()
		return 1
	})
	return ns / 1e6, err
}

// dispatchUS is exec.Run over a no-op task function, n = 16 tasks on the
// engine's worker setting, us per task: what the runtime charges a query
// for fanning its blocks out, whatever the blocks do.
func dispatchUS(ctx context.Context) float64 {
	workers := exec.Pool(engWorkers)
	ns := perUnit(func() int64 {
		for i := 0; i < 64; i++ {
			exec.Run(ctx, workers, numBlocks, func(context.Context, int) (int, error) { return 0, nil }) //nolint:errcheck // no-op tasks cannot fail
		}
		return 64 * numBlocks
	})
	return ns / 1e3
}

// cacheHitNS is plancache.Cache.Get on a present key, ns per lookup, in a
// cache holding as many entries as serve_open keeps hot.
func cacheHitNS(ctx context.Context) float64 {
	c := plancache.New(planCacheCap)
	keys := make([]plancache.Key, 144)
	for i := range keys {
		keys[i] = plancache.Key{Table: "t", Seed: uint64(i), Predicate: "v > 90"}
		c.Get(ctx, keys[i], func() (any, error) { return i, nil }) //nolint:errcheck // the builder cannot fail
	}
	return perUnit(func() int64 {
		for _, k := range keys {
			c.Get(ctx, k, nil) //nolint:errcheck // present keys never build
		}
		return int64(len(keys))
	})
}

// gobUS is one args+reply pair per RPC type through a persistent
// encoding/gob encoder and decoder over a buffer — what net/rpc does per
// call once the type descriptors have crossed — in us per RPC, averaged
// over the four RPC types the sharded pipeline uses.
func gobUS() (float64, error) {
	values := make([]float64, 128) // a filter-pilot block's accepted values
	for i := range values {
		values[i] = 100 + float64(i)
	}
	pairs := [][2]any{
		{&cluster.PilotStateArgs{BlockID: 3, SampleSize: 2500, S0: 1 << 60, S1: 1 << 59},
			&cluster.PilotStateReply{BlockID: 3, Len: 62500, Count: 2500, Mean: 100.2, M2: 1e6, Min: 20, Max: 180, EndS0: 1 << 58, EndS1: 1 << 57}},
		{&cluster.SampleArgs{BlockID: 3, Center: 100.1, Sigma: 20.2, P1: 0.5, P2: 2, SampleSize: 384, Seed: 1 << 61},
			&cluster.SampleReply{BlockID: 3, Len: 62500, Samples: 384,
				S: cluster.RegionSums{Count: 90, Sum: 7000.5, Sum2: 560000.5, Sum3: 4.5e7},
				L: cluster.RegionSums{Count: 92, Sum: 11000.5, Sum2: 1.3e6, Sum3: 1.6e8}}},
		{&cluster.FilterArgs{BlockID: 3, SampleSize: 500, Seed: 1 << 61, Lo: 80.000001, Hi: 129.999999},
			&cluster.FilterSampleReply{BlockID: 3, Len: 62500, Accepted: 390, Count: 390, Mean: 103.3, M2: 70000.5, Min: 80.1, Max: 129.9}},
		{&cluster.FilterArgs{BlockID: 3, SampleSize: 160, Seed: 1 << 61, Lo: 80.000001, Hi: 129.999999},
			&cluster.FilterValuesReply{BlockID: 3, Len: 62500, Accepted: int64(len(values)), Values: values}},
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var err error
	roundTrip := func() {
		for _, p := range pairs {
			for _, v := range p {
				if e := enc.Encode(v); e != nil {
					err = e
				}
				if e := dec.Decode(v); e != nil {
					err = e
				}
			}
		}
	}
	roundTrip() // type descriptors cross once per connection, not per call
	ns := perUnit(func() int64 {
		for i := 0; i < 64; i++ {
			roundTrip()
		}
		return 64 * int64(len(pairs))
	})
	return ns / 1e3, err
}

// rpcRoundTripUS is Worker.Info over a live loopback connection to one of
// the workload's workers: the per-call floor of net/rpc on this machine.
func rpcRoundTripUS(addr string) (float64, error) {
	cl, err := rpc.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	ns := perUnit(func() int64 {
		for i := 0; i < 50; i++ {
			var rep cluster.InfoReply
			if e := cl.Call("Worker.Info", struct{}{}, &rep); e != nil {
				err = e
			}
		}
		return 50
	})
	return ns / 1e3, err
}

// wireCounter counts what crosses the coordinator's worker connections:
// bytes in both directions and Write calls (one per RPC request unless the
// transport batches). It is passed to NewShardTable as the DialFunc.
type wireCounter struct {
	bytes  atomic.Int64
	writes atomic.Int64
}

func (w *wireCounter) dial(addr string) (cluster.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 15*time.Second)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(&countingConn{Conn: conn, w: w}), nil
}

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	c.w.writes.Add(1)
	return n, err
}
