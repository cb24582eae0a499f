package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// TestSourceConformance is the executable form of "local and sharded
// execution are the same algorithm": the same phase requests put to a
// store's in-process source and to a loopback shard source come back
// identical bit for bit, on every shard layout, a replicated one's primary
// killed mid-phase included. The request sets cover what the pipelines can
// produce at the edges — a 1-row block, odd lengths, draws far above and
// below a block's length, blocks with no request (zero quota), start states
// mid-stream, moments phases unfiltered and under a range, a range less
// excluded points and a filter that accepts nothing, and a calculation round
// that carries the previous round's sums.
func TestSourceConformance(t *testing.T) {
	r := stats.NewRNG(41)
	var blocks []block.Block
	var not []float64 // a <> filter's excluded points: values the draws hit
	for id, n := range []int{1, 3, 257, 4097, 100003, 64} {
		data := make([]float64, n)
		for i := range data {
			data[i] = 100 + 20*r.NormFloat64()
			if (id == 1 || id == 3) && len(not) < 3 && 90 <= data[i] && data[i] <= 125 {
				not = append(not, data[i])
			}
		}
		blocks = append(blocks, block.NewMemBlock(id, data))
	}
	store := block.NewStore(blocks...)

	cfg := chaosConfig(5)
	cfg.Workers = 3
	ctx := context.Background()
	local := core.LocalExecutor{S: store}.Source(cfg)
	lids, llens := local.Layout()

	probes := []core.MomentsReq{
		{Block: 0, Draws: 1, Start: stats.NewRNG(1).State()},
		{Block: 1, Draws: 200, Start: stats.NewRNG(2).State()}, // far more draws than rows
		{Block: 3, Draws: 41, Start: stats.RNGState{S0: 1 << 63, S1: 1}},
		{Block: 4, Draws: 1000, Start: stats.NewRNG(3).State()},
	}
	filtered := []core.MomentsReq{ // blocks 2 and 5 hold no quota
		{Block: 0, Draws: 1, Start: stats.NewRNG(11).State()},
		{Block: 1, Draws: 5000, Start: stats.NewRNG(12).State()},
		{Block: 3, Draws: block.ChunkSize + 1, Start: stats.NewRNG(13).State()},
		{Block: 4, Draws: 3000, Start: stats.NewRNG(14).State()},
	}
	phases := []struct {
		name string
		reqs []core.MomentsReq
		f    *core.Filter
	}{
		{"unfiltered", probes, nil},
		{"range", filtered, &core.Filter{Lo: 90, Hi: 125}},
		{"range less points", filtered, &core.Filter{Lo: 90, Hi: 125, Not: not}},
		{"nothing", filtered, &core.Filter{Lo: 1e9, Hi: 2e9}},
	}
	want := make([][]core.MomentsRep, len(phases))
	accepted := make([]int64, len(phases))
	for i, ph := range phases {
		var err error
		if want[i], err = local.Moments(ctx, ph.reqs, ph.f); err != nil {
			t.Fatal(err)
		}
		for _, rep := range want[i] {
			accepted[i] += rep.M.Count()
		}
	}
	if len(not) == 0 || accepted[2] >= accepted[1] || accepted[3] != 0 {
		t.Fatalf("accepted draws per phase %v: the excluded points %v were never hit, or the empty filter accepted", accepted, not)
	}

	// The contained class never crosses the wire (a shard source reports no
	// summaries); in process, gathering a provably-contained block
	// unfiltered must equal sampling it through the filter.
	wide := &core.Filter{Lo: -1e9, Hi: 1e9}
	overlap := []core.MomentsReq{{Block: 4, Draws: 3000, Start: stats.NewRNG(21).State()}}
	contained := []core.MomentsReq{{Block: 4, Draws: 3000, Start: stats.NewRNG(21).State(), Class: block.SummaryContained}}
	wantWide, err := local.Moments(ctx, overlap, wide)
	if err != nil {
		t.Fatal(err)
	}
	gotWide, err := local.Moments(ctx, contained, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotWide, wantWide) {
		t.Fatalf("contained-class reply differs from the overlap-class reply on the same block:\n %+v\n %+v", gotWide, wantWide)
	}

	// Calc: plans as the pipeline derives them from a frozen pilot.
	fp, err := core.FreezePilot(ctx, local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	overall, err := core.RederivePilot(fp.Base, cfg, store.TotalLen())
	if err != nil {
		t.Fatal(err)
	}
	plans, err := core.PlansFromPilots(fp.Pilots, overall, cfg, store.TotalLen())
	if err != nil {
		t.Fatal(err)
	}
	var calc []core.CalcReq
	for i, p := range plans {
		if i != 2 { // leave one planned block out of the phase
			calc = append(calc, core.CalcReq{Block: i, Plan: p, Seed: uint64(100 + i), Draws: p.SampleSize(llens[i])})
		}
	}
	// next is the round after reps, an online session's: the same blocks and
	// draws from fresh seeds, each block's sums so far as its Prior.
	next := func(reps []core.CalcRep) []core.CalcReq {
		reqs := slices.Clone(calc)
		for k := range reqs {
			reqs[k].Seed += 1000
			reqs[k].Prior = reps[k].Sums
		}
		return reqs
	}
	lr, err := local.Calc(ctx, calc)
	if err != nil {
		t.Fatal(err)
	}
	// kept holds the first round's sums by value, to tell a Prior written
	// through from one left alone.
	kept := make([]leverage.Accum, len(lr))
	for k := range lr {
		kept[k] = *lr[k].Sums
	}
	priorsKept := func(reps []core.CalcRep) bool {
		for k := range reps {
			if *reps[k].Sums != kept[k] {
				return false
			}
		}
		return true
	}
	lr2, err := local.Calc(ctx, next(lr))
	if err != nil {
		t.Fatal(err)
	}
	if !priorsKept(lr) {
		t.Fatal("the local source wrote to a Prior")
	}
	for k, rep := range lr2 {
		if rep.Result.Samples != 2*calc[k].Draws {
			t.Fatalf("block %d: second round holds %d draws, want both rounds' %d", calc[k].Block, rep.Result.Samples, 2*calc[k].Draws)
		}
	}
	// The centred sums are the draws' own, recomputed value by value: the
	// first round's, then both rounds' (every layout must answer the same
	// bits, checked below).
	for k, req := range calc {
		b, c := store.Block(req.Block), req.Plan.Bounds.Center-req.Plan.Shift
		d, d2, abs := centredDirect(t, b, req.Seed, req.Draws, c)
		checkCentred(t, fmt.Sprintf("block %d, first round", req.Block), lr[k].Sums, d, d2, abs)
		e, e2, eabs := centredDirect(t, b, req.Seed+1000, req.Draws, c)
		checkCentred(t, fmt.Sprintf("block %d, both rounds", req.Block), lr2[k].Sums, d+e, d2+e2, abs+eabs)
	}

	// Every phase on every layout answers the store source's bits, and both
	// calculation rounds leave Prior as it was. On a replicated layout the
	// primary dies on its killAt-th batch — the unfiltered probes, the <>
	// phase or the second calculation round — so that phase fails over to
	// the standby owners mid-batch (the second round's replies merging with
	// Prior once) and every later one runs on them.
	killAt := map[string]int{"replicated-1": 1, "replicated-2": 3, "replicated-4": len(phases) + 2}
	for name, layout := range shardLayouts(len(blocks)) {
		man, workers := startShards(t, blocks, layout)
		f := NewFaults(3)
		if n := killAt[name]; n > 0 {
			f.Script(man.Shards[0].Addr, n, func() { workers[0].Close() })
		}
		remote := shardTable(t, man, fastFault(), f.Wrap(dialTCP)).View().source(cfg.Seed, false)
		if ids, lens := remote.Layout(); !reflect.DeepEqual(ids, lids) || !reflect.DeepEqual(lens, llens) || remote.TotalLen() != local.TotalLen() {
			t.Fatalf("%s: layouts differ: %v %v vs %v %v", name, ids, lens, lids, llens)
		}
		for i, ph := range phases {
			got, err := remote.Moments(ctx, ph.reqs, ph.f)
			if err != nil {
				t.Fatalf("%s, %s moments: %v", name, ph.name, err)
			}
			if !reflect.DeepEqual(want[i], got) {
				t.Fatalf("%s: %s moments replies differ:\n local  %+v\n remote %+v", name, ph.name, want[i], got)
			}
		}
		rr, err := remote.Calc(ctx, calc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(lr, rr) {
			t.Fatalf("%s: calc replies differ:\n local  %+v\n remote %+v", name, lr, rr)
		}
		rr2, err := remote.Calc(ctx, next(rr))
		if err != nil {
			t.Fatalf("%s, second round: %v", name, err)
		}
		if !reflect.DeepEqual(lr2, rr2) || !priorsKept(rr) {
			t.Fatalf("%s: second-round replies differ, or a Prior moved:\n local  %+v\n remote %+v", name, lr2, rr2)
		}
		if n := killAt[name]; n > 0 && f.Calls(man.Shards[0].Addr) != n {
			t.Fatalf("%s: the primary saw %d calls, want %d (the kill did not land where scripted)", name, f.Calls(man.Shards[0].Addr), n)
		}
	}
}

// centredDirect draws m values from b with RNG(seed), as a calculation
// request does, and sums x = v − c and x² over them one by one, in draw
// order; abs is Σ|x|, the scale a cancelling Σx is compared on.
func centredDirect(t *testing.T, b block.Block, seed uint64, m int64, c float64) (d, d2, abs float64) {
	t.Helper()
	err := block.SampleChunks(b, stats.NewRNG(seed), m, func(vs []float64) error {
		for _, v := range vs {
			x := v - c
			d, d2, abs = d+x, d2+x*x, abs+math.Abs(x)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, d2, abs
}

// checkCentred demands acc's centred sums match a direct recomputation up to
// summation order.
func checkCentred(t *testing.T, what string, acc *leverage.Accum, d, d2, abs float64) {
	t.Helper()
	if math.Abs(acc.D-d) > 1e-12*abs || math.Abs(acc.D2-d2) > 1e-12*d2 {
		t.Fatalf("%s: D %v, D2 %v; the draws give %v, %v", what, acc.D, acc.D2, d, d2)
	}
}
