package cluster

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// TestSourceConformance is the executable form of "local and sharded
// execution are the same algorithm": the same phase requests put to a
// store's in-process source and to a loopback shard source come back
// identical bit for bit. The request sets cover what the pipelines can
// produce at the edges — a 1-row block, odd lengths, draws far above and
// below a block's length, blocks with no request (zero quota), start states
// mid-stream, and a calculation round that carries the previous round's sums.
func TestSourceConformance(t *testing.T) {
	r := stats.NewRNG(41)
	var blocks []block.Block
	for id, n := range []int{1, 3, 257, 4097, 100003, 64} {
		data := make([]float64, n)
		for i := range data {
			data[i] = 100 + 20*r.NormFloat64()
		}
		blocks = append(blocks, block.NewMemBlock(id, data))
	}
	store := block.NewStore(blocks...)
	man, _ := startShards(t, blocks, interleaved(len(blocks), 2))
	view := shardTable(t, man, fastFault(), nil).View()

	cfg := chaosConfig(5)
	cfg.Workers = 3
	ctx := context.Background()
	local := core.LocalExecutor{S: store}.Source(cfg)
	remote := view.source(cfg.Seed, false)

	lids, llens := local.Layout()
	rids, rlens := remote.Layout()
	if !reflect.DeepEqual(lids, rids) || !reflect.DeepEqual(llens, rlens) || local.TotalLen() != remote.TotalLen() {
		t.Fatalf("layouts differ: %v %v vs %v %v", lids, llens, rids, rlens)
	}

	pilot := []core.PilotReq{
		{Block: 0, Size: 1, Start: stats.NewRNG(1).State()},
		{Block: 1, Size: 200, Start: stats.NewRNG(2).State()}, // far more draws than rows
		{Block: 3, Size: 41, Start: stats.RNGState{S0: 1 << 63, S1: 1}},
		{Block: 4, Size: 1000, Start: stats.NewRNG(3).State()},
	}
	lp, err := local.Pilot(ctx, pilot)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := remote.Pilot(ctx, pilot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lp, rp) {
		t.Fatalf("pilot replies differ:\n local  %+v\n remote %+v", lp, rp)
	}

	f := core.IntervalFilter(90, 125)
	filtered := []core.FilterReq{ // blocks 2 and 5 hold no quota
		{Block: 0, Seed: 11, Draws: 1},
		{Block: 1, Seed: 12, Draws: 5000},
		{Block: 3, Seed: 13, Draws: block.ChunkSize + 1},
		{Block: 4, Seed: 14, Draws: 7},
	}
	lv, err := local.FilterPilot(ctx, filtered, f)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := remote.FilterPilot(ctx, filtered, f)
	if err != nil {
		t.Fatal(err)
	}
	for k := range filtered {
		if len(lv[k]) != len(rv[k]) || (len(lv[k]) > 0 && !reflect.DeepEqual(lv[k], rv[k])) {
			t.Fatalf("filter-pilot request %d: %d local values vs %d remote", k, len(lv[k]), len(rv[k]))
		}
	}
	lc, err := local.FilterCalc(ctx, filtered, f)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := remote.FilterCalc(ctx, filtered, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lc, rc) {
		t.Fatalf("filter-calc replies differ:\n local  %+v\n remote %+v", lc, rc)
	}

	// The contained class never crosses the wire (a shard source reports no
	// summaries); in process, gathering a provably-contained block
	// unfiltered must equal sampling it through the filter.
	wide := core.IntervalFilter(-1e9, 1e9)
	overlap := []core.FilterReq{{Block: 4, Seed: 21, Draws: 3000}}
	contained := []core.FilterReq{{Block: 4, Seed: 21, Draws: 3000, Class: block.SummaryContained}}
	wantCalc, err := local.FilterCalc(ctx, overlap, wide)
	if err != nil {
		t.Fatal(err)
	}
	gotCalc, err := local.FilterCalc(ctx, contained, wide)
	if err != nil {
		t.Fatal(err)
	}
	wantVals, err := local.FilterPilot(ctx, overlap, wide)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := local.FilterPilot(ctx, contained, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCalc, wantCalc) || !reflect.DeepEqual(gotVals, wantVals) {
		t.Fatal("contained-class replies differ from the overlap-class replies on the same block")
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

	// Both rounds on every layout answer the store source's bits and leave
	// Prior as it was. On a replicated layout the primary dies on its second
	// batch, so the second round fails over to the standby owners: the
	// replies they send merge with Prior once.
	for name, layout := range shardLayouts(len(blocks)) {
		man, workers := startShards(t, blocks, layout)
		f := NewFaults(3)
		if strings.HasPrefix(name, "replicated") {
			f.Script(man.Shards[0].Addr, 2, func() { workers[0].Close() })
		}
		remote := shardTable(t, man, fastFault(), f.Wrap(DialTCP)).View().source(cfg.Seed, false)
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
		if strings.HasPrefix(name, "replicated") && f.Calls(man.Shards[0].Addr) != 2 {
			t.Fatalf("%s: the primary saw %d calls, want 2 (the kill did not land on the second round)", name, f.Calls(man.Shards[0].Addr))
		}
	}
}
