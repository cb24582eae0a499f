package cluster

import (
	"context"
	"reflect"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

// TestSourceConformance is the executable form of "local and sharded
// execution are the same algorithm": the same phase requests put to a
// store's in-process source and to a loopback shard source come back
// identical bit for bit. The request sets cover what the pipelines can
// produce at the edges — a 1-row block, odd lengths, draws far above and
// below a block's length, blocks with no request (zero quota), start states
// mid-stream.
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
	remote := view.source(false)

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
			calc = append(calc, core.CalcReq{Block: i, Plan: p, Seed: uint64(100 + i)})
		}
	}
	lr, err := local.Calc(ctx, calc)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remote.Calc(ctx, calc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr, rr) {
		t.Fatalf("calc replies differ:\n local  %+v\n remote %+v", lr, rr)
	}
}
