package cluster

import (
	"context"
	"math"
	"net"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
	"isla/internal/workload"
)

// startWorker serves the given blocks on a loopback listener and returns
// its address. The listener closes with the test.
func startWorker(t testing.TB, blocks ...block.Block) string {
	t.Helper()
	w := NewWorker(blocks...)
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func normalBlocks(t testing.TB, n, b int, seed uint64) []block.Block {
	t.Helper()
	s, _, err := workload.Normal(100, 20, n, b, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s.Blocks()
}

// The TestCluster* tests query tables whose manifest is read from the
// workers' own inventories (ManifestFromWorkers), as islacli -cluster does.

func TestClusterSingleWorker(t *testing.T) {
	blocks := normalBlocks(t, 300000, 10, 1)
	addr := startWorker(t, blocks...)

	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 7
	st := workerTable(t, Config{}, nil, addr)

	if st.Rows() != 300000 {
		t.Fatalf("total = %d", st.Rows())
	}
	res, err := runView(context.Background(), st.View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-100) > 1.0 {
		t.Fatalf("cluster estimate = %v", res.Estimate)
	}
	if len(res.PerBlock) != 10 {
		t.Fatalf("per-block = %d", len(res.PerBlock))
	}
	for i, br := range res.PerBlock {
		if br.BlockID != i {
			t.Fatalf("block order broken: %d at %d", br.BlockID, i)
		}
	}
}

func TestClusterMultipleWorkers(t *testing.T) {
	blocks := normalBlocks(t, 300000, 9, 2)
	// Three workers, three blocks each.
	addrs := []string{
		startWorker(t, blocks[0:3]...),
		startWorker(t, blocks[3:6]...),
		startWorker(t, blocks[6:9]...),
	}
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 5

	res, err := runView(context.Background(), workerTable(t, Config{}, nil, addrs...).View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-100) > 1.0 {
		t.Fatalf("estimate = %v", res.Estimate)
	}
	if res.TotalSamples == 0 {
		t.Fatal("no samples")
	}
}

func TestClusterDeterministicAcrossTopologies(t *testing.T) {
	blocks := normalBlocks(t, 200000, 6, 3)
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 9
	ctx := context.Background()

	r1, err := runView(ctx, workerTable(t, Config{}, nil, startWorker(t, blocks...)).View(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Same blocks split over two workers, listed out of block order: the
	// table's order is the ascending block id and per-block RNG seeds derive
	// from the query seed keyed by that order, so the answer matches.
	two := workerTable(t, Config{}, nil, startWorker(t, blocks[3:]...), startWorker(t, blocks[:3]...))
	r2, err := runView(ctx, two.View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate != r2.Estimate {
		t.Fatalf("topology changed the answer: %v vs %v", r1.Estimate, r2.Estimate)
	}
}

func TestClusterMatchesPaperNonIIDStory(t *testing.T) {
	// Five workers, one "subsidiary" distribution each (§VII-E example).
	s, truth, err := workload.PaperNonIID(60000, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.PerBlockBounds = true // §VII-C boundaries over the §VII-E cluster
	cfg.Seed = 11
	var addrs []string
	for _, b := range s.Blocks() {
		addrs = append(addrs, startWorker(t, b))
	}
	res, err := runView(context.Background(), workerTable(t, Config{}, nil, addrs...).View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > 2*cfg.Precision {
		t.Fatalf("estimate %v vs truth %v", res.Estimate, truth)
	}
}

func TestWorkerErrors(t *testing.T) {
	workerTable(t, Config{}, nil, startWorker(t, normalBlocks(t, 1000, 1, 5)...))

	// Direct RPC-level error checks.
	w := NewWorker()
	var rep SampleReply
	err := w.sample(SampleArgs{BlockID: 42, Sigma: 1, P1: 0.5, P2: 2, SampleSize: 10}, &rep)
	if err == nil {
		t.Error("sampling unknown block accepted")
	}
	w.AddBlock(block.NewMemBlock(1, []float64{1, 2, 3}))
	err = w.sample(SampleArgs{BlockID: 1, Sigma: 1, P1: 0.5, P2: 2, SampleSize: 0}, &rep)
	if err == nil {
		t.Error("zero sample size accepted")
	}
	err = w.sample(SampleArgs{BlockID: 1, Sigma: 1, P1: 2, P2: 1, SampleSize: 5}, &rep)
	if err == nil {
		t.Error("invalid boundaries accepted")
	}
	var prep PilotStateReply
	if err := w.pilotState(PilotStateArgs{BlockID: 1, SampleSize: 0, S0: 1}, &prep); err == nil {
		t.Error("zero pilot accepted")
	}
}

// TestCoordinatorNoWorkers: a table needs rows to sample — no addresses, or
// a worker that holds no blocks, is refused when the manifest is read.
func TestCoordinatorNoWorkers(t *testing.T) {
	if _, err := ManifestFromWorkers(nil, Config{}, nil); err == nil {
		t.Fatal("a table without workers accepted")
	}
	if _, err := ManifestFromWorkers([]string{startWorker(t)}, Config{}, nil); err == nil {
		t.Fatal("a worker without blocks accepted")
	}
}

func TestCoordinatorBadAddress(t *testing.T) {
	// A listener that is immediately closed: dial must fail.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := ManifestFromWorkers([]string{addr}, Config{}, nil); err == nil {
		t.Fatal("dead address accepted")
	}
	man := &ShardManifest{Version: 1, Shards: []ShardEntry{{Addr: addr, Blocks: []int{0}, Lens: []int64{10}}}}
	if _, err := NewShardTable(man, core.DefaultConfig(), Config{}, nil); err == nil {
		t.Fatal("dead address accepted")
	}
}

func TestPilotReplyRoundTrip(t *testing.T) {
	// Moments → wire → Moments must preserve mean/variance/extremes.
	var m stats.Moments
	r := stats.NewRNG(6)
	for i := 0; i < 10000; i++ {
		m.Add(100 + 20*r.NormFloat64())
	}
	rep := PilotStateReply{
		Count: m.Count(), Mean: m.Mean(),
		M2: m.Variance() * float64(m.Count()), Min: m.Min(), Max: m.Max(),
	}
	got := stats.RebuildMoments(rep.Count, rep.Mean, rep.M2, rep.Min, rep.Max)
	if got.Count() != m.Count() || math.Abs(got.Mean()-m.Mean()) > 1e-12 ||
		math.Abs(got.Variance()-m.Variance()) > 1e-9 ||
		got.Min() != m.Min() || got.Max() != m.Max() {
		t.Fatalf("round trip lost information: %+v vs %+v", got, m)
	}
}
