package cluster

import (
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

func TestClusterSingleWorker(t *testing.T) {
	blocks := normalBlocks(t, 300000, 10, 1)
	addr := startWorker(t, blocks...)

	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 7
	coord := NewCoordinator(cfg)
	if err := coord.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if coord.TotalLen() != 300000 {
		t.Fatalf("total = %d", coord.TotalLen())
	}
	res, err := coord.Run()
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
	coord := NewCoordinator(cfg)
	for _, a := range addrs {
		if err := coord.Connect(a); err != nil {
			t.Fatal(err)
		}
	}
	defer coord.Close()

	res, err := coord.Run()
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

	one := NewCoordinator(cfg)
	if err := one.Connect(startWorker(t, blocks...)); err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	r1, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Same blocks split over two workers: per-block RNG seeds derive from
	// the coordinator stream keyed by block order, so the answer matches.
	two := NewCoordinator(cfg)
	if err := two.Connect(startWorker(t, blocks[:3]...)); err != nil {
		t.Fatal(err)
	}
	if err := two.Connect(startWorker(t, blocks[3:]...)); err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	r2, err := two.Run()
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
	coord := NewCoordinator(cfg)
	for _, b := range s.Blocks() {
		if err := coord.Connect(startWorker(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	defer coord.Close()
	res, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > 2*cfg.Precision {
		t.Fatalf("estimate %v vs truth %v", res.Estimate, truth)
	}
}

func TestWorkerErrors(t *testing.T) {
	addr := startWorker(t, normalBlocks(t, 1000, 1, 5)...)
	coord := NewCoordinator(core.DefaultConfig())
	if err := coord.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Direct RPC-level error checks.
	w := NewWorker()
	var rep SampleReply
	err := w.Sample(SampleArgs{BlockID: 42, Sigma: 1, P1: 0.5, P2: 2, SampleSize: 10}, &rep)
	if err == nil {
		t.Error("sampling unknown block accepted")
	}
	w.AddBlock(block.NewMemBlock(1, []float64{1, 2, 3}))
	err = w.Sample(SampleArgs{BlockID: 1, Sigma: 1, P1: 0.5, P2: 2, SampleSize: 0}, &rep)
	if err == nil {
		t.Error("zero sample size accepted")
	}
	err = w.Sample(SampleArgs{BlockID: 1, Sigma: 1, P1: 2, P2: 1, SampleSize: 5}, &rep)
	if err == nil {
		t.Error("invalid boundaries accepted")
	}
	var prep PilotReply
	if err := w.Pilot(PilotArgs{BlockID: 1, SampleSize: 0}, &prep); err == nil {
		t.Error("zero pilot accepted")
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	coord := NewCoordinator(core.DefaultConfig())
	if _, err := coord.Run(); err != core.ErrEmptyStore {
		t.Fatalf("err = %v, want ErrEmptyStore", err)
	}
}

func TestCoordinatorBadAddress(t *testing.T) {
	coord := NewCoordinator(core.DefaultConfig())
	// A listener that is immediately closed: dial must fail.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if err := coord.Connect(addr); err == nil {
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
	rep := PilotReply{
		Count: m.Count(), Mean: m.Mean(),
		M2: m.Variance() * float64(m.Count()), Min: m.Min(), Max: m.Max(),
	}
	got := momentsFrom(rep)
	if got.Count() != m.Count() || math.Abs(got.Mean()-m.Mean()) > 1e-12 ||
		math.Abs(got.Variance()-m.Variance()) > 1e-9 ||
		got.Min() != m.Min() || got.Max() != m.Max() {
		t.Fatalf("round trip lost information: %+v vs %+v", got, m)
	}
}
