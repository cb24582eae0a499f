package isla_test

// The examples: the paper's default workload, the on-disk store, online
// refinement (§VII-A), GROUP BY (§VII-D) in memory and on files, a sharded
// table on loopback workers (§VII-E), the non-i.i.d. warehouse (§VII-C) and
// the outlier-heavy trip column with MAX (§VIII-G, §VII-D). Every seed is
// explicit, so each Output block is exact: `go test -run Example -v .` runs
// them and fails on any printed answer, interval or sample count that moves.

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"isla"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
	"isla/internal/workload"
)

// normalValues draws n readings ~ N(100, 20²), the paper's default workload.
func normalValues(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	d := stats.Normal{Mu: 100, Sigma: 20}
	values := make([]float64, n)
	for i := range values {
		values[i] = d.Sample(r)
	}
	return values
}

// Register a column, run an approximate AVG with a precision guarantee, and
// compare it with the exact scan.
func ExampleDB_Query() {
	db := isla.NewDB()
	db.RegisterSlice("readings", normalValues(1_000_000, 42), 10)
	fmt.Println("tables:", db.Tables())

	// Approximate: the answer carries a ±0.1 confidence interval at 95%.
	approx, err := db.Query("SELECT AVG(v) FROM readings WITH PRECISION 0.1 SEED 1")
	if err != nil {
		log.Fatal(err)
	}
	exact, err := db.Query("SELECT AVG(v) FROM readings METHOD EXACT")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate AVG : %.4f  (±%.2f at %.0f%% confidence)\n",
		approx.Value, approx.CI.HalfWidth, approx.CI.Confidence*100)
	fmt.Printf("exact AVG       : %.4f\n", exact.Value)
	fmt.Printf("absolute error  : %.4f\n", math.Abs(approx.Value-exact.Value))
	fmt.Printf("samples touched : %d of %d rows (%.2f%%)\n",
		approx.Samples, approx.Rows, 100*float64(approx.Samples)/float64(approx.Rows))

	// SUM is AVG × M; COUNT(*) is answered from metadata.
	sum, err := db.Query("SELECT SUM(v) FROM readings WITH PRECISION 0.1 SEED 1")
	if err != nil {
		log.Fatal(err)
	}
	count, err := db.Query("SELECT COUNT(*) FROM readings")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approximate SUM : %.1f\n", sum.Value)
	fmt.Printf("COUNT(*)        : %.0f\n", count.Value)
	// Output:
	// tables: [readings]
	// approximate AVG : 99.9601  (±0.10 at 95% confidence)
	// exact AVG       : 99.9924
	// absolute error  : 0.0324
	// samples touched : 156650 of 1000000 rows (15.66%)
	// approximate SUM : 99960090.6
	// COUNT(*)        : 1000000
}

// Write a column as ISLB block files (summary footers included), reopen them
// as a store and aggregate without loading the data into memory: the files
// are memory-mapped where the platform supports it, read by positioned reads
// elsewhere, and the exact mean comes from the footers without a scan.
func ExampleOpenFiles() {
	dir, err := os.MkdirTemp("", "isla-filestore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	prefix := filepath.Join(dir, "readings")
	written, err := isla.WriteFiles(prefix, normalValues(1_000_000, 42), 8)
	if err != nil {
		log.Fatal(err)
	}
	defer written.Close()
	paths := make([]string, written.NumBlocks())
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.%03d", prefix, i)
	}
	store, err := isla.OpenFiles(paths...)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	cfg := isla.DefaultConfig()
	cfg.Precision = 0.1
	cfg.Seed = 7
	for _, s := range []struct {
		name  string
		store *isla.Store
	}{{"written", written}, {"reopened", store}} {
		res, err := isla.Estimate(context.Background(), s.store, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s : %d block files, %d rows, AVG %.4f (±%.2f at %.0f%% confidence) from %d samples\n",
			s.name, s.store.NumBlocks(), s.store.TotalLen(),
			res.Estimate, res.CI.HalfWidth, res.CI.Confidence*100, res.TotalSamples)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact AVG: %.4f\n", exact)
	// Output:
	// written  : 8 block files, 1000000 rows, AVG 99.9588 (±0.10 at 95% confidence) from 156328 samples
	// reopened : 8 block files, 1000000 rows, AVG 99.9588 (±0.10 at 95% confidence) from 156328 samples
	// exact AVG: 99.9924
}

// Online aggregation (§VII-A): the first answer comes at loose precision,
// and each refinement round draws more samples into the stored per-block
// sums, so the interval tightens without re-reading a drawn row.
func ExampleNewSession() {
	store := isla.Partition(normalValues(2_000_000, 3), 10)
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}

	cfg := isla.DefaultConfig()
	cfg.Precision = 2.0 // loose first answer, refined below
	cfg.Seed = 19
	sess, err := isla.NewSession(store, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact mean: %.4f\n", exact)
	fmt.Println("round  estimate   ±precision  samples   abs err")
	for round := 1; round <= 6; round++ {
		snap, err := sess.Refine(1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %9.4f  %9.4f  %7d  %8.4f\n",
			snap.Round, snap.Result.Estimate, snap.Result.CI.HalfWidth,
			sess.TotalSamples(), math.Abs(snap.Result.Estimate-exact))
	}
	// Output:
	// exact mean: 99.9839
	// round  estimate   ±precision  samples   abs err
	//     1   100.2547     2.0148      370    0.2707
	//     2    99.0738     1.4247      740    0.9101
	//     3    99.3698     1.1632     1110    0.6141
	//     4   100.3194     1.0074     1480    0.3355
	//     5   100.2646     0.9010     1850    0.2806
	//     6   100.2860     0.8225     2220    0.3020
}

// Approximate GROUP BY AVG (§VII-D): one statement runs ISLA on each large
// group at the shared precision, while a group of at most 2 000 rows is
// scanned exactly.
func ExampleDB_RegisterGroupedRows() {
	r := stats.NewRNG(9)
	regions := []struct {
		name      string
		mu, sigma float64
		rows      int
	}{
		{"north", 120, 25, 80_000},
		{"south", 95, 18, 60_000},
		{"east", 140, 30, 40_000},
		{"west", 80, 12, 50_000},
		{"hq", 300, 5, 150}, // tiny group → exact scan
	}
	var rows []isla.GroupRow
	truth := map[string]float64{}
	for _, reg := range regions {
		d := stats.Normal{Mu: reg.mu, Sigma: reg.sigma}
		var m stats.Moments
		for i := 0; i < reg.rows; i++ {
			v := d.Sample(r)
			rows = append(rows, isla.GroupRow{Group: reg.name, Value: v})
			m.Add(v)
		}
		truth[reg.name] = m.Mean()
	}

	db := isla.NewDB()
	if err := db.RegisterGroupedRows("sales", "region", rows, 8); err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 27")
	if err != nil {
		log.Fatal(err)
	}
	var groups []isla.GroupResult = res.Groups // sorted by group key
	fmt.Println("region   rows  estimate      exact   abs err  mode     samples")
	for _, gr := range groups {
		if gr.Err != "" {
			log.Fatalf("group %s: %s", gr.Group, gr.Err)
		}
		mode := "sampled"
		if gr.Exact {
			mode = "exact"
		}
		fmt.Printf("%-6s  %5d  %8.4f  %9.4f  %8.4f  %-7s  %7d\n",
			gr.Group, gr.Rows, gr.Value, truth[gr.Group],
			math.Abs(gr.Value-truth[gr.Group]), mode, gr.Samples)
	}
	// Output:
	// region   rows  estimate      exact   abs err  mode     samples
	// east    40000  140.1358   140.0313    0.1045  sampled    14608
	// hq        150  299.8291   299.8291    0.0000  exact          0
	// north   80000  120.1892   120.0849    0.1043  sampled     9344
	// south   60000   94.6656    95.0030    0.3374  sampled     5088
	// west    50000   80.1566    80.0580    0.0986  sampled     2152
}

// Persist a grouped table as per-group ISLB block files plus a manifest,
// reopen it zero-copy and run grouped and filtered SQL against it. The same
// manifest serves islacli and islaserv through -loadgroup.
func ExampleWriteGroupFiles() {
	r := stats.NewRNG(1)
	var rows []isla.GroupRow
	for i := 0; i < 200_000; i++ {
		rows = append(rows, isla.GroupRow{Group: "east", Value: 100 + 20*r.NormFloat64()})
		rows = append(rows, isla.GroupRow{Group: "west", Value: 50 + 10*r.NormFloat64()})
		if i%4 == 0 {
			rows = append(rows, isla.GroupRow{Group: "north", Value: 200 + 40*r.NormFloat64()})
		}
	}

	dir, err := os.MkdirTemp("", "isla-groups-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	manifest, err := isla.WriteGroupFiles(dir, "region", rows, 6)
	if err != nil {
		log.Fatal(err)
	}
	g, err := isla.OpenGroupManifest(manifest, isla.ModeAuto)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("wrote %s: %d groups\n", filepath.Base(manifest), len(g.Groups()))

	db := isla.NewDB()
	db.RegisterGrouped("sales", g)
	db.EnablePlanCache(0)

	for _, sql := range []string{
		"SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 7",
		"SELECT AVG(v) FROM sales WHERE v > 60 GROUP BY region WITH PRECISION 0.5 SEED 7",
		"SELECT COUNT(v) FROM sales GROUP BY region",
		// The first statement again: the plan cache serves every group's
		// pilot, and the answers keep every bit.
		"SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 7",
	} {
		res, err := db.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(sql)
		for _, gr := range res.Groups {
			if gr.Err != "" {
				fmt.Printf("  %-8s ERROR %s\n", gr.Group, gr.Err)
				continue
			}
			fmt.Printf("  %-8s = %10.4f", gr.Group, gr.Value)
			if gr.CI != nil {
				fmt.Printf("  ±%.4g", gr.CI.HalfWidth)
			}
			if gr.Filter != nil {
				fmt.Printf("  sel=%.3f", gr.Filter.Selectivity)
			}
			if gr.PilotCached {
				fmt.Printf("  (cached pilot)")
			}
			fmt.Printf("  [rows=%d samples=%d]\n", gr.Rows, gr.Samples)
		}
	}
	// Output:
	// wrote manifest.json: 3 groups
	// SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 7
	//   east     =   100.1786  ±0.5  [rows=200000 samples=6006]
	//   north    =   200.3979  ±0.5  [rows=50000 samples=23642]
	//   west     =    49.9228  ±0.5  [rows=200000 samples=1488]
	// SELECT AVG(v) FROM sales WHERE v > 60 GROUP BY region WITH PRECISION 0.5 SEED 7
	//   east     =   100.8509  ±0.5047  sel=0.977  [rows=200000 samples=5515]
	//   north    =   199.9532  ±0.5089  sel=1.000  [rows=50000 samples=23713]
	//   west     =    65.0543  ±0.4752  sel=0.174  [rows=200000 samples=1959]
	// SELECT COUNT(v) FROM sales GROUP BY region
	//   east     = 200000.0000  [rows=200000 samples=0]
	//   north    = 50000.0000  [rows=50000 samples=0]
	//   west     = 200000.0000  [rows=200000 samples=0]
	// SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 7
	//   east     =   100.1786  ±0.5  (cached pilot)  [rows=200000 samples=6006]
	//   north    =   200.3979  ±0.5  (cached pilot)  [rows=50000 samples=23642]
	//   west     =    49.9228  ±0.5  (cached pilot)  [rows=200000 samples=1488]
}

// The §VII-E deployment over real sockets: three workers, each owning four
// of twelve blocks and speaking net/rpc over TCP loopback (the code path of
// separate hosts), serve one sharded table. Each phase of a query goes to
// each worker as one RPC, and each block's reply is a fixed set of sums,
// never a sampled row.
func ExampleNewWorker() {
	store := isla.Partition(normalValues(1_200_000, 21), 12)
	blocks := store.Blocks()

	var addrs []string
	for w := 0; w < 3; w++ {
		worker := isla.NewWorker(blocks[w*4 : (w+1)*4]...)
		l, err := worker.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
		fmt.Printf("worker %d serves blocks %d–%d\n", w, w*4, w*4+3)
	}

	// The table is whatever the workers serve between them.
	man, err := isla.ShardManifestFromWorkers(addrs, isla.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	db := isla.NewDB()
	st, err := isla.OpenShardTable(man, db.BaseConfig(), isla.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	db.RegisterSharded("sales", st)

	res, err := db.Query("SELECT AVG(v) FROM sales WITH PRECISION 0.2 SEED 33")
	if err != nil {
		log.Fatal(err)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster AVG: %.4f (±%.2f at %.0f%%)   exact: %.4f   error: %.4f\n",
		res.Value, res.CI.HalfWidth, res.CI.Confidence*100, exact, math.Abs(res.Value-exact))
	fmt.Printf("samples: %d of %d rows, all drawn on the workers\n", res.Samples, res.Rows)
	// Output:
	// worker 0 serves blocks 0–3
	// worker 1 serves blocks 4–7
	// worker 2 serves blocks 8–11
	// cluster AVG: 100.0911 (±0.20 at 95%)   exact: 100.0047   error: 0.0864
	// samples: 38628 of 1200000 rows, all drawn on the workers
}

// The paper's distributed scenario (§VII-C): five regional subsidiaries
// with different means and dispersions (non-i.i.d. blocks, the §VIII-D
// configuration). The global average is estimated with per-block data
// boundaries, variance-aware sampling rates and parallel per-block workers
// (§VII-E); the pipeline is spelled out so that the calculation phase hands
// back each subsidiary's partial answer.
func Example_warehouse() {
	regions := []struct {
		name      string
		mu, sigma float64
		rows      int
	}{
		{"americas", 100, 20, 400_000},
		{"emea", 50, 10, 400_000},
		{"apac", 80, 30, 400_000},
		{"latam", 150, 60, 400_000},
		{"anz", 120, 40, 400_000},
	}
	r := stats.NewRNG(7)
	blocks := make([]isla.Block, len(regions))
	for i, reg := range regions {
		d := stats.Normal{Mu: reg.mu, Sigma: reg.sigma}
		data := make([]float64, reg.rows)
		for j := range data {
			data[j] = d.Sample(r)
		}
		blocks[i] = block.NewMemBlock(i, data)
		fmt.Printf("subsidiary %-9s N(%3.0f, %2.0f²)  %d rows\n", reg.name, reg.mu, reg.sigma, reg.rows)
	}
	store := block.NewStore(blocks...)

	cfg := isla.DefaultConfig()
	cfg.Precision = 0.5
	cfg.VarianceAwareRates = true // dispersed subsidiaries sampled more
	cfg.Seed = 11
	cfg.Workers = -1 // one worker per CPU, the same answer as sequential

	ctx := context.Background()
	src := core.LocalExecutor{S: store}.Source(cfg)
	fp, err := core.FreezePilot(ctx, src, cfg)
	if err != nil {
		log.Fatal(err)
	}
	partials := make([]core.BlockResult, store.NumBlocks())
	res, err := core.EstimateFrozen(ctx, src, cfg, fp, partials)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global approximate AVG: %.4f (±%.2f)\n", res.Estimate, res.CI.HalfWidth)
	fmt.Printf("global exact AVG:       %.4f\n", exact)
	fmt.Printf("total samples:          %d of %d rows\n", res.TotalSamples, store.TotalLen())
	fmt.Println("per-subsidiary partial answers (variance-aware sample quotas):")
	for i, br := range partials {
		fmt.Printf("  %-9s partial=%8.4f  samples=%6d  case=%v\n",
			regions[i].name, br.Answer, br.Samples, br.Detail.Case)
	}
	// Output:
	// subsidiary americas  N(100, 20²)  400000 rows
	// subsidiary emea      N( 50, 10²)  400000 rows
	// subsidiary apac      N( 80, 30²)  400000 rows
	// subsidiary latam     N(150, 60²)  400000 rows
	// subsidiary anz       N(120, 40²)  400000 rows
	// global approximate AVG: 99.6638 (±0.50)
	// global exact AVG:       100.0277
	// total samples:          38137 of 2000000 rows
	// per-subsidiary partial answers (variance-aware sample quotas):
	//   americas  partial= 98.6704  samples=  2331  case=Case2
	//   emea      partial= 49.7445  samples=   590  case=Case2
	//   apac      partial= 80.4627  samples=  5409  case=Case5
	//   latam     partial=150.0895  samples= 20838  case=Case2
	//   anz       partial=119.1142  samples=  8969  case=Case3
}

// The paper's real-data showcase (§VIII-G) on a trip-distance-like column
// whose very small and very large values cluster. The measure-biased
// estimators are wrong on such data by construction — MV converges to
// E[X²]/E[X], not E[X] — while ISLA's region boundaries and leverages keep
// its answer near the truth. (A plain uniform sample is unbiased and
// competitive at this budget; the US collapse the paper reports on TLC is
// not reproducible from first principles, as `islarepro -exp tlc` shows.)
// The MAX extension (§VII-D) runs over the same store.
func Example_outliers() {
	store, _, err := workload.TLCTrips(2_000_000, 10, 5)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trip-distance-like column: %d rows, exact mean %.2f\n", store.TotalLen(), exact)

	db := isla.NewDB()
	db.RegisterStore("trips", store)
	fmt.Println("method  estimate     abs err  rel err  samples")
	for _, method := range []string{"ISLA", "MV", "MVB", "US", "STS"} {
		res, err := db.Query(fmt.Sprintf("SELECT AVG(d) FROM trips WITH PRECISION 25 METHOD %s SEED 9", method))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s  %8.2f  %10.2f  %6.2f%%  %7d\n",
			method, res.Value, math.Abs(res.Value-exact),
			100*math.Abs(res.Value-exact)/exact, res.Samples)
	}

	// Approximate MAX with leverage-based per-block sampling rates.
	trueMax, err := isla.ExactExtreme(store, isla.MAX)
	if err != nil {
		log.Fatal(err)
	}
	approxMax, err := isla.EstimateExtreme(store, isla.MAX, isla.ExtremeConfig{SampleRate: 0.1, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MAX: exact %.2f, approximate %.2f (10%% sample, %d draws)\n",
		trueMax, approxMax.Value, approxMax.Samples)
	// Output:
	// trip-distance-like column: 2000000 rows, exact mean 4322.89
	// method  estimate     abs err  rel err  samples
	// ISLA     4327.74        4.86    0.11%   154310
	// MV      10114.26     5791.37  133.97%   154311
	// MVB      4625.40      302.52    7.00%   154311
	// US       4322.28        0.60    0.01%   154311
	// STS      4330.37        7.49    0.17%   154311
	// MAX: exact 28314.61, approximate 25013.86 (10% sample, 199996 draws)
}
