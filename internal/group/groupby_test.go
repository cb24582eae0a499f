package group_test

// The grouped answers of a group.Store come from the engine's GROUP BY — the
// one grouped executor — so these tests live outside package group (the
// engine imports it) and run SQL.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"isla/internal/block"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/stats"
)

// fixtureRows is five groups in key order: the "" key, three sampled groups
// of 60 k–120 k rows and a 500-row group under the small-group size. Values
// are μ + σ·(a centred sum of three uniforms, scaled to unit variance): no
// math.Log in the generator, so the data are the same bits on every
// architecture.
func fixtureRows() (rows []group.Row, truths map[string]float64) {
	r := stats.NewRNG(1)
	truths = map[string]float64{}
	for _, sp := range []struct {
		key       string
		mu, sigma float64
		n         int
	}{
		{"", 70, 15, 60000},
		{"east", 100, 20, 120000},
		{"north", 200, 40, 60000},
		{"tiny", 10, 1, 500},
		{"west", 50, 10, 80000},
	} {
		var m stats.Moments
		for i := 0; i < sp.n; i++ {
			v := sp.mu + 2*sp.sigma*(r.Float64()+r.Float64()+r.Float64()-1.5)
			rows = append(rows, group.Row{Group: sp.key, Value: v})
			m.Add(v)
		}
		truths[sp.key] = m.Mean()
	}
	return rows, truths
}

// groupBy runs one statement over g, registered as table "t", on an engine
// without a plan cache — sampled groups then take the i.i.d. route — and
// fails the test on any error, per group included.
func groupBy(t *testing.T, g *group.Store, sql string) []engine.GroupResult {
	t.Helper()
	cat := engine.NewCatalog()
	cat.RegisterGrouped("t", g)
	res, err := engine.New(cat).ExecuteSQL(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for _, gr := range res.Groups {
		if gr.Err != "" {
			t.Fatalf("%s: group %q: %s", sql, gr.Group, gr.Err)
		}
	}
	return res.Groups
}

func TestBuildAndAccessors(t *testing.T) {
	rows, _ := fixtureRows()
	g, err := group.BuildColumn("", rows, 5)
	if err != nil {
		t.Fatal(err)
	}
	keys := g.Groups()
	if len(keys) != 5 || keys[0] != "" || keys[1] != "east" {
		t.Fatalf("groups = %q", keys)
	}
	if g.Combined().TotalLen() != int64(len(rows)) {
		t.Fatalf("total = %d", g.Combined().TotalLen())
	}
	if _, err := g.Group("east"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Group("nope"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestAVGPerGroup(t *testing.T) {
	rows, truths := fixtureRows()
	g, err := group.BuildColumn("region", rows, 10)
	if err != nil {
		t.Fatal(err)
	}
	const precision = 1.0
	results := groupBy(t, g, "SELECT AVG(v) FROM t GROUP BY region WITH PRECISION 1 SEED 7")
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	for _, gr := range results {
		truth := truths[gr.Group]
		tol := 2 * precision
		if gr.Exact {
			tol = 1e-9
		}
		if math.Abs(gr.Value-truth) > tol {
			t.Errorf("group %q: estimate %v vs truth %v", gr.Group, gr.Value, truth)
		}
		if small := gr.Group == "tiny"; gr.Exact != small || (gr.CI == nil) != small {
			t.Errorf("group %q: exact = %v, CI = %v", gr.Group, gr.Exact, gr.CI)
		}
	}
}

// TestAVGValidation: a statement without a precision target is refused at
// parse time, and a base configuration the estimator refuses fails every
// sampled group while a scanned group still answers.
func TestAVGValidation(t *testing.T) {
	rows := make([]group.Row, 0, 3500)
	for i := 0; i < 3000; i++ {
		rows = append(rows, group.Row{Group: "big", Value: float64(i % 7)})
	}
	for i := 0; i < 500; i++ {
		rows = append(rows, group.Row{Group: "small", Value: 1})
	}
	g, err := group.BuildColumn("", rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	cat.RegisterGrouped("t", g)
	e := engine.New(cat)
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM t GROUP BY g"); err == nil {
		t.Fatal("AVG without a precision target accepted")
	}
	bad := e.BaseConfig()
	bad.P1 = -1
	e.SetBaseConfig(bad)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.5 SEED 1")
	if err != nil {
		t.Fatal(err)
	}
	if big := res.Groups[0]; big.Err == "" {
		t.Errorf("invalid config accepted: %+v", big)
	}
	if small := res.Groups[1]; small.Err != "" || !small.Exact || small.Value != 1 {
		t.Errorf("scanned group = %+v", small)
	}
}

func TestAVGResultsSorted(t *testing.T) {
	g, _ := group.BuildColumn("", []group.Row{{"zeta", 1}, {"alpha", 2}, {"mid", 3}}, 1)
	res := groupBy(t, g, "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.1")
	if len(res) != 3 || res[0].Group != "alpha" || res[1].Group != "mid" || res[2].Group != "zeta" {
		t.Fatalf("not sorted: %+v", res)
	}
}

func TestBuildEmptyGroupKey(t *testing.T) {
	// "" is a legal group key: it sorts first, aggregates and survives a
	// manifest round trip (file names are index-based, not key-based).
	rows := []group.Row{{"", 1}, {"", 3}, {"a", 10}}
	g, err := group.BuildColumn("", rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := g.Groups()
	if len(keys) != 2 || keys[0] != "" || keys[1] != "a" {
		t.Fatalf("keys = %q", keys)
	}
	res := groupBy(t, g, "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.1")
	if res[0].Group != "" || res[0].Value != 2 || !res[0].Exact {
		t.Fatalf("empty-key group = %+v", res[0])
	}

	man, err := group.WriteFiles(t.TempDir(), "g", rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := group.OpenManifest(man, block.ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if keys := g2.Groups(); len(keys) != 2 || keys[0] != "" {
		t.Fatalf("manifest keys = %q", keys)
	}
}

// TestOptionsExactThreshold pins the engine's small-group size: a group of
// 2 000 rows is scanned exactly, one of 2 001 rows is sampled.
func TestOptionsExactThreshold(t *testing.T) {
	r := stats.NewRNG(2)
	var rows []group.Row
	for i := 0; i < 2000+2001; i++ {
		key := "at"
		if i >= 2000 {
			key = "over"
		}
		rows = append(rows, group.Row{Group: key, Value: 100 + 10*r.Float64()})
	}
	g, err := group.BuildColumn("", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := groupBy(t, g, "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 5 SEED 1")
	at, over := res[0], res[1]
	s, _ := g.Group("at")
	mean, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if at.Rows != 2000 || !at.Exact || at.CI != nil || at.Samples != 0 || at.Value != mean {
		t.Errorf("2 000-row group = %+v, want exact %v", at, mean)
	}
	if over.Rows != 2001 || over.Exact || over.CI == nil || over.Samples == 0 {
		t.Errorf("2 001-row group = %+v, want sampled", over)
	}
}

// TestAggregateSUMAndCOUNT holds the answers group.Aggregate gave at commit
// a539d12 — its last commit — on fixtureRows built with 7 blocks per group,
// for every precision × seed below and AVG, SUM and COUNT. Captured there by
// a throwaway test in internal/group that printed, per group,
//
//	group.Aggregate(g, agg, cfg, group.Options{})   // cfg: DefaultConfig, Precision, Seed
//
// with `go test -run TestCaptureGoldens -v ./internal/group/` on amd64 (%v
// rounds float64 exactly). The engine's GROUP BY must reproduce every Value,
// Exact, Rows and the whole CI bit for bit; Samples too, except on the exact
// group, where Aggregate counted the scanned rows and the engine reports
// zero. Off amd64 the estimator's math.Log/math.Exp (pure Go on 386) and
// fused multiply-adds may move a sampled answer's last bits — group.Aggregate
// moved them on 386 as well — so there values agree to a few ulps and sample
// counts stay exact.
func TestAggregateSUMAndCOUNT(t *testing.T) {
	goldens := []struct {
		prec     float64
		seed     uint64
		group    string
		rows     int64
		samples  int64 // group.Aggregate's count: |group| on the exact group
		avg, sum float64
	}{
		{0.5, 3, "", 60000, 3332, 70.01066832812866, 4.20064009968772e+06},
		{0.5, 3, "east", 120000, 6615, 100.07145799745112, 1.2008574959694134e+07},
		{0.5, 3, "north", 60000, 25084, 199.8555631765943, 1.1991333790595658e+07},
		{0.5, 3, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 3, "west", 80000, 1442, 49.665098444834115, 3.973207875586729e+06},
		{0.5, 7, "", 60000, 3549, 69.85980027534696, 4.1915880165208173e+06},
		{0.5, 7, "east", 120000, 6482, 100.20837598926067, 1.2025005118711282e+07},
		{0.5, 7, "north", 60000, 25098, 199.63994482341775, 1.1978396689405065e+07},
		{0.5, 7, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 7, "west", 80000, 1484, 49.838144518174325, 3.987051561453946e+06},
		{0.5, 17, "", 60000, 3573, 69.92732028928455, 4.195639217357073e+06},
		{0.5, 17, "east", 120000, 6041, 99.71071968007489, 1.1965286361608986e+07},
		{0.5, 17, "north", 60000, 24440, 199.5380954410119, 1.1972285726460714e+07},
		{0.5, 17, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 17, "west", 80000, 1505, 50.527524762257144, 4.0422019809805714e+06},
		{1, 3, "", 60000, 833, 70.57845042034289, 4.234707025220573e+06},
		{1, 3, "east", 120000, 1652, 100.03970711455987, 1.2004764853747185e+07},
		{1, 3, "north", 60000, 6076, 199.33853294558432, 1.196031197673506e+07},
		{1, 3, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 3, "west", 80000, 357, 49.744730708882386, 3.979578456710591e+06},
		{1, 7, "", 60000, 882, 69.83878716941824, 4.190327230165094e+06},
		{1, 7, "east", 120000, 1617, 100.06129794566388, 1.2007355753479665e+07},
		{1, 7, "north", 60000, 6076, 199.76907588706746, 1.1986144553224048e+07},
		{1, 7, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 7, "west", 80000, 371, 50.11733808404771, 4.0093870467238165e+06},
		{1, 17, "", 60000, 889, 69.67663769178773, 4.180598261507264e+06},
		{1, 17, "east", 120000, 1511, 99.67483008595549, 1.196097961031466e+07},
		{1, 17, "north", 60000, 6111, 198.39885508904098, 1.1903931305342458e+07},
		{1, 17, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 17, "west", 80000, 371, 51.18939540925424, 4.0951516327403393e+06},
	}
	same := func(got, want float64) bool {
		if runtime.GOARCH == "amd64" {
			return math.Float64bits(got) == math.Float64bits(want)
		}
		return math.Abs(got-want) <= 1e-13*math.Abs(want)
	}
	rows, _ := fixtureRows()
	g, err := group.BuildColumn("region", rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(goldens); i += 5 {
		prec, seed := goldens[i].prec, goldens[i].seed
		run := func(agg string) []engine.GroupResult {
			return groupBy(t, g, fmt.Sprintf("SELECT %s FROM t GROUP BY region WITH PRECISION %v SEED %d", agg, prec, seed))
		}
		avg, sum, cnt := run("AVG(v)"), run("SUM(v)"), run("COUNT(*)")
		for j, want := range goldens[i : i+5] {
			label := fmt.Sprintf("precision %v seed %d group %q", prec, seed, want.group)
			exact := want.group == "tiny"
			for _, c := range []struct {
				agg   string
				got   engine.GroupResult
				value float64
				hw    float64
			}{
				{"AVG", avg[j], want.avg, prec},
				{"SUM", sum[j], want.sum, prec * float64(want.rows)},
			} {
				got := c.got
				if got.Group != want.group || got.Rows != want.rows || got.Exact != exact ||
					!same(got.Value, c.value) {
					t.Errorf("%s %s = %+v, want %v", label, c.agg, got, c.value)
					continue
				}
				switch {
				case exact && (got.CI != nil || got.Samples != 0):
					t.Errorf("%s %s: exact group carries CI %v / %d samples", label, c.agg, got.CI, got.Samples)
				case !exact && (got.Samples != want.samples || got.CI == nil || got.CI.Center != got.Value ||
					got.CI.HalfWidth != c.hw || got.CI.Confidence != 0.95):
					t.Errorf("%s %s: samples %d CI %v, want %d ±%v", label, c.agg, got.Samples, got.CI, want.samples, c.hw)
				}
			}
			if c := cnt[j]; c.Group != want.group || c.Value != float64(want.rows) || !c.Exact || c.CI != nil {
				t.Errorf("%s COUNT = %+v", label, c)
			}
		}
	}
}

// TestManifestRoundTripEquivalence: a grouped table written to partitioned
// ISLB files and reopened (pread and mmap) answers bit-identically to the
// in-memory Build over the same rows, group by group.
func TestManifestRoundTripEquivalence(t *testing.T) {
	rows, _ := fixtureRows()
	mem, err := group.BuildColumn("", rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	man, err := group.WriteFiles(t.TempDir(), "region", rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT AVG(v) FROM t GROUP BY region WITH PRECISION 1 SEED 17"
	want := groupBy(t, mem, sql)
	for _, mode := range []block.OpenMode{block.ModePread, block.ModeMmap} {
		g, err := group.OpenManifest(man, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if g.Column() != "region" {
			t.Fatalf("%v: column = %q", mode, g.Column())
		}
		got := groupBy(t, g, sql)
		for i := range want {
			if got[i].Group != want[i].Group || got[i].Samples != want[i].Samples ||
				got[i].Rows != want[i].Rows || got[i].Exact != want[i].Exact {
				t.Errorf("%v group %q: %+v != mem %+v", mode, want[i].Group, got[i], want[i])
				continue
			}
			if got[i].Exact {
				// Exact groups answer from persisted summaries on file
				// stores and a Welford scan in memory: same mean up to
				// accumulation order (last-ulp), not bit-identical.
				if math.Abs(got[i].Value-want[i].Value) > 1e-12*math.Abs(want[i].Value) {
					t.Errorf("%v group %q: exact %v != mem %v", mode, want[i].Group, got[i].Value, want[i].Value)
				}
			} else if got[i].Value != want[i].Value || *got[i].CI != *want[i].CI {
				t.Errorf("%v group %q: sampled %v != mem %v (must be bit-identical)", mode, want[i].Group, got[i].Value, want[i].Value)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatalf("%v: close: %v", mode, err)
		}
	}
}
