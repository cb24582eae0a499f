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
// without a plan cache, and fails the test on any error, per group
// included.
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

// TestAggregateSUMAndCOUNT holds the engine's GROUP BY answers on
// fixtureRows built with 7 blocks per group, for every precision × seed below
// and AVG, SUM and COUNT. They were first captured from group.Aggregate at
// commit a539d12 — its last commit — and re-captured from the engine when
// every unfiltered query, cache or not, moved onto the frozen per-block
// pipeline (the 500-row "tiny" group, scanned exactly, never moved), and
// once more, for the 14 sampled rows whose printed value moved, when the
// summarization's certificate replaced its all-or-nothing guard (samples and
// CIs did not move), for the 11 rows whose last bits moved when the
// pilot's moments became shifted power sums (samples did not move), and for
// the 9 rows whose last bits moved when Algorithm 2's region masses came
// from the upper tails and its inversions became a bracketed search
// (samples did not move), by a
// throwaway test printing, per group,
//
//	engine GROUP BY: Value, Rows, Samples (|group| on the exact group)
//
// with `go test -run TestCaptureGoldens -v ./internal/group/` on amd64 (%v
// rounds float64 exactly). The engine's GROUP BY must reproduce every Value,
// Exact, Rows and the whole CI bit for bit; Samples too, except on the exact
// group, where the table records the scanned rows and the engine reports
// zero. Off amd64 the estimator's math.Log/math.Exp (pure Go on 386) and
// fused multiply-adds may move a sampled answer's last bits, so there values
// agree to a few ulps and sample counts stay exact.
func TestAggregateSUMAndCOUNT(t *testing.T) {
	goldens := []struct {
		prec     float64
		seed     uint64
		group    string
		rows     int64
		samples  int64 // |group| on the exact group
		avg, sum float64
	}{
		{0.5, 3, "", 60000, 3353, 70.3521994375842, 4.221131966255052e+06},
		{0.5, 3, "east", 120000, 6201, 100.24337641618527, 1.2029205169942232e+07},
		{0.5, 3, "north", 60000, 25207, 199.90041450982955, 1.1994024870589772e+07},
		{0.5, 3, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 3, "west", 80000, 1519, 49.81876229521228, 3.9855009836169826e+06},
		{0.5, 7, "", 60000, 3528, 69.67910975056675, 4.1807465850340053e+06},
		{0.5, 7, "east", 120000, 6027, 100.11890250209744, 1.2014268300251693e+07},
		{0.5, 7, "north", 60000, 25193, 199.98152295696352, 1.199889137741781e+07},
		{0.5, 7, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 7, "west", 80000, 1512, 49.8433243705769, 3.987465949646152e+06},
		{0.5, 17, "", 60000, 3626, 69.7779056164869, 4.186674336989214e+06},
		{0.5, 17, "east", 120000, 6097, 99.9241339041393, 1.1990896068496715e+07},
		{0.5, 17, "north", 60000, 25242, 199.8262206274525, 1.198957323764715e+07},
		{0.5, 17, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{0.5, 17, "west", 80000, 1533, 50.00535993459115, 4.0004287947672918e+06},
		{1, 3, "", 60000, 836, 70.8212114411178, 4.249272686467067e+06},
		{1, 3, "east", 120000, 1547, 99.76167402232417, 1.19714008826789e+07},
		{1, 3, "north", 60000, 6300, 199.69139277287576, 1.1981483566372545e+07},
		{1, 3, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 3, "west", 80000, 378, 49.45103982601648, 3.9560831860813187e+06},
		{1, 7, "", 60000, 882, 69.35275384305726, 4.1611652305834354e+06},
		{1, 7, "east", 120000, 1505, 99.54691312261394, 1.1945629574713673e+07},
		{1, 7, "north", 60000, 6296, 199.97151389243186, 1.1998290833545912e+07},
		{1, 7, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 7, "west", 80000, 378, 49.71536913479118, 3.9772295307832947e+06},
		{1, 17, "", 60000, 903, 69.73509788436137, 4.184105873061682e+06},
		{1, 17, "east", 120000, 1525, 99.49010214432002, 1.1938812257318402e+07},
		{1, 17, "north", 60000, 6307, 199.91804868470365, 1.199508292108222e+07},
		{1, 17, "tiny", 500, 500, 9.921981845054487, 4960.990922527244},
		{1, 17, "west", 80000, 378, 50.31271948515066, 4.0250175588120525e+06},
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
				// stores and a moments scan in memory: same mean up to
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
