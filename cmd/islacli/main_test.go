package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"isla"
	"isla/internal/block"
	"isla/internal/engine"
	"isla/internal/tableflags"
	"isla/internal/workload"
)

// startWorkers serves a normal(100, 20) table of 400 000 rows in 4 blocks
// over two in-process workers, two blocks each, and returns their addresses
// with the shard manifest that describes the same layout by hand.
func startWorkers(t *testing.T) (addrs string, man *isla.ShardManifest) {
	t.Helper()
	s, _, err := workload.Normal(100, 20, 400000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Blocks()
	man = &isla.ShardManifest{Version: 1}
	var list []string
	for w := 0; w < 2; w++ {
		own := blocks[2*w : 2*w+2]
		l, err := isla.NewWorker(own...).ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		e := isla.ShardEntry{Addr: l.Addr().String()}
		for _, b := range own {
			e.Blocks = append(e.Blocks, b.ID())
			e.Lens = append(e.Lens, b.Len())
		}
		man.Shards = append(man.Shards, e)
		list = append(list, e.Addr)
	}
	return strings.Join(list, ", "), man
}

// load parses args as islacli's table flags and returns the engine they
// load.
func load(t *testing.T, args ...string) *engine.Engine {
	t.Helper()
	fs := flag.NewFlagSet("islacli", flag.ContinueOnError)
	tables := tableflags.Register(fs, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	eng, release, err := tables.Engine()
	t.Cleanup(release)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// answer parses the "AGG = value  (±halfwidth at …" head of a printed
// result; an exact answer prints no interval and leaves halfWidth zero.
func answer(t *testing.T, out string) (value, halfWidth float64) {
	t.Helper()
	var agg string
	if n, err := fmt.Sscanf(out, "%s = %f  (±%f", &agg, &value, &halfWidth); n < 2 {
		t.Fatalf("unparseable output %q: %v", out, err)
	}
	return value, halfWidth
}

// TestClusterAnswersTheStatement: a -cluster table runs the whole statement
// through the engine — filter, aggregate, method — not just its precision
// and seed.
func TestClusterAnswersTheStatement(t *testing.T) {
	addrs, _ := startWorkers(t)
	eng := load(t, "-cluster", "t="+addrs)
	query := func(sql string) (string, error) {
		var out bytes.Buffer
		err := run(&out, eng, sql)
		return out.String(), err
	}

	out, err := query("SELECT AVG(v) FROM t WHERE v > 120 WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := answer(t, out); v <= 120 || v > 135 {
		t.Errorf("filtered AVG printed %v, want the mean above 120 (≈127.5): %s", v, out)
	}

	out, err = query("SELECT COUNT(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := answer(t, out); v != 400000 {
		t.Errorf("COUNT printed %v, want 400000: %s", v, out)
	}

	out, err = query("SELECT SUM(v) FROM t WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	if v, hw := answer(t, out); v < 39e6 || v > 41e6 || hw != 0.5*400000 {
		t.Errorf("SUM printed %v ±%v, want ≈4e7 ±200000 (the AVG half-width scaled by the rows): %s", v, hw, out)
	}

	if out, err = query("SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.5"); err == nil {
		t.Errorf("GROUP BY on an ungrouped cluster printed an answer: %s", out)
	}
	if out, err = query("SELECT AVG(v) FROM t METHOD EXACT"); !errors.Is(err, engine.ErrShardUnsupported) {
		t.Errorf("METHOD EXACT = %q, %v; want ErrShardUnsupported", out, err)
	}
}

// TestClusterMatchesShards: -cluster and -shards over the same workers are
// the same table, so the same seed prints the same value; loaded beside a
// -gen table in one engine, each name answers its own table.
func TestClusterMatchesShards(t *testing.T) {
	addrs, man := startWorkers(t)
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	eng := load(t, "-shards", "s="+path, "-cluster", "c="+addrs, "-gen", "g=normal:mu=5,n=1000,blocks=2")
	if got := strings.Join(eng.Catalog.Names(), ","); got != "c,g,s" {
		t.Fatalf("tables = %s, want c,g,s", got)
	}
	printed := func(sql string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, eng, sql); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	for _, sql := range []string{
		"SELECT AVG(v) FROM %s WITH PRECISION 0.5 SEED 9",
		"SELECT SUM(v) FROM %s WHERE v > 80 AND v < 120 WITH PRECISION 0.5 SEED 9",
	} {
		shards, viaCluster := printed(fmt.Sprintf(sql, "s")), printed(fmt.Sprintf(sql, "c"))
		sv, shw := answer(t, shards)
		cv, chw := answer(t, viaCluster)
		if sv != cv || shw != chw {
			t.Errorf("%s:\n -shards  %s -cluster %s", sql, shards, viaCluster)
		}
	}
	for table, rows := range map[string]string{"s": "rows=400000", "c": "rows=400000", "g": "rows=1000"} {
		out := printed("SELECT COUNT(v) FROM " + table)
		if !strings.Contains(out, rows) {
			t.Errorf("COUNT over %s printed %q, want %s", table, out, rows)
		}
	}
	if v, _ := answer(t, printed("SELECT AVG(v) FROM g WITH PRECISION 1 SEED 1")); v < 3 || v > 7 {
		t.Errorf("-gen table g beside the sharded ones averaged %v, want ≈5", v)
	}
}

// TestCacheStateInvariance: islacli's engine carries no plan cache and
// islaserv's does; the same statement prints the same answer from either,
// cold or warm. Only the wall time may differ.
func TestCacheStateInvariance(t *testing.T) {
	fs := flag.NewFlagSet("islacli", flag.ContinueOnError)
	tables := tableflags.Register(fs, 0)
	if err := fs.Parse([]string{"-gen", "sales=normal:mu=100,sigma=20,n=1000000,blocks=10"}); err != nil {
		t.Fatal(err)
	}
	eng, release, err := tables.Engine()
	defer release()
	if err != nil {
		t.Fatal(err)
	}
	wallTime := regexp.MustCompile(`time=[^\]]*\]`)
	printed := func(sql string) string {
		var out bytes.Buffer
		if err := run(&out, eng, sql); err != nil {
			t.Fatal(err)
		}
		return wallTime.ReplaceAllString(out.String(), "]")
	}
	for _, sql := range []string{
		"SELECT AVG(v) FROM sales WITH PRECISION 0.1 SEED 3",
		"SELECT SUM(v) FROM sales WITH PRECISION 0.5 SEED 4",
		"SELECT AVG(v) FROM sales WHERE v > 110 WITH PRECISION 0.5 SEED 3",
	} {
		eng.DisablePlanCache()
		off := printed(sql)
		eng.EnablePlanCache(0)
		if cold, warm := printed(sql), printed(sql); cold != off || warm != off {
			t.Errorf("%s:\n cache off %s cold      %s warm      %s", sql, off, cold, warm)
		}
	}
}

// TestPrintedAnswer: the table line and a group line print through one
// function — an exact ungrouped answer says (exact) the way a small group
// does, and a degraded answer names the blocks it could not reach and the
// rows it covers.
func TestPrintedAnswer(t *testing.T) {
	data := make([]float64, 800)
	for i := range data {
		data[i] = float64(i % 100)
	}
	s := block.Partition(data, 4)
	g, err := isla.BuildGroups("region", []isla.GroupRow{{Group: "a", Value: 1}, {Group: "a", Value: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.NewCatalog())
	eng.Catalog.Register("t", s)
	eng.Catalog.RegisterGrouped("g", g)
	printed := func(sql string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, eng, sql); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for sql, want := range map[string]string{
		"SELECT AVG(v) FROM t METHOD EXACT":                              "AVG = 49.500000  (exact)  [",
		"SELECT AVG(v) FROM g GROUP BY region WITH PRECISION 0.5 SEED 1": `  "a"              = 2.000000  (exact)  [rows=2 samples=0]`,
	} {
		if out := printed(sql); !strings.Contains(out, want) {
			t.Errorf("%s printed %q, want %q", sql, out, want)
		}
	}

	s.Quarantine(1)
	eng.SetAllowPartial(true)
	const note = "PARTIAL (blocks [1] unavailable; covers 600 of 800 rows)"
	if out := printed("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3"); !strings.Contains(out, note) {
		t.Errorf("degraded answer printed %q, want %q", out, note)
	}
}
