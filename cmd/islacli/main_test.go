package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"isla"
	"isla/internal/cluster"
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

// TestClusterAnswersTheStatement: -cluster runs the whole statement through
// the engine — filter, aggregate, method — not just its precision and seed.
func TestClusterAnswersTheStatement(t *testing.T) {
	addrs, _ := startWorkers(t)
	query := func(sql string) (string, error) {
		var out bytes.Buffer
		err := runCluster(&out, addrs, sql, cluster.Config{})
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
// the same table, so the same seed prints the same value.
func TestClusterMatchesShards(t *testing.T) {
	addrs, man := startWorkers(t)
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("islacli", flag.ContinueOnError)
	tables := tableflags.Register(fs, 0)
	if err := fs.Parse([]string{"-shards", "t=" + path}); err != nil {
		t.Fatal(err)
	}
	db, release, err := tables.Engine(cluster.Config{})
	defer release()
	if err != nil {
		t.Fatal(err)
	}

	for _, sql := range []string{
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 9",
		"SELECT SUM(v) FROM t WHERE v > 80 AND v < 120 WITH PRECISION 0.5 SEED 9",
	} {
		var shards, viaCluster bytes.Buffer
		if err := run(&shards, db, sql); err != nil {
			t.Fatal(err)
		}
		if err := runCluster(&viaCluster, addrs, sql, cluster.Config{}); err != nil {
			t.Fatal(err)
		}
		sv, shw := answer(t, shards.String())
		cv, chw := answer(t, viaCluster.String())
		if sv != cv || shw != chw {
			t.Errorf("%s:\n -shards  %s -cluster %s", sql, shards.String(), viaCluster.String())
		}
	}
}
