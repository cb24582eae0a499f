package isla

import (
	"context"
	"fmt"
	"math"
	"testing"

	"isla/internal/core"
	"isla/internal/stats"
)

// groupedBattery is one workload of the grouped-equivalence battery: three
// groups of the same distribution family with shifted locations, plus the
// filter threshold used for the WHERE checks (chosen so every group keeps
// a healthy acceptance fraction).
type groupedBattery struct {
	name      string
	dists     map[string]stats.Dist
	precision float64
	threshold float64
	// ciMult is the CI slack multiplier for the filtered checks: 3 for
	// the well-behaved workloads; wider for the outlier mixture, whose
	// sample σ undercovers when few of the 1% outliers land in the draw
	// (low estimate and narrow CI are correlated there).
	ciMult float64
}

func batteryWorkloads() []groupedBattery {
	outlier := func(mu float64) stats.Dist {
		return stats.NewMixture(
			stats.Component{Weight: 0.99, Dist: stats.Normal{Mu: mu, Sigma: 20}},
			stats.Component{Weight: 0.01, Dist: stats.Normal{Mu: 1000, Sigma: 50}},
		)
	}
	return []groupedBattery{
		{
			name: "normal",
			dists: map[string]stats.Dist{
				"a": stats.Normal{Mu: 100, Sigma: 20},
				"b": stats.Normal{Mu: 120, Sigma: 20},
				"c": stats.Normal{Mu: 140, Sigma: 20},
			},
			precision: 1.0,
			threshold: 110,
			ciMult:    3,
		},
		{
			name: "lognormal",
			dists: map[string]stats.Dist{
				"a": stats.LogNormal{Mu: 2.8, Sigma: 0.5},
				"b": stats.LogNormal{Mu: 3.0, Sigma: 0.5},
				"c": stats.LogNormal{Mu: 3.2, Sigma: 0.5},
			},
			precision: 2.0,
			threshold: 15,
			ciMult:    3,
		},
		{
			name: "outliers",
			dists: map[string]stats.Dist{
				"a": outlier(100),
				"b": outlier(140),
				"c": outlier(180),
			},
			precision: 8.0,
			threshold: 120,
			ciMult:    6,
		},
	}
}

// batteryRows materializes one battery workload: 40k rows per group, well
// above the exact-group fallback, so every group is sampled and the
// bit-identity contract applies everywhere.
func batteryRows(w groupedBattery, seed uint64) []GroupRow {
	r := stats.NewRNG(seed)
	const perGroup = 40_000
	rows := make([]GroupRow, 0, 3*perGroup)
	for _, key := range []string{"a", "b", "c"} {
		d := w.dists[key]
		for i := 0; i < perGroup; i++ {
			rows = append(rows, GroupRow{Group: key, Value: d.Sample(r)})
		}
	}
	return rows
}

// TestGroupedEquivalenceBattery is the end-to-end grouped contract: for
// seeds × storage modes {mem, pread, mmap} × workers {1, 4}, every
// group's engine answer must be bit-identical to running plain Estimate
// on that group's store in isolation with the same configuration — the
// grouped path adds no statistical machinery of its own — and identical
// across storage modes and worker counts.
func TestGroupedEquivalenceBattery(t *testing.T) {
	for _, w := range batteryWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rows := batteryRows(w, 77)
			man, err := WriteGroupFiles(t.TempDir(), "g", rows, 6)
			if err != nil {
				t.Fatal(err)
			}
			memStore, err := BuildGroups("g", rows, 6)
			if err != nil {
				t.Fatal(err)
			}
			stores := map[string]*GroupStore{"mem": memStore}
			for label, mode := range map[string]OpenMode{"pread": ModePread, "mmap": ModeMmap} {
				g, err := OpenGroupManifest(man, mode)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				stores[label] = g
			}

			for _, seed := range []uint64{3, 17} {
				sql := fmt.Sprintf("SELECT AVG(v) FROM t GROUP BY g WITH PRECISION %g SEED %d", w.precision, seed)
				// reference[group] is the first answer seen; every other
				// mode × worker combination must reproduce it exactly.
				reference := map[string]QueryResult{}
				for _, label := range []string{"mem", "pread", "mmap"} {
					for _, workers := range []int{1, 4} {
						db := NewDB()
						db.RegisterGrouped("t", stores[label])
						db.SetWorkers(workers)
						res, err := db.Query(sql)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, workers, err)
						}
						if len(res.Groups) != 3 {
							t.Fatalf("%s: groups = %+v", label, res.Groups)
						}
						for _, gr := range res.Groups {
							if gr.Err != "" {
								t.Fatalf("%s group %s: %s", label, gr.Group, gr.Err)
							}
							if gr.Exact {
								t.Fatalf("%s group %s unexpectedly exact (battery needs sampled groups)", label, gr.Group)
							}
						}
						key := fmt.Sprintf("%s/w%d", label, workers)
						if base, ok := reference["_"]; ok {
							for i, gr := range res.Groups {
								bg := base.Groups[i]
								if gr.Value != bg.Value || gr.Samples != bg.Samples {
									t.Errorf("seed %d %s group %s: %v/%d != reference %v/%d",
										seed, key, gr.Group, gr.Value, gr.Samples, bg.Value, bg.Samples)
								}
							}
						} else {
							reference["_"] = res
						}

						// Isolation check once per worker count on the mem
						// store: the grouped answer is exactly plain Estimate
						// on the group's own store.
						if label == "mem" {
							cfg := DefaultConfig()
							cfg.Precision = w.precision
							cfg.Seed = seed
							cfg.Workers = workers
							for _, gr := range res.Groups {
								s, err := stores[label].Group(gr.Group)
								if err != nil {
									t.Fatal(err)
								}
								want, err := Estimate(context.Background(), s, cfg)
								if err != nil {
									t.Fatal(err)
								}
								if gr.Value != want.Estimate || gr.Samples != want.TotalSamples {
									t.Errorf("seed %d workers=%d group %s: engine %v/%d != isolated %v/%d",
										seed, workers, gr.Group, gr.Value, gr.Samples,
										want.Estimate, want.TotalSamples)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestFilteredEquivalenceBattery checks WHERE answers against exact
// filtered scans across the three battery workloads and all storage
// modes: the estimated conditional mean must land within a tripled CI of
// the exact filtered mean, and the filtered answers themselves must be
// bit-identical across modes and worker counts. The reference is the
// summary-less in-memory store, which never prunes, so the file stores —
// whose summary footers let zone maps prune — must reproduce its answer bits:
// pruning is purely physical.
func TestFilteredEquivalenceBattery(t *testing.T) {
	for _, w := range batteryWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rows := batteryRows(w, 99)
			man, err := WriteGroupFiles(t.TempDir(), "g", rows, 6)
			if err != nil {
				t.Fatal(err)
			}
			memStore, err := BuildGroups("g", rows, 6)
			if err != nil {
				t.Fatal(err)
			}
			pred := func(v float64) bool { return v > w.threshold }
			sql := fmt.Sprintf("SELECT AVG(v) FROM t WHERE v > %g GROUP BY g WITH PRECISION %g SEED 5",
				w.threshold, w.precision)

			var base QueryResult
			first := true
			check := func(label string, g *GroupStore, workers int) {
				db := NewDB()
				db.RegisterGrouped("t", g)
				db.SetWorkers(workers)
				res, err := db.Query(sql)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, gr := range res.Groups {
					if gr.Err != "" {
						t.Fatalf("%s group %s: %s", label, gr.Group, gr.Err)
					}
					s, err := g.Group(gr.Group)
					if err != nil {
						t.Fatal(err)
					}
					n, sum, err := core.ExactFiltered(s, pred)
					if err != nil {
						t.Fatal(err)
					}
					exact := sum / float64(n)
					if gr.CI == nil || math.Abs(gr.Value-exact) > w.ciMult*gr.CI.HalfWidth {
						t.Errorf("%s group %s: filtered %v vs exact %v (±%v)",
							label, gr.Group, gr.Value, exact, ciHalf(gr.CI))
					}
					if gr.Filter == nil || gr.Filter.Accepted == 0 {
						t.Errorf("%s group %s: filter info %+v", label, gr.Group, gr.Filter)
					}
				}
				if first {
					for _, gr := range res.Groups {
						if gr.Filter.PrunedBlocks != 0 {
							t.Fatalf("%s group %s: the summary-less reference pruned: %+v", label, gr.Group, gr.Filter)
						}
					}
					base = res
					first = false
					return
				}
				for i, gr := range res.Groups {
					bg := base.Groups[i]
					if gr.Value != bg.Value || gr.Samples != bg.Samples || ciHalf(gr.CI) != ciHalf(bg.CI) ||
						gr.Filter.Accepted != bg.Filter.Accepted {
						t.Errorf("%s group %s: %v/%d/±%v != reference %v/%d/±%v",
							label, gr.Group, gr.Value, gr.Samples, ciHalf(gr.CI), bg.Value, bg.Samples, ciHalf(bg.CI))
					}
				}
			}

			check("mem/w1", memStore, 1)
			check("mem/w4", memStore, 4)
			for label, mode := range map[string]OpenMode{"pread": ModePread, "mmap": ModeMmap} {
				g, err := OpenGroupManifest(man, mode)
				if err != nil {
					t.Fatal(err)
				}
				check(label+"/w1", g, 1)
				check(label+"/w4", g, 4)
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func ciHalf(ci *stats.ConfidenceInterval) float64 {
	if ci == nil {
		return 0
	}
	return ci.HalfWidth
}
