package bench

import (
	"encoding/json"
	"io"
	"time"

	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/online"
	"isla/internal/timebound"
	"isla/internal/workload"
)

// ModeStat is one execution mode's headline numbers, in a shape stable
// enough to diff across commits (BENCH_*.json trajectory files).
type ModeStat struct {
	Mode         string  `json:"mode"`
	WallMS       float64 `json:"wall_ms"`
	TotalSamples int64   `json:"total_samples"`
	Estimate     float64 `json:"estimate"`
}

// ModesReport is the machine-readable benchmark envelope.
type ModesReport struct {
	N      int        `json:"n"`
	Blocks int        `json:"blocks"`
	Seed   uint64     `json:"seed"`
	Truth  float64    `json:"truth"`
	Modes  []ModeStat `json:"modes"`
	// Sampling is the scalar-vs-batched hot-path microbenchmark
	// (ns/sample per storage layout); see Sampling.
	Sampling []SamplingStat `json:"sampling"`
	// PlanCache is the cold-vs-warm pilot-plan cache comparison; see
	// PlanCache.
	PlanCache []PlanCacheStat `json:"plan_cache"`
	// Grouped is the cold-vs-warm per-group plan cache comparison for a
	// GROUP BY query; see Grouped.
	Grouped []GroupedStat `json:"grouped"`
	// Filtered is the post-gather-vs-fused filtered sampling sweep across
	// storage layouts and selectivities; see Filtered.
	Filtered []FilteredStat `json:"filtered"`
	// Pruning is the zone-map pruning on/off comparison on
	// range-partitioned block files; see Pruning.
	Pruning []PruningStat `json:"pruning"`
	// Serving is the HTTP front end under mixed open-loop load
	// (client-observed latency and outcome counts per traffic class); see
	// Serving.
	Serving []ServingStat `json:"serving"`
	// Cluster is the sharded scatter/gather comparison: one pushed-down
	// filtered query timed local vs 1/2/4 shards with bit-identity
	// checked per topology; see Cluster.
	Cluster []ClusterStat `json:"cluster"`
}

// Modes runs all five execution modes — batch, parallel, online,
// time-bounded and cluster — on one synthetic normal workload and reports
// per-mode wall time and total calculation samples.
func Modes(o Options) (*ModesReport, error) {
	o = o.Defaults()
	s, truth, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed + 5000
	rep := &ModesReport{N: o.N, Blocks: o.Blocks, Seed: o.Seed, Truth: truth}

	record := func(mode string, start time.Time, samples int64, estimate float64) {
		rep.Modes = append(rep.Modes, ModeStat{
			Mode:         mode,
			WallMS:       float64(time.Since(start).Microseconds()) / 1000,
			TotalSamples: samples,
			Estimate:     estimate,
		})
	}

	start := time.Now()
	batch, err := core.Estimate(s, cfg)
	if err != nil {
		return nil, err
	}
	record("batch", start, batch.TotalSamples, batch.Estimate)

	start = time.Now()
	parCfg := cfg
	parCfg.Workers = -1 // one worker per CPU
	par, err := core.Estimate(s, parCfg)
	if err != nil {
		return nil, err
	}
	record("parallel", start, par.TotalSamples, par.Estimate)

	start = time.Now()
	sess, err := online.NewSession(s, cfg)
	if err != nil {
		return nil, err
	}
	var snap online.Snapshot
	for i := 0; i < 3; i++ {
		if snap, err = sess.Refine(1); err != nil {
			return nil, err
		}
	}
	record("online", start, sess.TotalSamples(), snap.Result.Estimate)

	start = time.Now()
	tb, err := timebound.Estimate(s, cfg, 200*time.Millisecond, timebound.Options{})
	if err != nil {
		return nil, err
	}
	record("timebound", start, tb.TotalSamples, tb.Estimate)

	// Cluster mode: an in-process worker over loopback TCP, so the RPC
	// serialization cost is included in the wall time.
	start = time.Now()
	w := cluster.NewWorker(s.Blocks()...)
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	coord := cluster.NewCoordinator(cfg)
	if err := coord.Connect(l.Addr().String()); err != nil {
		return nil, err
	}
	defer coord.Close()
	clu, err := coord.Run()
	if err != nil {
		return nil, err
	}
	record("cluster", start, clu.TotalSamples, clu.Estimate)

	rep.Sampling, err = Sampling(o)
	if err != nil {
		return nil, err
	}
	rep.PlanCache, err = PlanCache(o)
	if err != nil {
		return nil, err
	}
	rep.Grouped, err = Grouped(o)
	if err != nil {
		return nil, err
	}
	rep.Filtered, err = Filtered(o)
	if err != nil {
		return nil, err
	}
	rep.Pruning, err = Pruning(o)
	if err != nil {
		return nil, err
	}
	rep.Serving, err = Serving(o)
	if err != nil {
		return nil, err
	}
	rep.Cluster, err = Cluster(o)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *ModesReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
