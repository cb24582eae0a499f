// Cluster: the paper's §VII-E deployment over real sockets. Three worker
// "machines" (in-process here, but speaking net/rpc over TCP loopback —
// the same code path as separate hosts) each own a share of the blocks and
// together serve one sharded table: every phase of the query — the pilot,
// then the calculation with the frozen boundaries — goes to each worker as
// one RPC, and only the O(1) per-region power sums per block come back.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"isla"
	"isla/internal/stats"
)

func main() {
	// 1.2M rows ~ N(100, 20²) in 12 blocks, 4 blocks per worker.
	r := stats.NewRNG(21)
	d := stats.Normal{Mu: 100, Sigma: 20}
	values := make([]float64, 1_200_000)
	for i := range values {
		values[i] = d.Sample(r)
	}
	store := isla.Partition(values, 12)
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
		fmt.Printf("worker %d serving blocks %d–%d on %s\n", w, w*4, w*4+3, l.Addr())
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
	fmt.Printf("\ncluster AVG: %.4f (±%.2f at %.0f%%)   exact: %.4f   error: %.4f\n",
		res.Value, res.CI.HalfWidth, res.CI.Confidence*100, exact, abs(res.Value-exact))
	fmt.Printf("samples: %d of %d rows; per-block wire payload: 8 numbers + counts\n",
		res.Samples, res.Rows)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
