// Groupby: approximate GROUP BY AVG (the §VII-D extension). Sales rows are
// keyed by region and registered as a grouped table; one SQL statement runs
// ISLA on each large group with the shared precision target while groups of
// at most 2 000 rows are scanned exactly — the estimator's overhead never
// exceeds the cost of just reading a small group.
//
//	go run ./examples/groupby
package main

import (
	"fmt"
	"log"

	"isla"
	"isla/internal/stats"
)

func main() {
	r := stats.NewRNG(9)
	regions := []struct {
		name      string
		mu, sigma float64
		rows      int
	}{
		{"north", 120, 25, 800_000},
		{"south", 95, 18, 600_000},
		{"east", 140, 30, 400_000},
		{"west", 80, 12, 500_000},
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

	fmt.Println("region  rows     estimate   exact      abs err   mode      samples")
	for _, gr := range res.Groups {
		if gr.Err != "" {
			log.Fatalf("group %s: %s", gr.Group, gr.Err)
		}
		mode := "sampled"
		if gr.Exact {
			mode = "exact"
		}
		fmt.Printf("%-6s  %7d  %9.4f  %9.4f  %8.4f  %-8s  %d\n",
			gr.Group, gr.Rows, gr.Value, truth[gr.Group],
			abs(gr.Value-truth[gr.Group]), mode, gr.Samples)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
