// Package bench reproduces the paper: one function per table/figure of its
// evaluation (Section VIII), each regenerating the same rows or series the
// paper reports, on synthetic data scaled to fit a laptop. The cmd/islarepro
// binary and the repository-root benchmarks are thin wrappers around these
// functions; EXPERIMENTS.md records paper-vs-measured values. It measures no
// performance — that is ./benchmark's job, and nothing else's.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string   // experiment id, e.g. "table3" or "fig6a"
	Title   string   // human-readable title
	Columns []string // header
	Rows    [][]string
	Notes   string // caveats, e.g. scale substitutions
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n", t.Title, t.ID)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Options scales the experiments.
type Options struct {
	// N is the dataset size for the single-dataset experiments (paper:
	// 10¹⁰; default here 10⁶ — the sample size depends only on σ, e, β, so
	// accuracy results are unaffected; see DESIGN.md).
	N int
	// Blocks is the block count (paper default 10).
	Blocks int
	// Seed drives all data generation and sampling.
	Seed uint64
	// Runs is the repetition count for timing experiments.
	Runs int
}

// Defaults fills zero fields.
func (o Options) Defaults() Options {
	if o.N == 0 {
		o.N = 1_000_000
	}
	if o.Blocks == 0 {
		o.Blocks = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 5
	}
	return o
}

// f formats a float at 4 decimals, the paper's table style.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats a float at 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }

// Registry maps experiment ids to runners; used by cmd/islarepro.
var Registry = map[string]func(Options) (*Table, error){
	"datasize":        DataSize,
	"fig6a":           Fig6aPrecision,
	"fig6b":           Fig6bConfidence,
	"fig6c":           Fig6cBlocks,
	"fig6d":           Fig6dBoundaries,
	"table3":          Table3Accuracy,
	"table4":          Table4Modulation,
	"table5":          Table5Sampling,
	"table6":          Table6Exponential,
	"table7":          Table7Uniform,
	"noniid":          NonIID,
	"efficiency":      Efficiency,
	"salary":          Salary,
	"tlc":             TLC,
	"ablation-alpha":  AblationFixedAlpha,
	"ablation-q":      AblationQ,
	"ablation-lambda": AblationLambda,
	"ablation-eta":    AblationEta,
	"extreme":         Extreme,
	"slev":            SLEVComparison,
}

// IDs returns the registered experiment ids in a stable order.
func IDs() []string {
	return []string{
		"datasize", "fig6a", "fig6b", "fig6c", "fig6d",
		"table3", "table4", "table5", "table6", "table7",
		"noniid", "efficiency", "salary", "tlc",
		"ablation-alpha", "ablation-q", "ablation-lambda", "ablation-eta",
		"extreme", "slev",
	}
}
