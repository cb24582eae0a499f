// Package metrics is the serving observability layer: lock-cheap
// streaming latency histograms, counters and windowed rate estimators,
// recorded per table and per query class inside the engine and rendered
// in the Prometheus text exposition format by the HTTP front end.
//
// Everything on the record path is a handful of atomic operations — no
// locks, no allocation — so instrumenting the query hot path costs
// nanoseconds even under heavy concurrent traffic. Reads (quantiles,
// rates, rendering) walk the same atomics and tolerate being slightly
// torn against in-flight writers; serving dashboards do not need a
// consistent cut.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class buckets queries by execution shape: the latency profile of a
// cached point lookup, a rejection-sampled WHERE, a per-group fan-out and
// a wall-clock-budgeted run are different enough that one histogram per
// table would hide all of them.
type Class int

// Query classes, in rendering order.
const (
	ClassPoint Class = iota // unfiltered, ungrouped, precision-target
	ClassFiltered
	ClassGrouped
	ClassTimebound // WITH TIME / budget_ms
	NumClasses
)

// String returns the label value used in the exposition format.
func (c Class) String() string {
	switch c {
	case ClassPoint:
		return "point"
	case ClassFiltered:
		return "filtered"
	case ClassGrouped:
		return "grouped"
	case ClassTimebound:
		return "timebound"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists every class in rendering order.
func Classes() []Class {
	return []Class{ClassPoint, ClassFiltered, ClassGrouped, ClassTimebound}
}

// histBuckets is the fixed log-spaced latency bucket count. Bounds run
// from 100µs by factors of √2, covering ~100µs to ~74s — the whole
// plausible range of an AQP query — at ~±20% resolution, which is all a
// p99 needs.
const histBuckets = 40

// bucketBounds holds the upper bound (in seconds) of each bucket,
// precomputed once. Observations above the last bound land in a final
// overflow bucket.
var bucketBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	for i := range b {
		b[i] = 100e-6 * math.Pow(math.Sqrt2, float64(i))
	}
	return b
}()

// Histogram is a fixed-bucket streaming latency histogram safe for
// concurrent observers: one atomic add per observation, quantiles read
// from the bucket counts with linear interpolation.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // +1: overflow
	nanos  atomic.Int64                  // total observed duration
}

// Observe tallies one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	// Binary search the precomputed bounds: first bucket whose upper
	// bound contains the observation.
	lo, hi := 0, histBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if sec <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.nanos.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// SumSeconds returns the total observed time in seconds.
func (h *Histogram) SumSeconds() float64 {
	return time.Duration(h.nanos.Load()).Seconds()
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in seconds, linearly
// interpolated within the containing bucket. It returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bucketBounds[i-1]
			}
			upper := lower
			if i < histBuckets {
				upper = bucketBounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	// Overflow bucket: report its lower bound — the histogram cannot
	// resolve further.
	return bucketBounds[histBuckets-1]
}

// Snapshot returns the cumulative bucket counts in Prometheus form: for
// each bound, the count of observations ≤ that bound, plus the +Inf
// total.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []int64, total int64) {
	bounds = bucketBounds[:]
	cumulative = make([]int64, histBuckets)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	total = cum + h.counts[histBuckets].Load()
	return bounds, cumulative, total
}

// rateSlots sizes the per-second ring; it must exceed the largest window
// queried (60s) and be a power of two so the index is a mask.
const rateSlots = 64

// RateWindow estimates recent event rates from a ring of per-second
// buckets: Add is two-to-three atomic ops, Rate sums the buckets inside
// the window. Slots recycle lazily, so a ring of 64 serves any window up
// to 63 seconds.
type RateWindow struct {
	secs   [rateSlots]atomic.Int64
	counts [rateSlots]atomic.Int64
}

// Add tallies one event at the given unix second.
func (w *RateWindow) Add(unixSec int64) {
	i := unixSec & (rateSlots - 1)
	if old := w.secs[i].Load(); old != unixSec {
		// First event of a new second in this slot: reset the stale
		// count. The CAS makes exactly one resetter win; an event raced
		// into the old second is the acceptable ±1 of a streaming
		// estimator.
		if w.secs[i].CompareAndSwap(old, unixSec) {
			w.counts[i].Store(0)
		}
	}
	w.counts[i].Add(1)
}

// Rate returns events/second over the window seconds ending at now
// (counting seconds now-window+1 … now, i.e. including the current,
// possibly partial, second).
func (w *RateWindow) Rate(now int64, window int64) float64 {
	if window <= 0 {
		return 0
	}
	if window > rateSlots-1 {
		window = rateSlots - 1
	}
	var total int64
	for i := range w.secs {
		sec := w.secs[i].Load()
		if sec > now-window && sec <= now {
			total += w.counts[i].Load()
		}
	}
	return float64(total) / float64(window)
}

// QueryStats is one (table, class) cell: counters plus the latency
// histogram. Fallback counts the queries that printed the summarization's
// certificate in place of ISLA's own answer, for the answer or any group's
// (engine.Answer.Fallback).
type QueryStats struct {
	Queries   atomic.Int64
	Samples   atomic.Int64
	Truncated atomic.Int64
	Fallback  atomic.Int64
	Latency   Histogram
}

// TableMetrics aggregates one table's cells and its windowed rate.
type TableMetrics struct {
	classes [NumClasses]QueryStats
	Window  RateWindow
}

// Class returns the stats cell for one query class.
func (t *TableMetrics) Class(c Class) *QueryStats {
	if c < 0 || c >= NumClasses {
		c = ClassPoint
	}
	return &t.classes[c]
}

// Totals sums the counters across classes.
func (t *TableMetrics) Totals() (queries, samples, truncated int64) {
	for i := range t.classes {
		queries += t.classes[i].Queries.Load()
		samples += t.classes[i].Samples.Load()
		truncated += t.classes[i].Truncated.Load()
	}
	return queries, samples, truncated
}

// Quantile returns the q-quantile of the table's latency across all
// classes, in seconds, by merging the per-class histograms.
func (t *TableMetrics) Quantile(q float64) float64 {
	var merged Histogram
	for c := range t.classes {
		for i := range t.classes[c].Latency.counts {
			merged.counts[i].Add(t.classes[c].Latency.counts[i].Load())
		}
	}
	return merged.Quantile(q)
}

// Registry is the top-level metric store: per-table cells plus the
// global rate window. The map is read-mostly (tables appear once and
// live forever), so lookups take an RLock and the hot path beyond it is
// atomic-only.
type Registry struct {
	mu     sync.RWMutex
	tables map[string]*TableMetrics
	window RateWindow
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tables: make(map[string]*TableMetrics)}
}

// Table returns (creating if needed) the named table's metrics.
func (r *Registry) Table(name string) *TableMetrics {
	r.mu.RLock()
	t, ok := r.tables[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.tables[name]; ok {
		return t
	}
	t = &TableMetrics{}
	r.tables[name] = t
	return t
}

// Tables returns the known table names, sorted.
func (r *Registry) Tables() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Observe records one completed query: latency histogram, counters and
// both rate windows.
func (r *Registry) Observe(table string, class Class, d time.Duration, samples int64, truncated, fallback bool) {
	t := r.Table(table)
	qs := t.Class(class)
	qs.Queries.Add(1)
	qs.Samples.Add(samples)
	if truncated {
		qs.Truncated.Add(1)
	}
	if fallback {
		qs.Fallback.Add(1)
	}
	qs.Latency.Observe(d)
	now := time.Now().Unix()
	t.Window.Add(now)
	r.window.Add(now)
}

// QPS returns the global completed-query rate over the trailing window.
func (r *Registry) QPS(window time.Duration) float64 {
	secs := int64(window / time.Second)
	if secs <= 0 {
		secs = 1
	}
	return r.window.Rate(time.Now().Unix(), secs)
}

// TableQPS returns one table's completed-query rate over the trailing
// window (0 for an unknown table).
func (r *Registry) TableQPS(table string, window time.Duration) float64 {
	r.mu.RLock()
	t, ok := r.tables[table]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	secs := int64(window / time.Second)
	if secs <= 0 {
		secs = 1
	}
	return t.Window.Rate(time.Now().Unix(), secs)
}

// Totals sums the query/sample/truncation counters across every table.
func (r *Registry) Totals() (queries, samples, truncated int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.tables {
		q, s, tr := t.Totals()
		queries += q
		samples += s
		truncated += tr
	}
	return queries, samples, truncated
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): one histogram family, one summary-
// style quantile family and the counters, all labeled by table and class.
// Output ordering is deterministic (tables sorted, classes in declaration
// order) so the endpoint diffs cleanly.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	tables := make(map[string]*TableMetrics, len(r.tables))
	for n, t := range r.tables {
		tables[n] = t
	}
	r.mu.RUnlock()
	sort.Strings(names)

	WriteHeader(w, "isla_query_duration_seconds", "Query latency by table and class.", "histogram")
	for _, n := range names {
		t := tables[n]
		for _, c := range Classes() {
			qs := t.Class(c)
			bounds, cum, total := qs.Latency.Snapshot()
			if total == 0 {
				continue
			}
			base := []Label{{"table", n}, {"class", c.String()}}
			for i, b := range bounds {
				WriteSample(w, "isla_query_duration_seconds_bucket",
					append(base, Label{"le", formatBound(b)}), float64(cum[i]))
			}
			WriteSample(w, "isla_query_duration_seconds_bucket",
				append(base, Label{"le", "+Inf"}), float64(total))
			WriteSample(w, "isla_query_duration_seconds_sum", base, qs.Latency.SumSeconds())
			WriteSample(w, "isla_query_duration_seconds_count", base, float64(total))
		}
	}

	WriteHeader(w, "isla_query_latency_seconds", "Query latency quantiles by table and class.", "gauge")
	for _, n := range names {
		t := tables[n]
		for _, c := range Classes() {
			qs := t.Class(c)
			if qs.Latency.Count() == 0 {
				continue
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				WriteSample(w, "isla_query_latency_seconds",
					[]Label{{"table", n}, {"class", c.String()}, {"quantile", fmt.Sprintf("%g", q)}},
					qs.Latency.Quantile(q))
			}
		}
	}

	WriteHeader(w, "isla_queries_total", "Completed queries by table and class.", "counter")
	writeClassCounter(w, "isla_queries_total", names, tables, func(qs *QueryStats) int64 { return qs.Queries.Load() })
	WriteHeader(w, "isla_query_samples_total", "Samples drawn by completed queries, by table and class.", "counter")
	writeClassCounter(w, "isla_query_samples_total", names, tables, func(qs *QueryStats) int64 { return qs.Samples.Load() })
	WriteHeader(w, "isla_queries_truncated_total", "Budget-truncated queries by table and class.", "counter")
	writeClassCounter(w, "isla_queries_truncated_total", names, tables, func(qs *QueryStats) int64 { return qs.Truncated.Load() })
	WriteHeader(w, "isla_queries_fallback_total", "Queries that printed the certificate's value in place of ISLA's answer, by table and class.", "counter")
	writeClassCounter(w, "isla_queries_fallback_total", names, tables, func(qs *QueryStats) int64 { return qs.Fallback.Load() })
}

func writeClassCounter(w io.Writer, name string, names []string, tables map[string]*TableMetrics, get func(*QueryStats) int64) {
	for _, n := range names {
		for _, c := range Classes() {
			qs := tables[n].Class(c)
			if qs.Queries.Load() == 0 {
				continue
			}
			WriteSample(w, name, []Label{{"table", n}, {"class", c.String()}}, float64(get(qs)))
		}
	}
}

// formatBound renders a bucket bound the way Prometheus expects.
func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

// WriteHeader emits the # HELP / # TYPE preamble of a metric family.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteSample emits one sample line with optional labels. Label values
// are escaped per the exposition format.
func WriteSample(w io.Writer, name string, labels []Label, value float64) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(value))
		return
	}
	fmt.Fprintf(w, "%s{", name)
	for i, l := range labels {
		if i > 0 {
			io.WriteString(w, ",") //nolint:errcheck
		}
		// %q escapes quotes, backslashes and newlines exactly the way
		// the exposition format wants.
		fmt.Fprintf(w, "%s=%q", l.Name, l.Value)
	}
	fmt.Fprintf(w, "} %s\n", formatValue(value))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
