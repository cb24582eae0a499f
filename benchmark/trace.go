package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// replayed statement share a query_id; parent is the span that caused this
// one (0 for a root).
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	QueryID int              `json:"query_id"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory; the traced replay is single-threaded, so
// the open spans form a stack and a new span's parent is the innermost one.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int // ids of open spans, innermost last
	query int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, QueryID: r.query, Name: name})
	r.stack = append(r.stack, id)
	r.spans[id-1].StartNS = r.now()
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	now := r.now()
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("trace: spans closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].EndNS = now
}

// in runs fn inside a span and returns the span's id, for counts.
func (r *recorder) in(name string, fn func()) int {
	id := r.begin(name)
	fn()
	r.end(id)
	return id
}

// count records a count at span id's boundary.
func (r *recorder) count(id int, key string, v int64) {
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[key] += v
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		var covered, reach int64 = 0, p.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// nameStats is every span of one name: durations in ns, summed counts, and
// how many spans carried each count.
type nameStats struct {
	durs    []float64
	counts  map[string]int64
	counted map[string]int
}

// meanCount is the mean of a count over the spans that carried it.
func (ns *nameStats) meanCount(key string) float64 {
	if ns == nil || ns.counted[key] == 0 {
		return 0
	}
	return float64(ns.counts[key]) / float64(ns.counted[key])
}

func aggregate(spans []span) map[string]*nameStats {
	out := make(map[string]*nameStats)
	for i := range spans {
		s := &spans[i]
		ns := out[s.Name]
		if ns == nil {
			ns = &nameStats{counts: make(map[string]int64), counted: make(map[string]int)}
			out[s.Name] = ns
		}
		ns.durs = append(ns.durs, float64(s.dur()))
		for k, v := range s.Counts {
			ns.counts[k] += v
			ns.counted[k]++
		}
	}
	return out
}

// ledger is where the staged replays' time went: each span name's self time
// as a share of all self time under the "replay" roots. Pilot spans are left
// out of both sides, so the shares describe a warm query — what the timed
// windows run.
func ledger(spans []span) map[string]float64 {
	self := selfTimes(spans)
	staged := make(map[int]bool, len(spans)) // span id -> descends from a replay root, outside any pilot
	out := make(map[string]float64)
	var total float64
	for i := range spans { // parents precede their children
		s := &spans[i]
		pilot := s.Name == "core.pilot" || s.Name == "cluster.pilot"
		staged[s.ID] = !pilot && (staged[s.Parent] || (s.Parent == 0 && s.Name == "replay"))
		if staged[s.ID] {
			out[s.Name] += float64(self[s.ID])
			total += float64(self[s.ID])
		}
	}
	for name := range out {
		out[name] /= total
	}
	return out
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      envStamp           `json:"env"`
	Shares   map[string]float64 `json:"shares"`
	Ledger   map[string]float64 `json:"self_time_share"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
