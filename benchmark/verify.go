package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/query"
	"isla/internal/stats"
)

// answer is what a client sees of one statement's result: the bits the
// determinism contract covers.
type answer struct {
	Value   float64
	Samples int64
	Groups  []float64 // per-group values in key order, for GROUP BY
}

func answerOf(res engine.Result) answer {
	a := answer{Value: res.Value, Samples: res.Samples}
	for _, g := range res.Groups {
		a.Groups = append(a.Groups, g.Value)
	}
	return a
}

// same reports bit-identity: every value equal as bits, not as numbers.
func (a answer) same(b answer) bool {
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Samples != b.Samples || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if math.Float64bits(a.Groups[i]) != math.Float64bits(b.Groups[i]) {
			return false
		}
	}
	return true
}

// verified is the oracle's record of one statement: the expected answer,
// and how many of its printed intervals contain the exact truth.
type verified struct {
	want      answer
	intervals int // confidence intervals the answer printed
	covered   int // of those, how many contain the truth
	filter    *engine.FilterInfo
}

// oracle is the local reference engine: a fresh single-node engine over the
// same blocks as the system under test. The repo's determinism contract
// says a statement's answer is bit-identical across cache state, worker
// count, transport and shard topology, so the oracle's answer is the
// expected answer everywhere — and exact truths come from full scans of the
// same blocks.
type oracle struct {
	eng    *engine.Engine
	tables map[string]localTable
	truths map[string]truth
}

type truth struct {
	count int64
	sum   float64
}

func newOracle(local map[string]localTable) *oracle {
	cat := engine.NewCatalog()
	for name, t := range local {
		if t.groups != nil {
			cat.RegisterGrouped(name, t.groups)
		} else {
			cat.Register(name, t.store)
		}
	}
	eng := engine.New(cat)
	eng.SetWorkers(engWorkers)
	eng.EnablePlanCache(4096)
	return &oracle{eng: eng, tables: local, truths: make(map[string]truth)}
}

// exact returns the matching-row count and sum of one store under preds,
// by full scan, memoized per (table, group, predicate).
func (o *oracle) exact(key string, s *block.Store, preds []query.Predicate) (truth, error) {
	key += "|" + query.PredicateString(preds)
	if t, ok := o.truths[key]; ok {
		return t, nil
	}
	var t truth
	var err error
	if pred := query.Filter(preds); pred != nil {
		t.count, t.sum, err = core.ExactFiltered(s, pred)
	} else {
		t.count = s.TotalLen()
		t.sum, err = s.ExactSum()
	}
	if err != nil {
		return truth{}, err
	}
	o.truths[key] = t
	return t, nil
}

func (t truth) of(agg query.Agg) float64 {
	switch agg {
	case query.SUM:
		return t.sum
	case query.COUNT:
		return float64(t.count)
	}
	return t.sum / float64(t.count)
}

// verify executes sql on the oracle engine and scores its intervals
// against the exact truth.
func (o *oracle) verify(ctx context.Context, sql string) (*verified, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := o.eng.ExecuteContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", sql, err)
	}
	v := &verified{want: answerOf(res), filter: res.Filter}
	tbl := o.tables[q.Table]
	score := func(key string, s *block.Store, ci *stats.ConfidenceInterval) error {
		if ci == nil {
			return nil // exact answers print no interval
		}
		t, err := o.exact(key, s, q.Predicates)
		if err != nil {
			return err
		}
		v.intervals++
		if ci.Contains(t.of(q.Agg)) {
			v.covered++
		}
		return nil
	}
	if q.GroupBy == "" {
		return v, score(q.Table, tbl.store, res.CI)
	}
	for _, g := range res.Groups {
		if g.Err != "" {
			return nil, fmt.Errorf("oracle: %s: group %q: %s", sql, g.Group, g.Err)
		}
		gs, err := tbl.groups.Group(g.Group)
		if err != nil {
			return nil, err
		}
		if err := score(q.Table+"/"+g.Group, gs, g.CI); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// verificationSet is the oracle's pass over a mix's statements: each
// distinct statement once, one at a time, before any timed window.
type verificationSet struct {
	known map[string]*verified
	// samplesPerQuery and ciCoverage are exact for a seed: they depend on
	// the data and the statements only.
	samplesPerQuery float64
	ciCoverage      float64
	statements      int
	intervals       int
	perClass        map[string]*classScore
}

// classScore is one traffic class's share of the verification set.
type classScore struct {
	statements, intervals, covered int
	samples                        int64
}

func (o *oracle) verifyAll(ctx context.Context, m *mix) (*verificationSet, error) {
	vs := &verificationSet{known: make(map[string]*verified, len(m.hot)), perClass: make(map[string]*classScore)}
	var total classScore
	for _, set := range [][]stmt{m.hot, m.extra} {
		for i := range set {
			v, err := o.verify(ctx, set[i].SQL)
			if err != nil {
				return nil, err
			}
			vs.known[set[i].SQL] = v
			cs := vs.perClass[set[i].Class]
			if cs == nil {
				cs = &classScore{}
				vs.perClass[set[i].Class] = cs
			}
			for _, sc := range []*classScore{cs, &total} {
				sc.statements++
				sc.samples += v.want.Samples
				sc.covered += v.covered
				sc.intervals += v.intervals
			}
		}
	}
	vs.statements, vs.intervals = total.statements, total.intervals
	vs.samplesPerQuery = float64(total.samples) / float64(total.statements)
	if total.intervals > 0 {
		vs.ciCoverage = float64(total.covered) / float64(total.intervals)
	}
	return vs, nil
}

// warmupList is the fixed statement list set-up runs through the client
// path before the system counts as ready: the first hot statement of each
// plan-cache key (table, predicate, seed, grouping), so every pilot the
// timed window will ask for is frozen and every page it touches is mapped.
func warmupList(hot []stmt) ([]*stmt, error) {
	seen := make(map[string]bool)
	var out []*stmt
	for i := range hot {
		q, err := query.Parse(hot[i].SQL)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s|%s|%d|%s", q.Table, query.PredicateString(q.Predicates), q.Seed, q.GroupBy)
		if !seen[key] {
			seen[key] = true
			out = append(out, &hot[i])
		}
	}
	return out, nil
}

// print lists the verification set's per-class scores.
func (vs *verificationSet) print(w io.Writer) {
	fmt.Fprintf(w, "  verification set: %d statements, %d intervals\n", vs.statements, vs.intervals)
	names := make([]string, 0, len(vs.perClass))
	for name := range vs.perClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := vs.perClass[name]
		cov := 0.0
		if cs.intervals > 0 {
			cov = float64(cs.covered) / float64(cs.intervals)
		}
		fmt.Fprintf(w, "    %-10s %4d statements  %12.1f samples/query  coverage %.4f (%d of %d intervals)\n",
			name, cs.statements, float64(cs.samples)/float64(cs.statements), cov, cs.covered, cs.intervals)
	}
}
