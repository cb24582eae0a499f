package engine

import (
	"errors"
	"fmt"
	"testing"

	"isla/internal/core"
	"isla/internal/query"
)

// outcome is what decide returns for one row of the truth table: a route, or
// the error a caller matches with errors.Is (is) or errors.As (quarantined).
type outcome struct {
	route       route
	is          error
	quarantined bool
}

func (o outcome) String() string {
	switch {
	case o.quarantined:
		return "*core.QuarantinedError"
	case o.is != nil:
		return o.is.Error()
	}
	return fmt.Sprintf("route %d", o.route)
}

// combo is one row's inputs.
type combo struct {
	target      string // "local", "grouped" (local, large groups), "sharded"
	agg         query.Agg
	where       string // "", "interval", "ne", "contradiction"
	method      query.Method
	timed       bool
	quarantined bool
}

func (c combo) String() string {
	return fmt.Sprintf("%s %v where=%q %v timed=%v quarantined=%v",
		c.target, c.agg, c.where, c.method, c.timed, c.quarantined)
}

var wheres = map[string][]query.Predicate{
	"":              nil,
	"interval":      {{Column: "v", Op: query.GE, Value: 90}, {Column: "v", Op: query.LE, Value: 110}},
	"ne":            {{Column: "v", Op: query.GT, Value: 90}, {Column: "v", Op: query.NE, Value: 100}},
	"contradiction": {{Column: "v", Op: query.GT, Value: 5}, {Column: "v", Op: query.LT, Value: 3}},
}

// inputs lowers a combo to decide's arguments.
func (c combo) inputs() (plan, capabilities) {
	q := query.Query{Agg: c.agg, Column: "v", Table: "t", Precision: 0.5, Method: c.method,
		Predicates: wheres[c.where]}
	if c.timed {
		q.TimeBudget = 0.5
	}
	if c.target == "grouped" {
		q.GroupBy = "region"
	}
	caps := capabilities{local: c.target != "sharded", rows: 1_000_000}
	if c.quarantined {
		caps.quarantined, caps.coveredRows = []int{2}, 900_000
	}
	return newPlan(q, core.DefaultConfig(), &Table{Name: "t"}), caps
}

// rules is the refusal and routing policy as the README states it, first
// match wins — written as a rule list, not as decide's control flow, so the
// two can only agree by both being right.
var rules = []struct {
	name string
	when func(c combo) bool
	want outcome
}{
	{"unfiltered COUNT is metadata on every target, whatever else is asked",
		func(c combo) bool { return c.agg == query.COUNT && c.where == "" }, outcome{route: routeMetadataCount}},
	{"shards cannot scan",
		func(c combo) bool { return c.target == "sharded" && c.method == query.MethodExact }, outcome{is: ErrShardUnsupported}},
	{"shards cannot run a baseline",
		func(c combo) bool { return c.target == "sharded" && c.method == query.MethodUS }, outcome{is: ErrShardUnsupported}},
	{"a quarantined store answers only exact statements and the unfiltered ISLA estimator (a time-budgeted run refuses in its session)",
		func(c combo) bool {
			return c.quarantined && c.method != query.MethodExact &&
				(c.where != "" || c.method != query.MethodISLA)
		}, outcome{quarantined: true}},
	{"a contradictory COUNT is exactly zero",
		func(c combo) bool { return c.where == "contradiction" && c.agg == query.COUNT }, outcome{route: routeZeroCount}},
	{"a contradictory AVG/SUM matches nothing",
		func(c combo) bool { return c.where == "contradiction" }, outcome{is: core.ErrNoMatch}},
	{"METHOD EXACT scans", func(c combo) bool { return c.method == query.MethodExact }, outcome{route: routeExact}},
	{"a WHERE conjunction — <> included — runs the filtered estimator",
		func(c combo) bool { return c.where != "" }, outcome{route: routeFiltered}},
	{"baselines", func(c combo) bool { return c.method == query.MethodUS }, outcome{route: routeBaseline}},
	{"WITH TIME", func(c combo) bool { return c.timed }, outcome{route: routeTimeBound}},
	{"everything else freezes a pilot and resumes it, cache or not", func(combo) bool { return true }, outcome{route: routeFrozen}},
}

func checkDecision(t *testing.T, label string, p plan, caps capabilities, want outcome) {
	t.Helper()
	r, err := decide(&p, caps)
	var qe *core.QuarantinedError
	switch {
	case want.quarantined:
		if !errors.As(err, &qe) || qe.CoveredRows != caps.coveredRows || qe.TotalRows != caps.rows || len(qe.Blocks) != len(caps.quarantined) {
			t.Errorf("%s: decide = %v, %v; want %v carrying the coverage", label, r, err, want)
		}
	case want.is != nil:
		if !errors.Is(err, want.is) {
			t.Errorf("%s: decide = %v, %v; want %v", label, r, err, want)
		}
	case err != nil || r != want.route:
		t.Errorf("%s: decide = %v, %v; want %v", label, r, err, want)
	}
}

// TestDecideTruthTable walks {local, grouped-local, sharded} × {AVG, SUM,
// COUNT} × {no filter, interval, <>, contradiction} × {ISLA, EXACT, baseline}
// × {time budget} × {healthy, quarantined} and requires the route or the
// typed refusal the rule list names. Whether a plan cache is attached is not
// an input: it decides only whether the pilot runs.
func TestDecideTruthTable(t *testing.T) {
	rows := 0
	for _, target := range []string{"local", "grouped", "sharded"} {
		for _, agg := range []query.Agg{query.AVG, query.SUM, query.COUNT} {
			for _, where := range []string{"", "interval", "ne", "contradiction"} {
				for _, method := range []query.Method{query.MethodISLA, query.MethodExact, query.MethodUS} {
					for _, flags := range []int{0, 1, 2, 3} {
						c := combo{target: target, agg: agg, where: where, method: method,
							timed: flags&1 != 0, quarantined: flags&2 != 0}
						if c.quarantined && target == "sharded" {
							continue // workers quarantine for themselves
						}
						p, caps := c.inputs()
						for _, rule := range rules {
							if rule.when(c) {
								checkDecision(t, c.String()+" ("+rule.name+")", p, caps, rule.want)
								break
							}
						}
						rows++
					}
				}
			}
		}
	}
	if rows != 3*3*4*3*4-3*4*3*2 {
		t.Fatalf("walked %d rows", rows)
	}

	// Rows pinned by hand, so the rule list cannot drift along with decide.
	for _, pin := range []struct {
		c    combo
		want outcome
	}{
		{combo{target: "sharded", agg: query.AVG, where: "ne"}, outcome{route: routeFiltered}},
		{combo{target: "sharded", agg: query.COUNT, method: query.MethodExact, timed: true}, outcome{route: routeMetadataCount}},
		{combo{target: "sharded", agg: query.COUNT, where: "ne", method: query.MethodExact}, outcome{is: ErrShardUnsupported}},
		{combo{target: "sharded", agg: query.SUM, where: "contradiction", timed: true}, outcome{is: core.ErrNoMatch}},
		{combo{target: "sharded", agg: query.SUM, timed: true}, outcome{route: routeTimeBound}},
		{combo{target: "local", agg: query.AVG, timed: true, quarantined: true}, outcome{route: routeTimeBound}},
		{combo{target: "local", agg: query.AVG, quarantined: true}, outcome{route: routeFrozen}},
		{combo{target: "local", agg: query.SUM, where: "interval", method: query.MethodExact, quarantined: true}, outcome{route: routeExact}},
		{combo{target: "grouped", agg: query.COUNT, where: "contradiction", quarantined: true}, outcome{quarantined: true}},
		{combo{target: "local", agg: query.AVG, where: "interval", timed: true}, outcome{route: routeFiltered}},
		{combo{target: "local", agg: query.AVG, method: query.MethodUS, timed: true}, outcome{route: routeBaseline}},
	} {
		p, caps := pin.c.inputs()
		checkDecision(t, "pinned: "+pin.c.String(), p, caps, pin.want)
	}
}

// TestDecideSmallGroup: a local group of at most smallGroupRows rows is
// scanned instead of sampled — ISLA statements only, never on shards, never
// ahead of the metadata COUNT or a contradiction — and a quarantined small
// group still takes the exact route (the scan itself refuses corrupt blocks).
func TestDecideSmallGroup(t *testing.T) {
	if smallGroupRows != 2000 {
		t.Fatalf("smallGroupRows = %d; the README and the group tests pin 2000", smallGroupRows)
	}
	for _, tc := range []struct {
		name string
		c    combo
		rows int64
		want outcome
	}{
		{"at the constant", combo{target: "grouped", agg: query.AVG}, smallGroupRows, outcome{route: routeSmallGroupExact}},
		{"filtered and quarantined", combo{target: "grouped", agg: query.SUM, where: "ne", quarantined: true}, 50, outcome{route: routeSmallGroupExact}},
		{"one row over", combo{target: "grouped", agg: query.AVG}, smallGroupRows + 1, outcome{route: routeFrozen}},
		{"ungrouped", combo{target: "local", agg: query.AVG}, 50, outcome{route: routeFrozen}},
		{"sharded groups always sample", combo{target: "sharded", agg: query.AVG}, 50, outcome{route: routeFrozen}},
		{"baseline", combo{target: "grouped", agg: query.AVG, method: query.MethodUS}, 50, outcome{route: routeBaseline}},
		{"METHOD EXACT is the plain exact route", combo{target: "grouped", agg: query.AVG, method: query.MethodExact}, 50, outcome{route: routeExact}},
		{"metadata COUNT first", combo{target: "grouped", agg: query.COUNT}, 50, outcome{route: routeMetadataCount}},
		{"contradiction first", combo{target: "grouped", agg: query.AVG, where: "contradiction"}, 50, outcome{is: core.ErrNoMatch}},
	} {
		p, caps := tc.c.inputs()
		if tc.c.target == "sharded" {
			p.q.GroupBy = "region"
		}
		caps.rows = tc.rows
		checkDecision(t, tc.name, p, caps, tc.want)
	}
}

// TestPlanKey: one key shape for both pilots — the filter pilot's adds the
// predicate fingerprint, the unfiltered pilot's never splits on it.
func TestPlanKey(t *testing.T) {
	e, _ := testEngine(t)
	tbl, err := e.Catalog.Lookup("sales")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	tgt := target{s: tbl.Store}
	plain := newPlan(query.Query{Agg: query.AVG, Table: "sales"}, cfg, tbl)
	plain.tgt = tgt
	filtered := newPlan(query.Query{Agg: query.AVG, Table: "sales", Predicates: wheres["ne"]}, cfg, tbl)
	filtered.tgt = tgt
	pk, fk := plain.key(), filtered.key()
	if pk.Predicate != "" || pk.Generation != tbl.Gen || pk.Grouped {
		t.Fatalf("unfiltered key = %+v", pk)
	}
	if fk.Predicate != "v > 90 AND v <> 100" {
		t.Fatalf("filtered key = %+v", fk)
	}
	grouped := plain
	grouped.q.GroupBy, grouped.group = "region", ""
	if gk := grouped.key(); gk == pk || !gk.Grouped {
		t.Fatalf("the empty group key collides with the table-level entry: %+v", gk)
	}
}
