package repro

import (
	"math"
	"strings"
	"testing"
)

// small returns options scaled down so every experiment runs in test time.
func small() Options {
	return Options{N: 120_000, Blocks: 10, Seed: 1, Runs: 2}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(small())
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != e.ID {
				t.Fatalf("table id %q != %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row width %d != %d columns: %v", len(row), len(tab.Columns), row)
				}
			}
			out := tab.String()
			if !strings.Contains(out, tab.Title) {
				t.Fatal("String() missing title")
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
				t.Fatalf("a claim measured no number:\n%s", out)
			}
		})
	}
}

// TestClaimVerdict: a claim holds inside [Lo, Hi], bounds included, and
// otherwise misses by its distance to the nearer bound; an open side prints
// as a one-sided want, and a NaN measurement as an unchecked claim.
func TestClaimVerdict(t *testing.T) {
	for _, tc := range []struct {
		c    Claim
		want string
	}{
		{Claim{"x", "1", 1.5, 0.5, 1.5, "s"}, "claim: x: paper 1; measured 1.5, want in [0.5, 1.5] (s): holds"},
		{Claim{"x", "1", 1.75, 0.5, 1.5, "s"}, "claim: x: paper 1; measured 1.75, want in [0.5, 1.5] (s): misses by 0.25"},
		{atMost("x", "p", 3, 2, "s"), "claim: x: paper p; measured 3, want ≤ 2 (s): misses by 1"},
		{atLeast("x", "p", 0.6, 0.95, "s"), "claim: x: paper p; measured 0.6, want ≥ 0.95 (s): misses by 0.35"},
		{allIn("x", "p", []float64{99, 103, 96}, 97.5, 102.5, "s"), "claim: x: paper p; measured 96, want in [97.5, 102.5] (s): misses by 1.5"},
		{Claim{"x", "p", math.NaN(), 0, 0, "timing"}, "claim: x: paper p: not checked (timing)"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}

// holds runs an experiment at o and fails unless each named claim is
// in its table and holds: its measurement lies in [Lo, Hi].
func holds(t *testing.T, run func(Options) (*Table, error), o Options, names ...string) {
	t.Helper()
	tab, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		found := false
		for _, c := range tab.Claims {
			if c.What != name {
				continue
			}
			found = true
			if !(c.Measured >= c.Lo && c.Measured <= c.Hi) {
				t.Errorf("%s: %s", tab.ID, c)
			}
		}
		if !found {
			t.Errorf("%s: no claim %q", tab.ID, name)
		}
	}
}

// TestTable3Shape: ISLA averages near 100, MV near 104 (inflated by σ²/µ),
// MVB between them.
func TestTable3Shape(t *testing.T) {
	holds(t, table3Accuracy, small(), "ISLA average", "MV average", "MVB average")
}

// TestTable4Shape: modulation pulls the per-block partial answers toward the
// truth, so over twelve datasets their average sits closer to 100 than the
// pilot's sketch0.
func TestTable4Shape(t *testing.T) {
	holds(t, table4Modulation, small(), "mean |average partial − 100| over 12 datasets")
}

// TestTable6Shape: at every γ MV doubles the truth and ISLA stays within
// 0.5 + 10 % of it.
func TestTable6Shape(t *testing.T) {
	var names []string
	for _, g := range []float64{0.05, 0.1, 0.15, 0.2} {
		names = append(names, "γ = "+f2(g)+": ISLA", "γ = "+f2(g)+": MV / accurate")
	}
	holds(t, table6Exponential, small(), names...)
}

// TestTable7Shape: on every U[1,199] dataset ISLA stays near 100 and MV near
// its expectation 132.67.
func TestTable7Shape(t *testing.T) {
	holds(t, table7Uniform, small(), "ISLA, worst of 5 datasets", "MV, worst of 5 datasets")
}

// TestEfficiencyShape: all five methods are timed.
func TestEfficiencyShape(t *testing.T) {
	holds(t, efficiency, small(), "methods timed")
}

// TestRealDataShapes: on both real-like columns ISLA, at half the budget,
// still beats MV.
func TestRealDataShapes(t *testing.T) {
	for _, run := range []func(Options) (*Table, error){salary, tlc} {
		holds(t, run, small(), "ISLA abs error")
	}
}

// TestAblationEtaInvariance: the estimate does not move with η, and the
// iteration count grows with it.
func TestAblationEtaInvariance(t *testing.T) {
	holds(t, ablationEta, small(), "estimate, farthest from η = 0.25's", "max iterations at η = 0.9")
}
