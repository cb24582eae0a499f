package query

import (
	"strings"
	"testing"
)

// TestWithTimeBudget pins the out-of-band budget: injected as if the
// statement said WITH TIME, and refused where that clause would be.
func TestWithTimeBudget(t *testing.T) {
	b, err := ParseWithTimeBudget("SELECT AVG(v) FROM t WITH PRECISION 0.5", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b.TimeBudget != 0.05 {
		t.Fatalf("budget = %v", b.TimeBudget)
	}

	cases := []struct {
		sql    string
		budget float64
		want   string
	}{
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5", 0, "must be positive"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5", -1, "must be positive"},
		{"SELECT AVG(v) FROM t WITH TIME 1", 0.5, "already carries WITH TIME"},
		{"SELECT AVG(v) FROM t WHERE v > 3 WITH PRECISION 0.5", 0.5, "WHERE"},
		{"SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.5", 0.5, "GROUP BY"},
		{"SELECT AVG(v) FROM t METHOD US WITH PRECISION 0.5", 0.5, "METHOD ISLA"},
	}
	for _, tc := range cases {
		if _, err := ParseWithTimeBudget(tc.sql, tc.budget); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s budget=%v: err = %v, want containing %q", tc.sql, tc.budget, err, tc.want)
		}
	}
}

// TestRefusedClauses: a time budget time.Duration cannot hold, an explicit
// CONFIDENCE outside (0,1) and a repeated WITH clause are refused, not
// answered with a default or the last clause's value.
func TestRefusedClauses(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"SELECT AVG(v) FROM t WITH TIME 1e10", "outside [1ns"},
		{"SELECT AVG(v) FROM t WITH TIME 1e300", "outside [1ns"},
		{"SELECT AVG(v) FROM t WITH TIME 1e-10", "outside [1ns"},
		{"SELECT AVG(v) FROM t WITH TIME 0", "must be positive"},
		{"SELECT AVG(v) FROM t WITH TIME -1", "must be positive"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 0", "outside (0,1)"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 1", "outside (0,1)"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 PRECISION 5", "duplicate PRECISION"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 1 SEED 2", "duplicate SEED"},
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 0.9 confidence 0.99", "duplicate CONFIDENCE"},
		{"SELECT AVG(v) FROM t WITH TIME 1 TIME 2", "duplicate TIME"},
		{"SELECT AVG(v) FROM t METHOD EXACT METHOD US", "duplicate METHOD"},
		{"SELECT AVG(v) FROM t WITH PRECISION 1 SAMPLEFRACTION 0.5 SAMPLEFRACTION 0.2", "duplicate SAMPLEFRACTION"},
	} {
		if _, err := Parse(c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.sql, err, c.want)
		}
	}
	for _, seconds := range []float64{1e10, 1e300, 1e-10} {
		if _, err := ParseWithTimeBudget("SELECT AVG(v) FROM t", seconds); err == nil || !strings.Contains(err.Error(), "outside [1ns") {
			t.Errorf("budget %v: err = %v, want it refused", seconds, err)
		}
	}
	for _, sql := range []string{
		"SELECT AVG(v) FROM t WITH TIME 1e-6",
		"SELECT AVG(v) FROM t WITH TIME 9e9",
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 0.999999",
	} {
		if _, err := Parse(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}
