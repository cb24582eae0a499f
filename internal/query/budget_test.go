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
