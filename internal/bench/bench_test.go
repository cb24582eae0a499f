package bench

import (
	"strconv"
	"strings"
	"testing"
)

// small returns options scaled down so every experiment runs in test time.
func small() Options {
	return Options{N: 120_000, Blocks: 10, Seed: 1, Runs: 2}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			fn, ok := Registry[id]
			if !ok {
				t.Fatalf("experiment %q not in registry", id)
			}
			tab, err := fn(small())
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Fatalf("table id %q != %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row width %d != %d columns: %v", len(row), len(tab.Columns), row)
				}
			}
			if !strings.Contains(tab.String(), tab.Title) {
				t.Fatal("String() missing title")
			}
		})
	}
}

func TestRegistryMatchesIDs(t *testing.T) {
	if len(Registry) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs() %d", len(Registry), len(IDs()))
	}
	for _, id := range IDs() {
		if _, ok := Registry[id]; !ok {
			t.Errorf("id %q missing from registry", id)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3Accuracy(small())
	if err != nil {
		t.Fatal(err)
	}
	// The last row is the average: ISLA near 100, MV near 104, MVB between.
	avg := tab.Rows[len(tab.Rows)-1]
	isla := parse(t, avg[1])
	mv := parse(t, avg[2])
	mvb := parse(t, avg[3])
	if abs(isla-100) > 0.5 {
		t.Errorf("ISLA average %v strays from 100", isla)
	}
	if abs(mv-104) > 1.0 {
		t.Errorf("MV average %v strays from 104", mv)
	}
	if !(mvb > isla && mvb < mv) {
		t.Errorf("MVB %v not between ISLA %v and MV %v", mvb, isla, mv)
	}
}

func TestTable6Shape(t *testing.T) {
	tab, err := Table6Exponential(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		truth := parse(t, row[1])
		isla := parse(t, row[2])
		mv := parse(t, row[3])
		// MV doubles the truth; ISLA stays within 10%.
		if abs(mv-2*truth) > 0.15*truth {
			t.Errorf("γ=%s: MV %v not ≈ 2×truth %v", row[0], mv, truth)
		}
		// ISLA's error on exponentials is anchored by the relaxed sketch
		// interval ±t_e·e = ±0.5, i.e. up to 0.5/truth relative error plus
		// pilot noise (the paper's own Table VI shows up to 8%).
		if abs(isla-truth) > 0.5+0.1*truth {
			t.Errorf("γ=%s: ISLA %v strays too far from %v", row[0], isla, truth)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	tab, err := Table7Uniform(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		isla := parse(t, row[1])
		mv := parse(t, row[2])
		if abs(isla-100) > 2.5 {
			t.Errorf("dataset %s: ISLA %v strays from 100", row[0], isla)
		}
		if abs(mv-132.67) > 2 {
			t.Errorf("dataset %s: MV %v not ≈ 132.7", row[0], mv)
		}
	}
}

func TestEfficiencyShape(t *testing.T) {
	tab, err := Efficiency(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 methods", len(tab.Rows))
	}
}

func TestRealDataShapes(t *testing.T) {
	for _, fn := range []func(Options) (*Table, error){Salary, TLC} {
		tab, err := fn(small())
		if err != nil {
			t.Fatal(err)
		}
		var truth, islaErr, mvErr float64
		for _, row := range tab.Rows {
			switch row[0] {
			case "accurate":
				truth = parse(t, row[1])
			case "ISLA":
				islaErr = parse(t, row[2])
			case "MV":
				mvErr = parse(t, row[2])
			}
		}
		if truth == 0 {
			t.Fatalf("%s: no accurate row", tab.ID)
		}
		// Shape: ISLA (half the budget) still beats MV decisively.
		if islaErr >= mvErr {
			t.Errorf("%s: ISLA err %v not below MV err %v", tab.ID, islaErr, mvErr)
		}
	}
}

func TestAblationEtaInvariance(t *testing.T) {
	tab, err := AblationEta(small())
	if err != nil {
		t.Fatal(err)
	}
	base := parse(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		if abs(parse(t, row[1])-base) > 0.05 {
			t.Errorf("η=%s estimate %s differs from %v", row[0], row[1], base)
		}
	}
	// Iterations grow with η.
	first, _ := strconv.Atoi(tab.Rows[0][2])
	last, _ := strconv.Atoi(tab.Rows[len(tab.Rows)-1][2])
	if last <= first {
		t.Errorf("iterations did not grow with η: %d -> %d", first, last)
	}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
