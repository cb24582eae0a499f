package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isla/internal/block"
)

func TestReadValues(t *testing.T) {
	in := "1.5\n\n  2.25\n# comment\n3\n"
	vals, err := readValues(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1.5 || vals[1] != 2.25 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestReadValuesInvalid(t *testing.T) {
	vals, err := readValues(strings.NewReader("1\nbogus\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("vals = %v (the invalid line must be skipped)", vals)
	}
}

func TestLoadText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	if err := os.WriteFile(path, []byte("10\n20\n30\n40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadText(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 2 || s.TotalLen() != 4 {
		t.Fatalf("store %d/%d", s.NumBlocks(), s.TotalLen())
	}
	mean, _ := s.ExactMean()
	if mean != 25 {
		t.Fatalf("mean = %v", mean)
	}
	if _, err := LoadText(filepath.Join(dir, "missing.txt"), 2); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadText(path, 0); err == nil {
		t.Fatal("zero block count accepted")
	}
	empty := filepath.Join(dir, "empty.txt")
	os.WriteFile(empty, nil, 0o644)
	if _, err := LoadText(empty, 2); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestReadCSVColumnByHeader(t *testing.T) {
	in := "id,wage,age\n1,1000,30\n2,2000,40\n3,x,50\n"
	vals, err := readCSVColumn(strings.NewReader(in), "wage")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1000 || vals[1] != 2000 {
		t.Fatalf("vals = %v", vals)
	}
}

// An empty column name reads the first column and treats the first record
// as data, not as a header.
func TestReadCSVColumnByIndex(t *testing.T) {
	in := "1,10\n2,20\n"
	vals, err := readCSVColumn(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestReadCSVColumnErrors(t *testing.T) {
	if _, err := readCSVColumn(strings.NewReader("a,b\n1,2\n"), "missing"); err == nil {
		t.Fatal("missing header accepted")
	}
	if _, err := readCSVColumn(strings.NewReader("a,b\n\"1\n"), "a"); err == nil {
		t.Fatal("malformed quoting accepted")
	}
	vals, err := readCSVColumn(strings.NewReader("a,b\nx,y\n"), "a")
	if err != nil || len(vals) != 0 {
		t.Fatalf("non-numeric entry: vals %v, err %v (want skipped)", vals, err)
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	os.WriteFile(path, []byte("v\n5\n15\n"), 0o644)
	s, err := LoadCSV(path, "v", 1)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := s.ExactMean()
	if mean != 10 {
		t.Fatalf("mean = %v", mean)
	}
}

// values reads every value of a loaded store back in order — the input
// block.WritePartitioned persists a loaded column from.
func values(t *testing.T, s *block.Store) []float64 {
	t.Helper()
	var vals []float64
	if err := s.Scan(func(v float64) error { vals = append(vals, v); return nil }); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestConvertTextToBlocks(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "in.txt")
	os.WriteFile(txt, []byte("1\n2\n3\n4\n5\n6\n"), 0o644)
	loaded, err := LoadText(txt, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := block.WritePartitioned(filepath.Join(dir, "blk"), values(t, loaded), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.NumBlocks() != 3 || s.TotalLen() != 6 {
		t.Fatalf("store %d/%d", s.NumBlocks(), s.TotalLen())
	}
	// The block files must be readable on their own.
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "blk.00"+string(rune('0'+i)))); err != nil {
			t.Fatalf("block file %d missing: %v", i, err)
		}
	}
}

// The round-trip contract: a column loaded from external data and written
// as block files persists summaries that agree, bit for bit, with a direct
// scan of the resulting store — for text and CSV sources alike.
func TestConvertRoundTripSummaries(t *testing.T) {
	dir := t.TempDir()

	var txt, csv strings.Builder
	txt.WriteString("# header comment\n")
	csv.WriteString("id,v\n")
	vals := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := float64(i%97)*1.25 - 30
		vals = append(vals, v)
		fmt.Fprintf(&txt, "%v\n", v)
		fmt.Fprintf(&csv, "%d,%v\n", i, v)
	}
	txtPath := filepath.Join(dir, "in.txt")
	csvPath := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(txtPath, []byte(txt.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	stores := map[string]*block.Store{}
	fromText, err := LoadText(txtPath, 4)
	if err != nil {
		t.Fatal(err)
	}
	fromCSV, err := LoadCSV(csvPath, "v", 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, loaded := range map[string]*block.Store{"txt": fromText, "csv": fromCSV} {
		s, err := block.WritePartitioned(filepath.Join(dir, name), values(t, loaded), 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		stores[name] = s
	}

	want := block.ComputeSummary(vals)
	for name, s := range stores {
		if s.NumBlocks() != 4 || s.TotalLen() != 1000 {
			t.Fatalf("%s: store %d/%d", name, s.NumBlocks(), s.TotalLen())
		}
		sum, ok := s.Summary()
		if !ok {
			t.Fatalf("%s: converted store has no summary", name)
		}
		if sum != want {
			t.Fatalf("%s: persisted summary %+v, want %+v", name, sum, want)
		}
		// Per block: footer equals a scan-derived summary of that block.
		for _, b := range s.Blocks() {
			persisted, ok := block.BlockSummary(b)
			if !ok {
				t.Fatalf("%s: block %d has no summary", name, b.ID())
			}
			var scanned block.Summary
			if err := b.Scan(func(v float64) error {
				scanned.AddAll([]float64{v})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if persisted != scanned {
				t.Fatalf("%s block %d: footer %+v, scan %+v", name, b.ID(), persisted, scanned)
			}
		}
		// The concatenated scan reproduces the source values exactly.
		i := 0
		if err := s.Scan(func(v float64) error {
			if v != vals[i] {
				t.Fatalf("%s: value %d = %v, want %v", name, i, v, vals[i])
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConvertCSVToBlocksErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv"), "v", 4); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.csv")
	os.WriteFile(empty, []byte("v\n"), 0o644)
	if _, err := LoadCSV(empty, "v", 4); err == nil {
		t.Fatal("valueless column accepted")
	}
}
