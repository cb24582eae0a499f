// Package ingest loads external data into ISLA block stores. The paper
// stores its datasets as ".txt documents, one value per line" and as CSV
// extracts (census, TLC); this package reads both formats, streaming, into
// in-memory blocks. Unparsable entries are skipped, never fatal: real
// extracts carry comment lines, headers and missing values. To persist a
// loaded column as block files, write its values with block.WritePartitioned.
package ingest

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"isla/internal/block"
)

// readValues parses one float per line from r, skipping blank and
// unparsable lines.
func readValues(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if v, err := strconv.ParseFloat(strings.TrimSpace(sc.Text()), 64); err == nil {
			out = append(out, v)
		}
	}
	return out, sc.Err()
}

// readCSVColumn parses one numeric column from CSV data: the column whose
// header names column, or the first column of header-less data when column
// is "". Records too short for the column or with an unparsable entry are
// skipped.
func readCSVColumn(r io.Reader, column string) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var out []float64
	col := 0
	header := column != ""
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if header {
			header = false
			col = -1
			for i, h := range rec {
				if strings.EqualFold(strings.TrimSpace(h), column) {
					col = i
					break
				}
			}
			if col < 0 {
				return nil, fmt.Errorf("ingest: no column %q in header %v", column, rec)
			}
			continue // header row consumed
		}
		if col >= len(rec) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rec[col]), 64); err == nil {
			out = append(out, v)
		}
	}
}

// LoadText reads a one-value-per-line text file into a store of the given
// number of in-memory blocks.
func LoadText(path string, blocks int) (*block.Store, error) {
	return load(path, blocks, readValues)
}

// LoadCSV reads one numeric CSV column (by header name, or the first column
// of header-less data when column is "") into a store of the given number
// of in-memory blocks.
func LoadCSV(path, column string, blocks int) (*block.Store, error) {
	return load(path, blocks, func(r io.Reader) ([]float64, error) { return readCSVColumn(r, column) })
}

// load parses the file at path with read and partitions the values.
func load(path string, blocks int, read func(io.Reader) ([]float64, error)) (*block.Store, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("ingest: block count %d must be positive", blocks)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals, err := read(f)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("ingest: %s yields no values", path)
	}
	return block.Partition(vals, blocks), nil
}
