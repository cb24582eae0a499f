package core

import (
	"fmt"
	"sort"
)

// QuarantinedError reports that a query refused to run over a store with
// quarantined (corrupt) blocks: either the caller did not opt into partial
// answers (Config.AllowPartial), or nothing intact remains, or the query
// class cannot degrade soundly (exact scans, filtered estimates whose
// Horvitz-Thompson scaling assumes full coverage).
type QuarantinedError struct {
	// Blocks are the quarantined block ids, ascending.
	Blocks []int
	// CoveredRows / TotalRows describe the intact fraction.
	CoveredRows, TotalRows int64
}

// Error implements error.
func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("core: %d block(s) quarantined (%d of %d rows intact)",
		len(e.Blocks), e.CoveredRows, e.TotalRows)
}

// BlocksLostError reports blocks that went away while a query was running
// — on a shard tier, blocks whose every replica was unreachable after
// retries. A source that may not degrade fails its phase with it; the
// calculation phase fails with it when no block answered at all.
type BlocksLostError struct {
	// Blocks are the lost block ids, ascending.
	Blocks []int
}

func (e *BlocksLostError) Error() string {
	return fmt.Sprintf("core: no live replica for blocks %v", e.Blocks)
}

// lossOf accounts for the blocks flagged lost, index-aligned with src's
// layout: nil when none is flagged.
func lossOf(src BlockSource, lost []bool) *Partial {
	var part *Partial
	ids, lens := src.Layout()
	for i, l := range lost {
		if !l {
			continue
		}
		if part == nil {
			part = &Partial{CoveredRows: src.TotalLen(), TotalRows: src.TotalLen()}
		}
		part.MissingBlocks = append(part.MissingBlocks, ids[i])
		part.CoveredRows -= lens[i]
	}
	if part != nil {
		sort.Ints(part.MissingBlocks)
	}
	return part
}

// quarantineGate applies the partial-answer policy to the blocks a source
// reports down: a healthy source passes with (nil, nil); a damaged one
// passes with the Partial accounting when cfg.AllowPartial is set and at
// least one row survives, and fails with a *QuarantinedError otherwise.
func quarantineGate(src BlockSource, down []bool, cfg Config) (*Partial, error) {
	part := lossOf(src, down)
	if part != nil && (!cfg.AllowPartial || part.CoveredRows == 0) {
		return nil, &QuarantinedError{
			Blocks:      part.MissingBlocks,
			CoveredRows: part.CoveredRows,
			TotalRows:   part.TotalRows,
		}
	}
	return part, nil
}
