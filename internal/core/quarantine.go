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

// RefuseQuarantined returns a *QuarantinedError when src reports blocks down
// and nil when it is healthy. It is the policy of the modes that keep no
// partial accounting — time-bounded and online runs — which refuse a
// damaged source whatever Config.AllowPartial says.
func RefuseQuarantined(src BlockSource) error {
	return quarantineGate(src, src.Down(), false)
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
// reports down: a healthy source passes, and a damaged one passes only when
// allowPartial is set and at least one row survives — it fails with a
// *QuarantinedError otherwise.
func quarantineGate(src BlockSource, down []bool, allowPartial bool) error {
	part := lossOf(src, down)
	if part != nil && (!allowPartial || part.CoveredRows == 0) {
		return &QuarantinedError{
			Blocks:      part.MissingBlocks,
			CoveredRows: part.CoveredRows,
			TotalRows:   part.TotalRows,
		}
	}
	return nil
}

// openSource is how a phase pipeline opens src: the blocks it reports down,
// refused under the partial-answer policy (quarantineGate), then its row
// count — ErrEmptyStore when it has none — and its layout.
func openSource(src BlockSource, allowPartial bool) (ids []int, lens []int64, total int64, down []bool, err error) {
	down = src.Down()
	if err := quarantineGate(src, down, allowPartial); err != nil {
		return nil, nil, 0, nil, err
	}
	if total = src.TotalLen(); total == 0 {
		return nil, nil, 0, nil, ErrEmptyStore
	}
	ids, lens = src.Layout()
	return ids, lens, total, down, nil
}
