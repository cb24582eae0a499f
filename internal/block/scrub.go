package block

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"isla/internal/exec"
)

// Verifier is the capability interface of blocks that can check their
// stored payload against a persisted checksum. checked is false when the
// backing storage carries no payload checksum (in-memory, v1 and v2
// blocks): nothing was verified and nothing failed. When checked is true a
// non-nil error is a *CorruptBlockError describing the mismatch, or a
// plain I/O error when the bytes could not be read at all.
type Verifier interface {
	VerifyPayload() (checked bool, err error)
}

// BlockPath returns the backing file path of a block, or a synthetic
// "#id" label for blocks without one (in-memory).
func BlockPath(b Block) string {
	if p, ok := b.(interface{ Path() string }); ok {
		return p.Path()
	}
	return fmt.Sprintf("#%d", b.ID())
}

// ScrubError records one corrupt block found by a scrub.
type ScrubError struct {
	// BlockID is the block's ID within its store.
	BlockID int
	// Path is the backing file (or "#id" for non-file blocks).
	Path string
	// Err is the integrity failure, a *CorruptBlockError.
	Err error
}

// ScrubReport summarizes one scrub pass over a store.
type ScrubReport struct {
	// Blocks is the number of blocks walked.
	Blocks int
	// Verified is the number of blocks whose payload checksum was checked
	// (including the ones that failed).
	Verified int
	// Skipped is the number of blocks with nothing to verify (in-memory,
	// v1/v2 files).
	Skipped int
	// Corrupt lists the blocks that failed verification, in block order.
	Corrupt []ScrubError
	// Duration is the wall-clock time the scrub took.
	Duration time.Duration
}

// Healthy reports whether the scrub found no corruption.
func (r ScrubReport) Healthy() bool { return len(r.Corrupt) == 0 }

// String returns a one-line human-readable summary.
func (r ScrubReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scrub: %d blocks, %d verified, %d skipped, %d corrupt in %v",
		r.Blocks, r.Verified, r.Skipped, len(r.Corrupt), r.Duration.Round(time.Millisecond))
	for _, ce := range r.Corrupt {
		fmt.Fprintf(&sb, "\n  block %d: %v", ce.BlockID, ce.Err)
	}
	return sb.String()
}

// Scrub verifies the payload checksum of every block that supports
// verification, with up to workers blocks in flight at once (see
// exec.Pool for the knob's meaning). Blocks that fail are quarantined and
// reported; the walk always covers the whole store — one corrupt block
// does not hide another. The error is non-nil only when the scrub itself
// could not complete (context cancelled, unreadable file), never for
// corruption, which the report carries.
func (s *Store) Scrub(ctx context.Context, workers int) (ScrubReport, error) {
	start := time.Now()
	type outcome struct {
		checked bool
		corrupt error
	}
	results, runErr := exec.Run(ctx, exec.Pool(workers), len(s.blocks),
		func(ctx context.Context, i int) (outcome, error) {
			v, ok := s.blocks[i].(Verifier)
			if !ok {
				return outcome{}, nil
			}
			checked, err := v.VerifyPayload()
			var ce *CorruptBlockError
			if err != nil && !errors.As(err, &ce) {
				// Not an integrity verdict — the bytes could not be read.
				// That aborts the scrub rather than masquerading as health.
				return outcome{}, err
			}
			return outcome{checked: checked, corrupt: err}, nil
		})
	rep := ScrubReport{Blocks: len(results), Duration: time.Since(start)}
	for i, o := range results {
		switch {
		case o.corrupt != nil:
			rep.Verified++
			rep.Corrupt = append(rep.Corrupt, ScrubError{
				BlockID: s.blocks[i].ID(), Path: BlockPath(s.blocks[i]), Err: o.corrupt})
		case o.checked:
			rep.Verified++
		default:
			rep.Skipped++
		}
	}
	for _, ce := range rep.Corrupt {
		s.Quarantine(ce.BlockID)
	}
	return rep, runErr
}
