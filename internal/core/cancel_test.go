package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/stats"
)

// cancellingBlock cancels the query while the first chunk any of its
// siblings serves is being drawn, and counts the draws requested once the
// query's context reports the cancellation. It embeds the Block interface,
// not a MemBlock, so every batched and filtered path reaches the data
// through its SampleInto. A chunk counts as late by the context itself, not
// by gone: a sibling may draw between the CAS and cancel(), before any
// worker could have seen the cancellation.
type cancellingBlock struct {
	block.Block
	ctx    context.Context
	cancel context.CancelFunc
	gone   *atomic.Bool  // the first chunk has claimed the cancellation
	late   *atomic.Int64 // draws requested after ctx reported it
}

func (c *cancellingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if c.ctx.Err() != nil {
		c.late.Add(int64(len(dst)))
	}
	err := block.SampleInto(c.Block, r, dst)
	if c.gone.CompareAndSwap(false, true) {
		c.cancel()
	}
	return err
}

// A cancelled query must get its workers back within a chunk: a worker that
// had already looked at the context when the cancellation landed may still
// draw the chunk it was about to, and nothing more. Before the per-chunk
// check a running block always finished its whole quota — here 24 chunks on
// each of two workers. Counting draws, not time, keeps the test exact.
func TestCancelStopsRunningBlocksWithinAChunk(t *testing.T) {
	const (
		workers = 2
		blocks  = 4
		quota   = 24 * block.ChunkSize
	)
	data := make([]float64, 1000)
	r := stats.NewRNG(5)
	for i := range data {
		data[i] = stats.Normal{Mu: 100, Sigma: 20}.Sample(r)
	}
	plans, _ := freezePlans(t, block.Partition(data, 1), DefaultConfig())
	plan := plans[0]

	momentsReqs := make([]PhaseReq, blocks)
	calcReqs := make([]PhaseReq, blocks)
	for i := 0; i < blocks; i++ {
		momentsReqs[i] = PhaseReq{Block: i, Draws: quota, Start: stats.NewRNG(uint64(i)).State(), Class: block.SummaryOverlap}
		calcReqs[i] = PhaseReq{Block: i, Draws: quota, Start: stats.NewRNG(uint64(i)).State(), Plan: plan}
	}
	moments := func(f *Filter) func(context.Context, BlockSource) error {
		return func(ctx context.Context, src BlockSource) error {
			_, err := src.Phase(ctx, momentsReqs, f)
			return err
		}
	}
	phases := map[string]func(context.Context, BlockSource) error{
		"pilot":        moments(nil),
		"filter-pilot": moments(&Filter{Lo: 90, Hi: 110}),
		"filter-calc":  moments(&Filter{Lo: 100, Hi: math.Inf(1), Not: []float64{100}}),
		// No value passes, so no chunk ever reaches the phase's sink.
		"filter-calc-nothing-accepted": moments(&Filter{Lo: 1e9, Hi: 2e9}),
		"calc": func(ctx context.Context, src BlockSource) error {
			_, err := src.Phase(ctx, calcReqs, nil)
			return err
		},
	}
	for name, run := range phases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var gone atomic.Bool
			var late atomic.Int64
			bs := make([]block.Block, blocks)
			for i := range bs {
				bs[i] = &cancellingBlock{Block: block.NewMemBlock(i, data), ctx: ctx, cancel: cancel, gone: &gone, late: &late}
			}
			cfg := DefaultConfig()
			cfg.Workers = workers
			err := run(ctx, localSource(block.NewStore(bs...), cfg))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("phase returned %v, want context.Canceled", err)
			}
			if got := late.Load(); got > workers*block.ChunkSize {
				t.Fatalf("%d draws requested after cancellation, want at most one chunk (%d) per worker",
					got, block.ChunkSize)
			}
		})
	}
}

// overdueCtx is a context at the instant its deadline has passed and the
// runtime timer that would cancel it has not yet run: Deadline reports the
// past, Err and Done still report nothing.
type overdueCtx struct {
	context.Context
	deadline time.Time
}

func (c overdueCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// chunkCounter counts the chunks drawn from it.
type chunkCounter struct {
	block.Block
	chunks int
}

func (c *chunkCounter) SampleInto(r *stats.RNG, dst []float64) error {
	c.chunks++
	return block.SampleInto(c.Block, r, dst)
}

// A deadline is honoured by the clock, not by the context's timer: with a
// CPU-bound draw on every P that timer fires only at the next forced
// preemption, so a draw that waited for ctx.Err() would overrun a short
// deadline by several chunks' worth of milliseconds.
func TestOverdueDeadlineStopsADrawWithinAChunk(t *testing.T) {
	data := []float64{90, 95, 100, 105, 110}
	req := PhaseReq{Draws: 10 * block.ChunkSize, Start: stats.NewRNG(1).State()}

	cb := &chunkCounter{Block: block.NewMemBlock(0, data)}
	ctx := overdueCtx{context.Background(), time.Now().Add(-time.Second)}
	if _, err := PhaseBlock(ctx, cb, req, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PhaseBlock past its deadline returned %v, want context.DeadlineExceeded", err)
	}
	if cb.chunks != 1 {
		t.Fatalf("%d chunks drawn past the deadline, want the one in flight", cb.chunks)
	}

	cb = &chunkCounter{Block: block.NewMemBlock(0, data)}
	ctx = overdueCtx{context.Background(), time.Now().Add(time.Hour)}
	rep, err := PhaseBlock(ctx, cb, req, nil)
	if err != nil || rep.M.Count() != req.Draws || cb.chunks != 10 {
		t.Fatalf("PhaseBlock ahead of its deadline: %d values in %d chunks, err %v; want all %d in 10",
			rep.M.Count(), cb.chunks, err, req.Draws)
	}
}
