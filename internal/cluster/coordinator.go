package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"isla/internal/core"
	"isla/internal/exec"
	"isla/internal/modulate"
	"isla/internal/stats"
)

// ErrClosed is returned by Connect on a coordinator whose Close already
// ran: its probe loop is stopped and its worker slots are gone, so a late
// registration would strand a live client in a dead coordinator.
var ErrClosed = errors.New("cluster: coordinator is closed")

// Coordinator drives an ISLA aggregation across RPC workers. It owns the
// Pre-estimation and Summarization modules; workers only execute the
// sampling phase and return power sums. Both the pilot fan-out and the
// calculation fan-out run on the shared exec runtime with RPC-backed block
// execution, under the fault-tolerance layer configured by Fault: per-call
// deadlines, transient retries with deterministic backoff, replica
// failover and (optionally) partial answers over the reachable fraction.
//
// Workers registering the same block id become replicas of that block, in
// registration order: the first healthy replica serves it, later ones take
// over when it fails. Because per-block seeds are keyed to block order —
// not to worker identity — a failed-over run returns the same answer bits
// as the healthy run.
type Coordinator struct {
	Cfg core.Config
	// Workers bounds how many per-block RPCs Run/RunContext — the legacy
	// whole-pipeline entry points — keep in flight at once. Zero or negative
	// means one per block (the fan-out is network-bound, not CPU-bound).
	// The sharded phases of a ShardTable do not consult it: they send one
	// coalesced Worker.Batch per worker, every worker in flight at once.
	Workers int
	// Fault tunes the fault-tolerance layer; the zero value selects the
	// package defaults (see Config).
	Fault Config
	// DialClient optionally replaces the transport's client factory —
	// the hook the fault-injection harness (Faults.Wrap) and tests use.
	// Nil selects DialTCP.
	DialClient DialFunc

	mu      sync.Mutex
	workers []*workerConn
	// blockHome maps a block id to its replica workers in registration
	// order (indices into workers).
	blockHome map[int][]int
	blockLens map[int]int64
	stop      chan struct{}
	closed    bool
}

// NewCoordinator returns a coordinator with the given estimator config.
func NewCoordinator(cfg core.Config) *Coordinator {
	return &Coordinator{
		Cfg:       cfg,
		blockHome: make(map[int][]int),
		blockLens: make(map[int]int64),
		stop:      make(chan struct{}),
	}
}

// Connect dials a worker and registers its blocks. Safe to call for
// several workers, including concurrently with a running query. A block id
// already registered by an earlier worker makes this worker a replica of
// that block — replicas must agree on the block's length. A worker whose
// inventory lists the same block id twice is rejected: registering the
// duplicate would make the worker its own replica, so failover would
// "retry" the very worker that just died. Connect on a closed coordinator
// fails with ErrClosed.
func (c *Coordinator) Connect(addr string) error {
	return c.connect(addr, nil)
}

// connect dials addr, validates its inventory and registers its blocks.
// want, when non-nil, is the manifest-driven path: the worker must serve
// every wanted block id at the wanted length, and only those blocks are
// registered (extra blocks the worker happens to hold stay out of the
// table). Entries in want follow the order of its ids slice.
func (c *Coordinator) connect(addr string, want *ShardEntry) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	client, err := c.dial(addr)
	if err != nil {
		return fmt.Errorf("cluster: dialing %s: %w", addr, err)
	}
	var info InfoReply
	if err := c.ping(client, &info); err != nil {
		client.Close()
		return fmt.Errorf("cluster: querying %s: %w", addr, err)
	}
	if len(info.BlockIDs) != len(info.Lens) {
		client.Close()
		return fmt.Errorf("cluster: malformed inventory from %s: %d block ids, %d lengths",
			addr, len(info.BlockIDs), len(info.Lens))
	}
	// Validate within the single reply first: an intra-reply duplicate must
	// not survive to registration (blockHome[id] = [idx, idx] would make
	// the worker its own failover target), and it must not dodge the
	// replica length check just because blockLens is only written below.
	serves := make(map[int]int64, len(info.BlockIDs))
	for i, id := range info.BlockIDs {
		if prev, dup := serves[id]; dup {
			client.Close()
			if prev != info.Lens[i] {
				return fmt.Errorf("cluster: %s lists block %d twice with conflicting lengths %d and %d",
					addr, id, prev, info.Lens[i])
			}
			return fmt.Errorf("cluster: %s lists block %d twice — a worker cannot be its own replica", addr, id)
		}
		serves[id] = info.Lens[i]
	}
	ids, lens := info.BlockIDs, info.Lens
	if want != nil {
		for i, id := range want.Blocks {
			have, ok := serves[id]
			if !ok {
				client.Close()
				return fmt.Errorf("cluster: %s does not serve block %d assigned to it by the shard manifest", addr, id)
			}
			if have != want.Lens[i] {
				client.Close()
				return fmt.Errorf("cluster: manifest mismatch for block %d: %s serves %d rows, manifest records %d",
					id, addr, have, want.Lens[i])
			}
		}
		ids, lens = want.Blocks, want.Lens
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		client.Close()
		return ErrClosed
	}
	for i, id := range ids {
		if have, ok := c.blockLens[id]; ok && have != lens[i] {
			client.Close()
			return fmt.Errorf("cluster: replica mismatch for block %d: %s serves %d rows, registered %d",
				id, addr, lens[i], have)
		}
	}
	idx := len(c.workers)
	c.workers = append(c.workers, &workerConn{addr: addr, client: client})
	for i, id := range ids {
		c.blockHome[id] = append(c.blockHome[id], idx)
		c.blockLens[id] = lens[i]
	}
	return nil
}

// Close closes every worker connection, stops background health probes and
// clears the registration state, so a closed coordinator reports zero rows
// and a post-Close Run fails with core.ErrEmptyStore instead of
// dispatching into an empty worker set.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	workers := c.workers
	c.workers = nil
	c.blockHome = make(map[int][]int)
	c.blockLens = make(map[int]int64)
	c.mu.Unlock()
	var first error
	for _, w := range workers {
		w.mu.Lock()
		cl := w.client
		w.client = nil
		w.mu.Unlock()
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TotalLen returns the cluster-wide row count M. Replicated blocks count
// once.
func (c *Coordinator) TotalLen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, l := range c.blockLens {
		t += l
	}
	return t
}

// snapshot captures the registered blocks — ids in ascending order, their
// lengths, and the total — so a running query is immune to concurrent
// Connect calls growing the map under it.
func (c *Coordinator) snapshot() (ids []int, lens []int64, total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids = make([]int, 0, len(c.blockHome))
	for id := range c.blockHome {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	lens = make([]int64, len(ids))
	for i, id := range ids {
		lens[i] = c.blockLens[id]
		total += lens[i]
	}
	return ids, lens, total
}

// Run executes the full distributed pipeline and returns the standard ISLA
// result. The per-block sampling runs concurrently across workers.
func (c *Coordinator) Run() (core.Result, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with a cancellation context: every RPC — pilot and
// calculation alike — is scheduled under ctx and the per-call deadline, so
// the run aborts promptly when ctx is cancelled.
//
// When a block loses every replica mid-run the query fails with a
// *BlocksLostError, unless Fault.AllowPartial is set — then the answer
// covers the reachable fraction and Result.Partial carries the accounting.
func (c *Coordinator) RunContext(ctx context.Context) (core.Result, error) {
	if err := c.Cfg.Validate(); err != nil {
		return core.Result{}, err
	}
	ids, lens, total := c.snapshot()
	if len(ids) == 0 || total == 0 {
		return core.Result{}, core.ErrEmptyStore
	}
	q := c.newQuery()
	r := stats.NewRNG(c.Cfg.Seed)

	// --- Pre-estimation across the cluster: pilot each block with a size
	// proportional to its share, pool the moments. Per-block moments are
	// retained for the non-i.i.d. mode (§VII-C over §VII-E).
	pilot, perBlockPilots, err := c.preEstimate(ctx, q, ids, lens, total, r)
	if err != nil {
		return core.Result{}, err
	}
	shift := 0.0
	if pilot.Min <= 0 {
		shift = -pilot.Min + pilot.Sigma + 1
	}

	// --- Calculation on the exec runtime: ship Algorithm 1 to a replica
	// of the block, resolve Algorithm 2 locally. Seeds are keyed to block
	// order, so the answer is independent of worker topology, fan-out
	// width, and which replica ends up serving a block.
	seeds := exec.Seeds(r, len(ids))
	type blockOut struct {
		br   core.BlockResult
		lost bool
	}
	outs, err := exec.Run(ctx, c.inflight(len(ids)), len(ids),
		func(ctx context.Context, i int) (blockOut, error) {
			id := ids[i]
			if q.isLost(id) {
				return blockOut{lost: true}, nil
			}
			// Per-block geometry in non-i.i.d. mode, global otherwise.
			bp := pilot
			if c.Cfg.PerBlockBounds {
				if own, ok := perBlockPilots[id]; ok && own.Count() > 1 {
					bp.Sketch0 = own.Mean()
					bp.Sigma = own.SampleStdDev()
				}
			}
			opts := modOptions(c.Cfg, bp.Sigma, bp.RelaxedE)
			br, err := c.runBlock(ctx, q, id, lens[i], bp, shift, seeds[i], opts)
			if err == errSkipLost {
				return blockOut{lost: true}, nil
			}
			if err != nil {
				return blockOut{}, err
			}
			return blockOut{br: br}, nil
		})
	if err != nil {
		return core.Result{}, err
	}

	perBlock := make([]core.BlockResult, 0, len(outs))
	var covered int64
	var missing []int
	for i, o := range outs {
		if o.lost || q.isLost(ids[i]) {
			missing = append(missing, ids[i])
			continue
		}
		perBlock = append(perBlock, o.br)
		covered += o.br.Len
	}
	if len(missing) == 0 {
		return core.SummarizeBlocks(c.Cfg, pilot, shift, perBlock, total), nil
	}
	if covered == 0 {
		return core.Result{}, &BlocksLostError{Blocks: missing}
	}
	// Graceful degradation: the estimate averages the blocks that
	// answered, weighted over the covered rows only, and the loss is
	// declared instead of silently diluting the answer.
	res := core.SummarizeBlocks(c.Cfg, pilot, shift, perBlock, covered)
	res.Partial = &core.Partial{MissingBlocks: missing, CoveredRows: covered, TotalRows: total}
	return res, nil
}

// inflight resolves the Workers knob against the block count.
func (c *Coordinator) inflight(n int) int {
	if c.Workers <= 0 {
		return n
	}
	return c.Workers
}

// pilotPass fans one pilot round out over the exec runtime: per-block
// seeds are drawn in block order before dispatch (so results are
// bit-identical for any fan-out width and any replica placement), quota
// computes each block's share, and the moments merge in block order after
// the barrier. Blocks already lost are skipped; blocks lost during the
// pass are recorded in q (AllowPartial) or abort it (typed error).
func (c *Coordinator) pilotPass(ctx context.Context, q *qstate, ids []int, lens []int64, r *stats.RNG, quota func(blen int64) int64) ([]stats.Moments, []bool, error) {
	seeds := exec.Seeds(r, len(ids))
	type pilotOut struct {
		m  stats.Moments
		ok bool
	}
	outs, err := exec.Run(ctx, c.inflight(len(ids)), len(ids),
		func(ctx context.Context, i int) (pilotOut, error) {
			id := ids[i]
			if lens[i] == 0 || q.isLost(id) {
				return pilotOut{}, nil
			}
			args := PilotArgs{BlockID: id, SampleSize: quota(lens[i]), Seed: seeds[i]}
			var rep PilotReply
			err := c.callBlock(ctx, q, id, "Worker.Pilot", args, &rep)
			if err == errSkipLost {
				return pilotOut{}, nil
			}
			if err != nil {
				return pilotOut{}, err
			}
			return pilotOut{m: momentsFrom(rep), ok: true}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	ms := make([]stats.Moments, len(outs))
	oks := make([]bool, len(outs))
	for i, o := range outs {
		ms[i], oks[i] = o.m, o.ok
	}
	return ms, oks, nil
}

// preEstimate pools per-block pilot moments into the global σ, sketch0 and
// sampling rate (Eq. 1), returning the per-block moments as well for the
// non-i.i.d. mode. Both passes run concurrently on the exec runtime under
// ctx and the per-call fault-tolerance ladder.
func (c *Coordinator) preEstimate(ctx context.Context, q *qstate, ids []int, lens []int64, total int64, r *stats.RNG) (core.Pilot, map[int]*stats.Moments, error) {
	const probeTotal = 2000
	perBlock := make(map[int]*stats.Moments, len(ids))
	var pooled stats.Moments
	probes, oks, err := c.pilotPass(ctx, q, ids, lens, r, func(blen int64) int64 {
		quota := int64(probeTotal) * blen / total
		if quota < 50 {
			quota = 50
		}
		return quota
	})
	if err != nil {
		return core.Pilot{}, nil, err
	}
	for i := range probes {
		if !oks[i] {
			continue
		}
		m := probes[i]
		perBlock[ids[i]] = &m
		pooled.Merge(probes[i])
	}
	if pooled.Count() == 0 {
		return core.Pilot{}, nil, &BlocksLostError{Blocks: q.lostBlocks()}
	}
	sigma := pooled.SampleStdDev()
	relaxed := c.Cfg.RelaxFactor * c.Cfg.Precision

	// Second pass at the relaxed precision for sketch0.
	pilotSize, err := stats.RequiredSampleSize(sigma, relaxed, c.Cfg.Confidence)
	if err != nil {
		return core.Pilot{}, nil, err
	}
	if pilotSize > total {
		pilotSize = total
	}
	var sketchAcc stats.Moments
	sketches, oks, err := c.pilotPass(ctx, q, ids, lens, r, func(blen int64) int64 {
		quota := pilotSize * blen / total
		if quota < 1 {
			quota = 1
		}
		return quota
	})
	if err != nil {
		return core.Pilot{}, nil, err
	}
	for i := range sketches {
		if !oks[i] {
			continue
		}
		if pb, ok := perBlock[ids[i]]; ok {
			pb.Merge(sketches[i])
		}
		sketchAcc.Merge(sketches[i])
	}
	if sketchAcc.Count() == 0 {
		return core.Pilot{}, nil, &BlocksLostError{Blocks: q.lostBlocks()}
	}

	sigma = sketchAcc.SampleStdDev()
	m, err := stats.RequiredSampleSize(sigma, c.Cfg.Precision, c.Cfg.Confidence)
	if err != nil {
		return core.Pilot{}, nil, err
	}
	m = int64(float64(m) * c.Cfg.SampleFraction)
	if m < 1 {
		m = 1
	}
	rate := float64(m) / float64(total)
	if rate > c.Cfg.MaxSampleRate {
		rate = c.Cfg.MaxSampleRate
		m = int64(rate * float64(total))
	}
	return core.Pilot{
		Sketch0:    sketchAcc.Mean(),
		Sigma:      sigma,
		SampleRate: rate,
		SampleSize: m,
		PilotSize:  pooled.Count() + sketchAcc.Count(),
		RelaxedE:   relaxed,
		Min:        sketchAcc.Min(),
		Max:        sketchAcc.Max(),
	}, perBlock, nil
}

// runBlock ships Algorithm 1 to a replica of the block and resolves
// Algorithm 2 from the returned sums.
func (c *Coordinator) runBlock(ctx context.Context, q *qstate, id int, blen int64, pilot core.Pilot, shift float64, seed uint64, opts modulate.Options) (core.BlockResult, error) {
	m := int64(pilot.SampleRate * float64(blen))
	if m < 1 {
		m = 1
	}
	args := SampleArgs{
		BlockID:    id,
		Center:     pilot.Sketch0 + shift,
		Sigma:      pilot.Sigma,
		P1:         c.Cfg.P1,
		P2:         c.Cfg.P2,
		Shift:      shift,
		SampleSize: m,
		Seed:       seed,
	}
	var rep SampleReply
	if err := c.callBlock(ctx, q, id, "Worker.Sample", args, &rep); err != nil {
		return core.BlockResult{}, err
	}
	s := stats.PowerSums{Count: rep.S.Count, Sum: rep.S.Sum, Sum2: rep.S.Sum2, Sum3: rep.S.Sum3}
	l := stats.PowerSums{Count: rep.L.Count, Sum: rep.L.Sum, Sum2: rep.L.Sum2, Sum3: rep.L.Sum3}
	detail, err := modulate.Run(s, l, pilot.Sketch0+shift, c.Cfg.QPolicy, opts)
	if err != nil {
		return core.BlockResult{}, err
	}
	return core.BlockResult{
		BlockID: id,
		Len:     blen,
		Samples: rep.Samples,
		Answer:  detail.Answer - shift,
		Detail:  detail,
	}, nil
}

// momentsFrom reconstructs stats.Moments from a pilot reply.
func momentsFrom(rep PilotReply) stats.Moments {
	return stats.RebuildMoments(rep.Count, rep.Mean, rep.M2, rep.Min, rep.Max)
}

// modOptions mirrors core's private conversion for coordinator use.
func modOptions(cfg core.Config, sigma, bound float64) modulate.Options {
	return modulate.Options{
		Mode:        cfg.StepMode,
		Eta:         cfg.Eta,
		Lambda:      cfg.Lambda,
		Threshold:   cfg.Threshold,
		BalanceBand: cfg.BalanceBand,
		Sigma:       sigma,
		P1:          cfg.P1,
		P2:          cfg.P2,
		SketchBound: bound,
	}
}
