// Package cluster is the paper's §VII-E deployment made concrete: blocks
// live on worker processes ("subsidiaries"), a coordinator ships each worker
// the frozen per-block parameters (boundaries, sketch0, sampling rate), and
// workers return only the O(1) per-region power sums — the property that
// makes ISLA's network cost trivial. Transport is net/rpc over TCP (or any
// net.Listener), standard library only.
//
// The coordinator resolves the per-block answers locally from the returned
// sums, so the aggregation logic stays in one place and a worker upgrade
// can never skew the estimator.
//
// The transport is fault tolerant (see Config): every RPC runs under a
// per-call deadline, transient failures retry under capped exponential
// backoff with deterministic jitter and a per-query retry budget, workers
// manifested for the same block ids act as replicas with automatic failover,
// unhealthy workers are probed and readmitted in the background, and lost
// blocks either fail the query with a *BlocksLostError or — in AllowPartial
// mode — degrade it to an accounted answer over the reachable fraction.
// None of this moves an answer bit: per-block seeds are keyed to block
// order, so a retried or failed-over block recomputes identical power sums.
// Faults is a deterministic fault-injection harness for testing all of it.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/exec"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// SampleArgs asks a worker to run Algorithm 1 on one of its blocks.
type SampleArgs struct {
	BlockID int
	// Boundaries of the (possibly shifted) data regions.
	Center, Sigma, P1, P2 float64
	// Shift is the negative-data translation to add to every value.
	Shift float64
	// SampleSize is the number of uniform draws.
	SampleSize int64
	// Seed drives the worker-side RNG; the coordinator splits seeds so
	// results are deterministic.
	Seed uint64
}

// RegionSums is the wire form of one region's power sums.
type RegionSums struct {
	Count           int64
	Sum, Sum2, Sum3 float64
}

// SampleReply carries a block's paramS/paramL back to the coordinator.
type SampleReply struct {
	BlockID int
	Len     int64
	Samples int64
	S, L    RegionSums
}

// InfoReply describes the worker's blocks.
type InfoReply struct {
	BlockIDs []int
	Lens     []int64
}

// PilotStateArgs asks a worker for a pilot draw that resumes the
// coordinator's master RNG mid-stream: the draw starts at state (S0, S1) —
// which the coordinator computed by skipping the generator over every
// earlier block's probe (stats.RNG.SkipInt63n), so all blocks' requests are
// in flight at once — and the reply carries the state left afterwards,
// which the coordinator checks against its prediction. The remote pilot
// thus consumes the stream the local per-block pilot threads through the
// blocks, bit for bit.
type PilotStateArgs struct {
	BlockID    int
	SampleSize int64
	S0, S1     uint64
}

// PilotStateReply carries the pilot draw's exact streaming moments (M2 is
// the raw Welford sum, not a variance round-trip) plus the generator state
// after the draw.
type PilotStateReply struct {
	BlockID      int
	Len          int64
	Count        int64
	Mean         float64
	M2           float64
	Min, Max     float64
	EndS0, EndS1 uint64
}

// FilterArgs asks a worker to service raw draws on one block under a
// compiled filter — core.Filter's data, field for field: the closed interval
// [Lo, Hi] minus the excluded points Not (gob omits the empty slice, so a
// pure range costs the wire nothing for it). The worker runs the same fused
// filtered gather kernel the local estimator uses.
type FilterArgs struct {
	BlockID    int
	SampleSize int64 // raw draws to service
	Seed       uint64
	Lo, Hi     float64
	Not        []float64
}

// FilterValuesReply returns the accepted values themselves, in draw order
// — what the filter pilot needs, because its moments accumulate across
// blocks in one shared fold on the coordinator.
type FilterValuesReply struct {
	BlockID  int
	Len      int64
	Accepted int64
	Values   []float64
}

// FilterSampleReply returns the accepted count and the exact streaming
// moments of the accepted values — the O(1)-per-block wire form the
// filtered calculation phase merges.
type FilterSampleReply struct {
	BlockID  int
	Len      int64
	Accepted int64
	Count    int64
	Mean     float64
	M2       float64
	Min, Max float64
}

// BatchArgs is one worker's share of a phase: the requests of every block
// it serves, in one RPC. A phase fills exactly one of the slices (empty
// slices cost nothing on the wire).
type BatchArgs struct {
	Pilot        []PilotStateArgs
	FilterValues []FilterArgs
	FilterSample []FilterArgs
	Sample       []SampleArgs
}

// BatchReply answers BatchArgs slice for slice, item for item.
type BatchReply struct {
	Pilot        []PilotStateReply
	FilterValues []FilterValuesReply
	FilterSample []FilterSampleReply
	Sample       []SampleReply
}

// Worker serves block computations over RPC. Create with NewWorker, then
// Serve on a listener.
type Worker struct {
	mu        sync.RWMutex
	blocks    map[int]block.Block
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	serveErr  chan error
	// life is the context the handlers draw under (net/rpc hands them none
	// for the call). Close cancels it once the connections are shut — nobody
	// is left to answer, so the draws in flight stop within a chunk — and
	// arms a fresh one, because a closed worker may Serve again.
	life context.Context
	stop context.CancelFunc
}

// NewWorker returns a worker owning the given blocks.
func NewWorker(blocks ...block.Block) *Worker {
	w := &Worker{
		blocks:   make(map[int]block.Block, len(blocks)),
		conns:    make(map[net.Conn]struct{}),
		serveErr: make(chan error, 1),
	}
	w.life, w.stop = context.WithCancel(context.Background())
	for _, b := range blocks {
		w.blocks[b.ID()] = b
	}
	return w
}

// AddBlock registers another block.
func (w *Worker) AddBlock(b block.Block) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.blocks[b.ID()] = b
}

func (w *Worker) lookup(id int) (block.Block, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	b, ok := w.blocks[id]
	if !ok {
		return nil, fmt.Errorf("cluster: worker has no block %d", id)
	}
	return b, nil
}

// lifetime returns the context the worker's current incarnation draws under.
func (w *Worker) lifetime() context.Context {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.life
}

// Info reports the worker's block inventory.
func (w *Worker) Info(_ struct{}, reply *InfoReply) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for id, b := range w.blocks {
		reply.BlockIDs = append(reply.BlockIDs, id)
		reply.Lens = append(reply.Lens, b.Len())
	}
	return nil
}

// pilotState serves one of a Batch's Pilot items: a pilot sample that
// resumes the coordinator's master RNG at the supplied state, reporting the
// state left after the draw — core.PilotBlock, the probe a local store runs,
// on the wire.
func (w *Worker) pilotState(args PilotStateArgs, reply *PilotStateReply) error {
	b, err := w.lookup(args.BlockID)
	if err != nil {
		return err
	}
	if args.SampleSize <= 0 {
		return errors.New("cluster: non-positive pilot size")
	}
	rep, err := core.PilotBlock(w.lifetime(), b, core.PilotReq{Size: args.SampleSize, Start: stats.RNGState{S0: args.S0, S1: args.S1}})
	if err != nil {
		return err
	}
	*reply = PilotStateReply{BlockID: args.BlockID, Len: rep.Len, Count: rep.M.Count(), Mean: rep.M.Mean(),
		M2: rep.M.M2(), Min: rep.M.Min(), Max: rep.M.Max(), EndS0: rep.End.S0, EndS1: rep.End.S1}
	return nil
}

// filterReq lifts a wire request into the per-block functions' form; a
// block's class never travels (a shard source reports no summaries, so every
// block samples through the filter).
func (args FilterArgs) filterReq() (core.FilterReq, core.Filter, error) {
	if args.SampleSize <= 0 {
		return core.FilterReq{}, core.Filter{}, errors.New("cluster: non-positive sample size")
	}
	return core.FilterReq{Seed: args.Seed, Draws: args.SampleSize},
		core.Filter{Lo: args.Lo, Hi: args.Hi, Not: args.Not}, nil
}

// filterValues serves one of a Batch's FilterValues items: raw draws under
// the filter, returning the accepted values in draw order —
// core.FilterPilotBlock, the filter pilot's push-down.
func (w *Worker) filterValues(args FilterArgs, reply *FilterValuesReply) error {
	b, err := w.lookup(args.BlockID)
	if err != nil {
		return err
	}
	req, f, err := args.filterReq()
	if err != nil {
		return err
	}
	vals, err := core.FilterPilotBlock(w.lifetime(), b, req, f)
	if err != nil {
		return err
	}
	*reply = FilterValuesReply{BlockID: args.BlockID, Len: b.Len(), Accepted: int64(len(vals)), Values: vals}
	return nil
}

// filterSample serves one of a Batch's FilterSample items: raw draws under
// the filter, returning the accepted count plus the exact moments of the
// accepted values — core.FilterCalcBlock, the filtered calculation phase's
// push-down; only O(1) state travels back.
func (w *Worker) filterSample(args FilterArgs, reply *FilterSampleReply) error {
	b, err := w.lookup(args.BlockID)
	if err != nil {
		return err
	}
	req, f, err := args.filterReq()
	if err != nil {
		return err
	}
	rep, err := core.FilterCalcBlock(w.lifetime(), b, req, f)
	if err != nil {
		return err
	}
	*reply = FilterSampleReply{BlockID: args.BlockID, Len: b.Len(), Accepted: rep.Accepted, Count: rep.M.Count(),
		Mean: rep.M.Mean(), M2: rep.M.M2(), Min: rep.M.Min(), Max: rep.M.Max()}
	return nil
}

// sample serves one of a Batch's Sample items: Algorithm 1 on one block
// (core.SampleSums), uniform draws classified against the supplied
// boundaries and folded into the S/L power sums. Only the sums travel back.
func (w *Worker) sample(args SampleArgs, reply *SampleReply) error {
	b, err := w.lookup(args.BlockID)
	if err != nil {
		return err
	}
	bounds, err := leverage.NewBoundaries(args.Center, args.Sigma, args.P1, args.P2)
	if err != nil {
		return err
	}
	if args.SampleSize <= 0 {
		return errors.New("cluster: non-positive sample size")
	}
	acc, err := core.SampleSums(w.lifetime(), b, stats.NewRNG(args.Seed), args.SampleSize, bounds, args.Shift)
	if err != nil {
		return err
	}
	reply.BlockID = args.BlockID
	reply.Len = b.Len()
	reply.Samples = args.SampleSize
	reply.S = RegionSums{Count: acc.S.Count, Sum: acc.S.Sum, Sum2: acc.S.Sum2, Sum3: acc.S.Sum3}
	reply.L = RegionSums{Count: acc.L.Count, Sum: acc.L.Sum, Sum2: acc.L.Sum2, Sum3: acc.L.Sum3}
	return nil
}

// Batch runs every item of a phase's batch through its per-block handler on
// the exec pool, one worker per CPU, so batching costs a multi-core worker
// no parallelism. Any item's error fails the batch. With Info it is the
// worker's whole RPC surface: the per-block handlers are not exported.
func (w *Worker) Batch(args BatchArgs, reply *BatchReply) error {
	ctx := w.lifetime()
	return errors.Join(
		runBatch(ctx, args.Pilot, &reply.Pilot, w.pilotState),
		runBatch(ctx, args.FilterValues, &reply.FilterValues, w.filterValues),
		runBatch(ctx, args.FilterSample, &reply.FilterSample, w.filterSample),
		runBatch(ctx, args.Sample, &reply.Sample, w.sample))
}

func runBatch[A, R any](ctx context.Context, args []A, reps *[]R, handle func(A, *R) error) error {
	*reps = make([]R, len(args))
	_, err := exec.Run(ctx, exec.Pool(-1), len(args),
		func(_ context.Context, i int) (struct{}, error) {
			return struct{}{}, handle(args[i], &(*reps)[i])
		})
	return err
}

// Serve registers the worker on a fresh rpc.Server and accepts connections
// on l until the listener is closed. It blocks; run it in a goroutine.
// A graceful shutdown — the listener closed by the caller or by Close —
// returns nil; any other accept failure is returned as-is.
func (w *Worker) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return err
	}
	w.mu.Lock()
	w.listeners = append(w.listeners, l)
	w.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		w.mu.Lock()
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go func() {
			srv.ServeConn(conn)
			conn.Close()
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// serveNotify runs Serve and forwards a real accept failure (not a
// graceful close) to the ServeError channel — the goroutine body of
// ListenAndServe.
func (w *Worker) serveNotify(l net.Listener) {
	if err := w.Serve(l); err != nil {
		select {
		case w.serveErr <- err:
		default: // an earlier failure is already pending
		}
	}
}

// ServeError surfaces accept-loop failures from ListenAndServe: a real
// accept error (not a graceful listener close) is delivered here instead
// of being swallowed. The channel holds at most one error.
func (w *Worker) ServeError() <-chan error { return w.serveErr }

// ListenAndServe starts the worker on addr (e.g. "127.0.0.1:0") and returns
// the bound listener so callers learn the port and can shut it down.
// Accept failures surface on ServeError.
func (w *Worker) ListenAndServe(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go w.serveNotify(l)
	return l, nil
}

// Close shuts the worker down hard: every listener and every established
// connection closes, so in-flight coordinator calls fail fast instead of
// hanging, and the draws behind them stop within a chunk — this is the
// "kill the worker" primitive the chaos harness and process shutdown use.
// The worker can serve again afterwards on a fresh listener.
func (w *Worker) Close() error {
	w.mu.Lock()
	listeners := w.listeners
	w.listeners = nil
	conns := make([]net.Conn, 0, len(w.conns))
	for conn := range w.conns {
		conns = append(conns, conn)
	}
	w.conns = make(map[net.Conn]struct{})
	stop := w.stop
	w.life, w.stop = context.WithCancel(context.Background())
	w.mu.Unlock()
	var first error
	for _, l := range listeners {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	// Cancel the draws only now that no connection is left to carry a
	// reply: a handler's context.Canceled written to a live connection
	// would reach the coordinator as a server error, which does not fail
	// over, where a killed worker must look like a dead transport.
	stop()
	return first
}
