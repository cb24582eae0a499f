// Package cluster is the paper's §VII-E deployment made concrete: blocks
// live on worker processes ("subsidiaries"), a coordinator ships each worker
// the frozen per-block parameters (boundaries, shift, draw count, generator
// state), and workers return only O(1) state per block — the per-region
// power sums of a planned request, or the exact moments of a moments
// request's accepted draws — the property that makes ISLA's network cost
// trivial. A phase travels as one Worker.Batch per worker, every item of it
// one PhaseArgs answered by one PhaseReply. Transport is net/rpc over TCP
// (or any net.Listener), standard library only.
//
// The coordinator resolves the per-block answers locally from the returned
// sums, so the aggregation logic stays in one place and a worker upgrade
// can never skew the estimator. Coordinator and workers come from the same
// build: a reply in another build's shape fails the batch.
//
// The transport is fault tolerant (see Config): every RPC runs under a
// per-call deadline, transient failures retry under capped exponential
// backoff with deterministic jitter and a per-query retry budget, workers
// manifested for the same block ids act as replicas with automatic failover,
// unhealthy workers are probed and readmitted in the background, and lost
// blocks either fail the query with a *BlocksLostError or — under the
// query's own AllowPartial — degrade it to an accounted answer over the
// reachable fraction.
// None of this moves an answer bit: every request carries its generator's
// start state, keyed to block order, so a retried or failed-over block
// recomputes identical sums.
// The package's tests drive all of it through a deterministic
// fault-injection harness.
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

// PhaseArgs is one block's phase request on the wire (core.PhaseReq):
// Draws draws with the generator resumed at state (S0, S1), under the
// batch's filter when it has one. An unfiltered probe resumes the
// coordinator's master RNG mid-stream — the coordinator computed the state
// by skipping the generator over every earlier block's probe
// (stats.RNG.SkipInt63n), so all blocks' requests are in flight at once —
// and checks the end state the reply carries against its prediction: the
// remote pilot consumes the stream the local per-block pilot threads through
// the blocks, bit for bit. Any other request starts a fresh RNG(seed)'s
// state. Bounds, when set, makes it a planned request: the draws, translated
// by Shift, fold into the S/L power sums of those boundaries.
type PhaseArgs struct {
	BlockID int
	Draws   int64
	S0, S1  uint64
	Bounds  *leverage.Boundaries
	Shift   float64
}

// RegionSums is the wire form of one region's power sums.
type RegionSums struct {
	Count           int64
	Sum, Sum2, Sum3 float64
}

// PhaseReply is core.PhaseRep on the wire, less what the coordinator
// resolves itself; it answers its item by position, naming no block. It
// carries the block's length and, for a moments request, the generator state
// after the draw and the settled moments of the accepted draws (Mean and M2
// as Moments reads them out, not a variance round-trip, so RebuildMoments
// gives back the worker's value) or, for a planned request, the fresh
// paramS/paramL with the centred sums Σ(a−c) and Σ(a−c)² over every draw
// (leverage.Accum's D and D2).
type PhaseReply struct {
	Len          int64
	Count        int64
	Mean, M2     float64
	Min, Max     float64
	EndS0, EndS1 uint64
	S, L         RegionSums
	D, D2        float64
}

// InfoReply describes the worker's blocks.
type InfoReply struct {
	BlockIDs []int
	Lens     []int64
}

// The retired wire forms: the per-kind items of the two phase kinds and of
// the filtered phases, which now travel as PhaseArgs/PhaseReply items. No
// production code sends them; they stay declared only because the layered
// benchmark's gob probe (benchmark/layers.go) still encodes them.
type (
	SampleArgs struct {
		BlockID               int
		Center, Sigma, P1, P2 float64
		Shift                 float64
		SampleSize            int64
		Seed                  uint64
	}
	SampleReply struct {
		BlockID int
		Len     int64
		Samples int64
		S, L    RegionSums
		D, D2   float64
	}
	PilotStateArgs struct {
		BlockID    int
		SampleSize int64
		S0, S1     uint64
	}
	PilotStateReply struct {
		BlockID      int
		Len          int64
		Count        int64
		Mean         float64
		M2           float64
		Min, Max     float64
		EndS0, EndS1 uint64
	}
	FilterArgs struct {
		BlockID    int
		SampleSize int64 // raw draws to service
		Seed       uint64
		Lo, Hi     float64
		Not        []float64
	}
	FilterValuesReply struct {
		BlockID  int
		Len      int64
		Accepted int64
		Values   []float64
	}
	FilterSampleReply struct {
		BlockID  int
		Len      int64
		Accepted int64
		Count    int64
		Mean     float64
		M2       float64
		Min, Max float64
	}
)

// BatchArgs is one worker's share of a phase: the requests of every block
// it serves, in one RPC, and the phase's filter when it has one — plain
// data, travelling once per batch. Empty fields cost nothing on the wire.
type BatchArgs struct {
	Filter *core.Filter
	Items  []PhaseArgs
}

// BatchReply answers BatchArgs item for item.
type BatchReply struct {
	Items []PhaseReply
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

// addBlock registers another block.
func (w *Worker) addBlock(b block.Block) {
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

// phase serves one of a Batch's items under the batch's filter f (nil:
// unfiltered) — core.PhaseBlock, the per-block function a local store runs,
// on the wire; a planned item's plan carries only the boundaries and shift
// it draws under, and its sums travel back unresolved. A block's zone-map
// class never travels: a shard source reports no summaries, so every
// filtered block samples through the filter.
func (w *Worker) phase(args PhaseArgs, f *core.Filter, reply *PhaseReply) error {
	b, err := w.lookup(args.BlockID)
	if err != nil {
		return err
	}
	if args.Draws <= 0 {
		return errors.New("cluster: non-positive draw count")
	}
	req := core.PhaseReq{Draws: args.Draws, Start: stats.RNGState{S0: args.S0, S1: args.S1}}
	if bb := args.Bounds; bb != nil {
		bounds, err := leverage.NewBoundaries(bb.Center, bb.Sigma, bb.P1, bb.P2)
		if err != nil {
			return err
		}
		req.Plan = &core.Plan{Shift: args.Shift, Bounds: bounds}
	}
	rep, err := core.PhaseBlock(w.lifetime(), b, req, f)
	if err != nil {
		return err
	}
	*reply = PhaseReply{Len: rep.Len, Count: rep.M.Count(), Mean: rep.M.Mean(),
		M2: rep.M.M2(), Min: rep.M.Min(), Max: rep.M.Max(), EndS0: rep.End.S0, EndS1: rep.End.S1}
	if acc := rep.Sums; acc != nil {
		reply.S, reply.L, reply.D, reply.D2 = RegionSums(acc.S), RegionSums(acc.L), acc.D, acc.D2
	}
	return nil
}

// Batch runs every item of a phase's batch through the per-block handler on
// the exec pool, one worker per CPU, so batching costs a multi-core worker
// no parallelism. Any item's error fails the batch. With Info it is the
// worker's whole RPC surface: the per-block handler is not exported.
func (w *Worker) Batch(args BatchArgs, reply *BatchReply) error {
	reply.Items = make([]PhaseReply, len(args.Items))
	_, err := exec.Run(w.lifetime(), exec.Pool(-1), len(args.Items),
		func(_ context.Context, i int) (struct{}, error) {
			return struct{}{}, w.phase(args.Items[i], args.Filter, &reply.Items[i])
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
