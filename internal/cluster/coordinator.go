package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"isla/internal/core"
)

// ErrClosed is returned when a worker is admitted to a coordinator whose
// Close already ran: its probe loop is stopped and its worker slots are
// gone, so a late registration would strand a live client in a dead
// coordinator.
var ErrClosed = errors.New("cluster: coordinator is closed")

// Coordinator is the transport of a ShardTable: the worker connections a
// shard manifest admitted, and the scatter that sends each phase of core's
// pipeline to them — one coalesced Worker.Batch per worker, every worker in
// flight at once — under the fault-tolerance layer configured by Fault:
// per-call deadlines, transient retries with deterministic backoff, replica
// failover and (optionally) partial answers over the reachable fraction.
// The pipeline itself (Pre-estimation, Summarization) is core's; workers
// only sample and return power sums.
//
// Workers admitted for the same block id are replicas of that block, in
// manifest order: the first healthy replica serves it, later ones take over
// when it fails. Because per-block seeds are keyed to block order — not to
// worker identity — a failed-over run returns the same answer bits as the
// healthy run.
type Coordinator struct {
	Cfg core.Config
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

// NewCoordinator returns a coordinator with the given estimator config and
// no workers; NewShardTable admits them.
func NewCoordinator(cfg core.Config) *Coordinator {
	return &Coordinator{
		Cfg:       cfg,
		blockHome: make(map[int][]int),
		blockLens: make(map[int]int64),
		stop:      make(chan struct{}),
	}
}

// dialInventory dials a worker and asks what it serves: the live client plus
// the rows per block id of its Info reply.
func dialInventory(addr string, timeout time.Duration, dial DialFunc) (Client, map[int]int64, error) {
	client, err := dial(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: dialing %s: %w", addr, err)
	}
	serves, err := readInventory(client, addr, timeout)
	if err != nil {
		client.Close()
		return nil, nil, err
	}
	return client, serves, nil
}

// readInventory fetches and validates one worker's Info reply. A reply
// listing the same block id twice is rejected: registering the duplicate
// would make the worker its own replica, so failover would "retry" the very
// worker that just died.
func readInventory(client Client, addr string, timeout time.Duration) (map[int]int64, error) {
	var info InfoReply
	if err := ping(client, timeout, &info); err != nil {
		return nil, fmt.Errorf("cluster: querying %s: %w", addr, err)
	}
	if len(info.BlockIDs) != len(info.Lens) {
		return nil, fmt.Errorf("cluster: malformed inventory from %s: %d block ids, %d lengths",
			addr, len(info.BlockIDs), len(info.Lens))
	}
	serves := make(map[int]int64, len(info.BlockIDs))
	for i, id := range info.BlockIDs {
		if prev, dup := serves[id]; dup {
			if prev != info.Lens[i] {
				return nil, fmt.Errorf("cluster: %s lists block %d twice with conflicting lengths %d and %d",
					addr, id, prev, info.Lens[i])
			}
			return nil, fmt.Errorf("cluster: %s lists block %d twice — a worker cannot be its own replica", addr, id)
		}
		serves[id] = info.Lens[i]
	}
	return serves, nil
}

// connect dials the worker of one manifest entry, validates its inventory
// and registers the entry's blocks: the worker must serve every assigned
// block id at the recorded length, and only those blocks are registered
// (extra blocks the worker happens to hold stay out of the table). A block
// id an earlier entry registered makes this worker a replica of that block
// — replicas must agree on the block's length. On a closed coordinator it
// fails with ErrClosed.
func (c *Coordinator) connect(want ShardEntry) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	client, serves, err := dialInventory(want.Addr, c.Fault.withDefaults().CallTimeout, c.dial)
	if err != nil {
		return err
	}
	if err := c.register(client, serves, want); err != nil {
		client.Close()
		return err
	}
	return nil
}

// register admits a dialed worker under its manifest entry.
func (c *Coordinator) register(client Client, serves map[int]int64, want ShardEntry) error {
	for i, id := range want.Blocks {
		have, ok := serves[id]
		if !ok {
			return fmt.Errorf("cluster: %s does not serve block %d assigned to it by the shard manifest", want.Addr, id)
		}
		if have != want.Lens[i] {
			return fmt.Errorf("cluster: manifest mismatch for block %d: %s serves %d rows, manifest records %d",
				id, want.Addr, have, want.Lens[i])
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for i, id := range want.Blocks {
		if have, ok := c.blockLens[id]; ok && have != want.Lens[i] {
			return fmt.Errorf("cluster: replica mismatch for block %d: %s serves %d rows, registered %d",
				id, want.Addr, want.Lens[i], have)
		}
	}
	idx := len(c.workers)
	c.workers = append(c.workers, &workerConn{addr: want.Addr, client: client})
	for i, id := range want.Blocks {
		c.blockHome[id] = append(c.blockHome[id], idx)
		c.blockLens[id] = want.Lens[i]
	}
	return nil
}

// Close closes every worker connection, stops background health probes and
// clears the registration state, so a query that outlives its table finds
// every block without a home and fails with a *BlocksLostError instead of
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
