package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// errClosed is returned when a worker is admitted to a coordinator whose
// Close already ran: its probe loop is stopped and its worker slots are
// gone, so a late registration would strand a live client in a dead
// coordinator.
var errClosed = errors.New("cluster: coordinator is closed")

// coordinator is the transport of a ShardTable: the worker connections a
// shard manifest admitted, and the scatter that sends each phase of core's
// pipeline to them — one coalesced Worker.Batch per worker, every worker in
// flight at once — under the fault-tolerance layer: per-call deadlines,
// transient retries with deterministic backoff and replica failover; a
// query whose configuration allows it answers over the reachable fraction.
// The pipeline itself (Pre-estimation, Summarization) is core's; workers
// only sample and return moments or power sums.
//
// Workers admitted for the same block id are replicas of that block, in
// manifest order: the first healthy replica serves it, later ones take over
// when it fails. Because per-block seeds are keyed to block order — not to
// worker identity — a failed-over run returns the same answer bits as the
// healthy run.
type coordinator struct {
	fault Config   // resolved by withDefaults
	dial  DialFunc // the client factory

	mu      sync.Mutex
	workers []*workerConn
	// blockHome maps a block id to its replica workers in registration
	// order (indices into workers).
	blockHome map[int][]int
	blockLens map[int]int64
	stop      chan struct{}
	closed    bool
}

// newCoordinator returns a coordinator with no workers, its transport tuned
// by fault (zero fields select the package defaults) and its clients made by
// dial (nil selects TCP); NewShardTable admits the workers.
func newCoordinator(fault Config, dial DialFunc) *coordinator {
	if dial == nil {
		dial = dialTCP
	}
	return &coordinator{
		fault:     fault.withDefaults(),
		dial:      dial,
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
// fails with errClosed.
func (c *coordinator) connect(want ShardEntry) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return errClosed
	}
	client, serves, err := dialInventory(want.Addr, c.fault.CallTimeout, c.dial)
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
func (c *coordinator) register(client Client, serves map[int]int64, want ShardEntry) error {
	if err := want.Check(serves); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	for i, id := range want.Blocks {
		if have, ok := c.blockLens[id]; ok && have != want.Lens[i] {
			return fmt.Errorf("cluster: replica mismatch for block %d: %s serves %d rows, registered %d",
				id, want.Addr, want.Lens[i], have)
		}
	}
	idx := len(c.workers)
	c.workers = append(c.workers, &workerConn{addr: want.Addr, want: want, client: client})
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
func (c *coordinator) Close() error {
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
