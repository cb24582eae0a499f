package cluster

import (
	"fmt"
	"net/rpc"
	"sync"
	"syscall"
	"time"
)

// Faults is a deterministic fault-injection harness for the cluster
// transport, used by the chaos test battery and usable against real
// deployments. Wrap the table's dialer:
//
//	f := NewFaults(seed)
//	f.ErrorProb = 0.2
//	st, err := NewShardTable(man, cfg, fault, f.Wrap(DialTCP))
//
// Per data-path call (Worker.Batch) a seeded PRNG decides
// drop/delay/error; the decision stream is keyed on (seed, worker address,
// per-address call ordinal), so each worker's fault sequence is
// reproducible in its own call order. Registration and health probes
// (Worker.Info) are never faulted, so setup and readmission stay clean.
//
// Scripted hooks complement the randomness: Script(addr, n, hook) fires
// hook exactly once, on the n-th data-path call to addr — the "kill this
// worker mid-query" primitive (the hook typically calls Worker.Close).
type Faults struct {
	// Seed drives the per-call decision PRNG.
	Seed uint64
	// ErrorProb is the probability a call fails immediately with an
	// injected connection reset (classified transient, so it exercises
	// the retry path).
	ErrorProb float64
	// HangProb is the probability a call never completes until its
	// connection is closed (exercises Config.CallTimeout and the
	// drop-suspect-connection path).
	HangProb float64
	// DelayProb is the probability a call is delayed by Delay before
	// being forwarded unharmed (exercises slow-worker behavior below the
	// timeout).
	DelayProb float64
	// Delay is the extra latency applied to delayed calls.
	Delay time.Duration

	mu      sync.Mutex
	calls   map[string]int // per-address data-path call ordinals
	scripts []*faultScript
}

type faultScript struct {
	addr  string
	after int
	fired bool
	hook  func()
}

// NewFaults returns a harness whose decisions derive from seed.
func NewFaults(seed uint64) *Faults {
	return &Faults{Seed: seed, calls: make(map[string]int)}
}

// Script registers hook to fire exactly once, synchronously, on the n-th
// (1-based) data-path call to addr.
func (f *Faults) Script(addr string, n int, hook func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scripts = append(f.scripts, &faultScript{addr: addr, after: n, hook: hook})
}

// Calls reports how many data-path calls addr has received — lets tests
// assert retry-budget bounds.
func (f *Faults) Calls(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[addr]
}

// Wrap decorates a dialer so every client it produces injects this
// harness's faults.
func (f *Faults) Wrap(dial DialFunc) DialFunc {
	return func(addr string) (Client, error) {
		cl, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &flakyClient{inner: cl, faults: f, addr: addr}, nil
	}
}

type faultKind int

const (
	faultNone faultKind = iota
	faultError
	faultHang
	faultDelay
)

// decide consumes one decision for a data-path call on addr and returns
// any scripted hook that the call ordinal triggers.
func (f *Faults) decide(addr string) (faultKind, func()) {
	f.mu.Lock()
	f.calls[addr]++
	n := f.calls[addr]
	var hook func()
	for _, s := range f.scripts {
		if s.addr == addr && !s.fired && n >= s.after {
			s.fired = true
			hook = s.hook
		}
	}
	h := splitmix64(f.Seed ^ splitmix64(hashString(addr)^uint64(n)))
	f.mu.Unlock()

	u := float64(h>>11) / (1 << 53)
	switch {
	case u < f.ErrorProb:
		return faultError, hook
	case u < f.ErrorProb+f.HangProb:
		return faultHang, hook
	case u < f.ErrorProb+f.HangProb+f.DelayProb:
		return faultDelay, hook
	}
	return faultNone, hook
}

// hashString is FNV-1a, inlined to keep the harness dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// errInjected is what faulted calls fail with: wraps ECONNRESET so the
// transport's transient classification treats it like a real reset.
var errInjected = fmt.Errorf("cluster: injected fault: %w", syscall.ECONNRESET)

// flakyClient wraps a real client, applying the harness's per-call
// decisions to the data path.
type flakyClient struct {
	inner  Client
	faults *Faults
	addr   string

	mu     sync.Mutex
	closed bool
	hung   []*rpc.Call // calls parked by faultHang, completed on Close
}

func (c *flakyClient) Go(method string, args, reply any, done chan *rpc.Call) *rpc.Call {
	if done == nil {
		done = make(chan *rpc.Call, 1)
	}
	if method == "Worker.Info" { // registration/ping: never faulted
		return c.inner.Go(method, args, reply, done)
	}
	kind, hook := c.faults.decide(c.addr)
	if hook != nil {
		hook()
	}
	switch kind {
	case faultError:
		call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Error: errInjected, Done: done}
		done <- call
		return call
	case faultHang:
		call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: done}
		c.mu.Lock()
		if c.closed {
			call.Error = rpc.ErrShutdown
			c.mu.Unlock()
			done <- call
			return call
		}
		c.hung = append(c.hung, call)
		c.mu.Unlock()
		return call
	case faultDelay:
		call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: done}
		go func() {
			time.Sleep(c.faults.Delay)
			idone := make(chan *rpc.Call, 1)
			c.inner.Go(method, args, reply, idone)
			ic := <-idone
			call.Error = ic.Error
			done <- call
		}()
		return call
	}
	return c.inner.Go(method, args, reply, done)
}

// Close completes parked calls with ErrShutdown (mirroring a real client
// whose connection died) and closes the wrapped client.
func (c *flakyClient) Close() error {
	c.mu.Lock()
	hung := c.hung
	c.hung = nil
	c.closed = true
	c.mu.Unlock()
	for _, call := range hung {
		call.Error = rpc.ErrShutdown
		call.Done <- call
	}
	return c.inner.Close()
}
