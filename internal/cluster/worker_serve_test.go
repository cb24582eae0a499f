package cluster

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/stats"
)

// failingListener is a listener whose accept loop dies with a permanent
// error — the failure mode ListenAndServe used to swallow.
type failingListener struct{ err error }

func (l *failingListener) Accept() (net.Conn, error) { return nil, l.err }
func (l *failingListener) Close() error              { return nil }
func (l *failingListener) Addr() net.Addr            { return &net.TCPAddr{} }

func TestServeReturnsAcceptFailure(t *testing.T) {
	boom := errors.New("accept: too many open files")
	w := NewWorker()
	if err := w.Serve(&failingListener{err: boom}); !errors.Is(err, boom) {
		t.Fatalf("Serve returned %v, want the accept error", err)
	}
}

func TestServeErrorSurfacesAcceptFailure(t *testing.T) {
	boom := errors.New("accept: too many open files")
	w := NewWorker()
	go w.serveNotify(&failingListener{err: boom})
	select {
	case err := <-w.ServeError():
		if !errors.Is(err, boom) {
			t.Fatalf("ServeError delivered %v, want the accept error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept failure never surfaced on ServeError")
	}
}

func TestServeGracefulCloseIsSilent(t *testing.T) {
	w := NewWorker()
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	select {
	case err := <-w.ServeError():
		t.Fatalf("graceful close surfaced as error: %v", err)
	case <-time.After(100 * time.Millisecond):
		// Serve returned nil; nothing on the channel. Correct.
	}
}

// closingBlock closes its worker while its first chunk is being drawn.
type closingBlock struct {
	block.Block
	w      *Worker
	chunks int
}

func (c *closingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if c.chunks++; c.chunks == 1 {
		c.w.Close()
	}
	return block.SampleInto(c.Block, r, dst)
}

// A closed worker can answer nobody, so the draws its handlers still run
// stop at the next chunk boundary; the lifetime Close arms afterwards lets
// the same worker serve again.
func TestCloseStopsInFlightDrawWithinAChunk(t *testing.T) {
	w := NewWorker()
	cb := &closingBlock{Block: block.NewMemBlock(0, []float64{90, 95, 100, 105, 110}), w: w}
	w.AddBlock(cb)
	args := BatchArgs{Sample: []SampleArgs{{BlockID: 0, Center: 100, Sigma: 20, P1: 0.5, P2: 2, SampleSize: 10 * block.ChunkSize, Seed: 1}}}
	var reply BatchReply
	if err := w.Batch(args, &reply); !errors.Is(err, context.Canceled) {
		t.Fatalf("Batch on a worker closed mid-draw returned %v, want context.Canceled", err)
	}
	if cb.chunks != 1 {
		t.Fatalf("%d chunks drawn, want the draw to stop after the one in flight at Close", cb.chunks)
	}
	if err := w.Batch(args, &reply); err != nil {
		t.Fatalf("Batch after Close: %v", err)
	}
	if got, want := reply.Sample[0].Samples, args.Sample[0].SampleSize; got != want || cb.chunks != 11 {
		t.Fatalf("after Close: %d samples in %d chunks, want %d in 10 more", got, cb.chunks, want)
	}
}

// heldListener holds Close open until release, so the test decides what
// happens between Close's first step and the connections going away.
type heldListener struct {
	net.Listener
	closing chan struct{}
	release chan struct{}
}

func (l *heldListener) Close() error {
	close(l.closing)
	<-l.release
	return l.Listener.Close()
}

// gatedBlock parks its first chunk until the worker's Close is under way,
// then reports the third chunk drawn after that.
type gatedBlock struct {
	block.Block
	started, closing chan struct{}
	after            func()
	chunks           int
}

func (g *gatedBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if g.chunks++; g.chunks == 1 {
		close(g.started)
		<-g.closing
	} else if g.chunks == 4 {
		g.after()
	}
	return block.SampleInto(g.Block, r, dst)
}

// A killed worker must look like a dead transport to a call in flight: if
// the cancelled handler's context.Canceled reached the coordinator as a
// reply it would be an rpc.ServerError, which does not fail over. The
// listener's Close is held until either that reply has arrived (the bug) or
// the handler has kept drawing with Close under way (the draws are
// cancelled only after the connections are shut).
func TestCloseMidCallLooksLikeADeadTransport(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &heldListener{Listener: inner, closing: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(l.release) }) }
	gb := &gatedBlock{
		Block:   block.NewMemBlock(0, []float64{90, 95, 100, 105, 110}),
		started: make(chan struct{}), closing: l.closing, after: release,
	}
	w := NewWorker(gb)
	go w.Serve(l)
	client, err := rpc.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	args := BatchArgs{Sample: []SampleArgs{{BlockID: 0, Center: 100, Sigma: 20, P1: 0.5, P2: 2, SampleSize: 2000 * block.ChunkSize, Seed: 1}}}
	var reply BatchReply
	call := client.Go("Worker.Batch", args, &reply, nil)
	<-gb.started
	closed := make(chan struct{})
	go func() { w.Close(); close(closed) }()
	<-call.Done
	release()
	<-closed
	if !transient(call.Error) {
		t.Fatalf("call in flight at Close ended in %T %v, want a transport failure the coordinator fails over on", call.Error, call.Error)
	}
}
