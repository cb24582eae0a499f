package cluster

// Regression tests for three coordinator lifecycle bugs: workers were
// admitted after Close (stranding live clients in a dead coordinator), a
// worker listing the same block id twice in one Info reply registered as
// its own replica (dodging the cross-worker length validation), and Close
// left blockHome/blockLens populated so a post-Close query dispatched to
// workers that no longer exist.

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"strings"
	"testing"

	"isla/internal/core"
)

// serveStubWorker serves svc under the "Worker" RPC name on a loopback
// listener — for replies a real Worker cannot produce.
func serveStubWorker(t *testing.T, svc any) string {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", svc); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// dupInfoWorker answers Info with a scripted (possibly duplicated)
// inventory.
type dupInfoWorker struct {
	ids  []int
	lens []int64
}

func (d *dupInfoWorker) Info(_ struct{}, rep *InfoReply) error {
	rep.BlockIDs = append([]int(nil), d.ids...)
	rep.Lens = append([]int64(nil), d.lens...)
	return nil
}

func TestConnectAfterCloseRejected(t *testing.T) {
	addr := startWorker(t, normalBlocks(t, 1000, 2, 3)...)
	st := workerTable(t, Config{}, nil, addr)
	st.Close()
	err := st.c.connect(st.Manifest().Shards[0])
	if !errors.Is(err, errClosed) {
		t.Fatalf("connect after Close = %v, want errClosed", err)
	}
}

func TestCloseClearsBlockState(t *testing.T) {
	addr := startWorker(t, normalBlocks(t, 1000, 2, 4)...)
	st := workerTable(t, Config{}, nil, addr)
	coord := st.c
	registered := func() int {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return len(coord.blockHome) + len(coord.blockLens) + len(coord.workers)
	}
	if registered() != 2+2+1 {
		t.Fatalf("registration state = %d entries before Close, want 5", registered())
	}
	st.Close()
	if got := registered(); got != 0 {
		t.Fatalf("registration state after Close = %d entries, want 0", got)
	}
	// A query that outlives its table finds no home for any block: the
	// typed error, not a dispatch into the empty worker set.
	_, err := runView(context.Background(), st.View(), core.DefaultConfig())
	var lost *BlocksLostError
	if !errors.As(err, &lost) || len(lost.Blocks) == 0 {
		t.Fatalf("query after Close = %v, want *BlocksLostError", err)
	}
}

// TestConnectRejectsIntraReplyDuplicate: neither reading a manifest from
// such a worker nor admitting it under a hand-written one may succeed.
func TestConnectRejectsIntraReplyDuplicate(t *testing.T) {
	cases := []struct {
		name string
		ids  []int
		lens []int64
		want string
	}{
		{"same-length", []int{0, 1, 0}, []int64{10, 20, 10}, "cannot be its own replica"},
		{"conflicting-lengths", []int{0, 1, 0}, []int64{10, 20, 30}, "conflicting lengths"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := serveStubWorker(t, &dupInfoWorker{ids: tc.ids, lens: tc.lens})
			man := &ShardManifest{Version: 1, Shards: []ShardEntry{{Addr: addr, Blocks: []int{0, 1}, Lens: []int64{10, 20}}}}
			_, fromWorkers := ManifestFromWorkers([]string{addr}, Config{}, nil)
			_, fromManifest := NewShardTable(man, core.DefaultConfig(), Config{}, nil)
			for _, err := range []error{fromWorkers, fromManifest} {
				if err == nil {
					t.Fatal("duplicate inventory accepted")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %q in it", err, tc.want)
				}
			}
		})
	}
}
