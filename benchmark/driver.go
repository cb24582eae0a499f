package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"isla/internal/serve"
)

// queryBody encodes the POST /query body for sql.
func queryBody(sql string) []byte {
	b, err := json.Marshal(serve.QueryRequest{SQL: sql})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// httpAsk posts one statement to /query and decodes the whole response
// body; any status but 200 is an error carrying the server's message.
func httpAsk(ctx context.Context, hc *http.Client, base string, s *stmt) (answer, error) {
	body := s.body
	if body == nil {
		body = queryBody(s.SQL)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return answer{}, fmt.Errorf("POST /query: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return answer{}, fmt.Errorf("POST /query: decoding body: %w", err)
	}
	a := answer{Value: qr.Value, Samples: qr.Samples}
	for _, g := range qr.Groups {
		if g.Error != "" {
			return answer{}, fmt.Errorf("POST /query: group %q: %s", g.Group, g.Error)
		}
		a.Groups = append(a.Groups, g.Value)
	}
	return a, nil
}

// coldRecord is a never-repeating statement's answer, kept so it can be
// compared with the local engine's after the timed window closes.
type coldRecord struct {
	sql string
	got answer
}

// loadResult is what one driver pass observed.
type loadResult struct {
	attempted int64
	ok        int64
	failed    int64     // errors + wrong answers + dropped arrivals
	dropped   int64     // open loop: arrivals the generator could not launch
	latencies []float64 // ms, one per correct answer
	lateness  []float64 // ms, open loop: launch instant minus due instant
	window    time.Duration
	cpu       time.Duration // process user+sys CPU over the window
	cold      []coldRecord
	firstErr  error
	// backlog is the open-loop queue length when the last arrival was
	// scheduled; a loop that keeps up leaves it near zero.
	backlog int
}

// clientTally is one client goroutine's share of a loadResult; clients
// never share mutable state while the window runs.
type clientTally struct {
	attempted, ok, failed int64
	latencies             []float64
	cold                  []coldRecord
	firstErr              error
}

// record checks one reply against the verification set and books it. Hot
// statements must match the oracle bit for bit now; cold ones are kept for
// the post-window comparison.
func (t *clientTally) record(known map[string]*verified, s *stmt, got answer, err error, latency time.Duration) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", s.SQL, err)
		}
		return
	case s.Class == "cold":
		t.cold = append(t.cold, coldRecord{sql: s.SQL, got: got})
	default:
		if v := known[s.SQL]; v == nil || !got.same(v.want) {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("%s: answer %+v is not bit-identical to the verification set's", s.SQL, got)
			}
			return
		}
	}
	t.ok++
	t.latencies = append(t.latencies, float64(latency)/float64(time.Millisecond))
}

func merge(tallies []clientTally) *loadResult {
	res := &loadResult{}
	for i := range tallies {
		t := &tallies[i]
		res.attempted += t.attempted
		res.ok += t.ok
		res.failed += t.failed
		res.latencies = append(res.latencies, t.latencies...)
		res.cold = append(res.cold, t.cold...)
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
	}
	return res
}

func clientRNG(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x10ad+uint64(stream)))
}

// closedLoop runs `clients` callers that each send their next statement
// only after the previous reply, for dur.
func closedLoop(ctx context.Context, sys *system, m *mix, known map[string]*verified, seed uint64, dur time.Duration) *loadResult {
	tallies := make([]clientTally, clients)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			r := clientRNG(seed, c)
			var n uint64
			coldID := func() uint64 { n++; return uint64(c)<<40 | n }
			for time.Now().Before(deadline) {
				s := m.next(r, coldID)
				t0 := time.Now()
				got, err := sys.ask(ctx, s)
				t.record(known, s, got, err, time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	res := merge(tallies)
	res.window = time.Since(start)
	res.cpu = cpuTime() - cpu0
	return res
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due time.Time
	s   *stmt
}

// schedule lays n arrivals over dur with exponential gaps drawn from the
// seed and rescaled to fill the window exactly, so a seed fixes both the
// arrival pattern and the arrival count.
func schedule(seed uint64, n int, dur time.Duration) []time.Duration {
	r := clientRNG(seed, 1000)
	offs := make([]time.Duration, n)
	var sum float64
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		sum += gaps[i]
	}
	// The n gaps plus one trailing gap of mean length span the window.
	scale := float64(dur) / (sum + sum/float64(n))
	var at float64
	for i, g := range gaps {
		at += g * scale
		offs[i] = time.Duration(at)
	}
	return offs
}

// openLoop sends arrivals on the seed's schedule at `rate` per second for
// dur, whatever the replies do. Latency runs from the instant a request was
// due, so a stall is charged to every request it delays; the generator's
// own lateness is reported; an arrival that finds the launch queue full is
// dropped and counted as failed. Requests go out over `clients` connections,
// so an arrival that finds both busy waits its turn with the clock running.
func openLoop(ctx context.Context, ask func(context.Context, *stmt) (answer, error), m *mix, known map[string]*verified, seed uint64, rate int, dur time.Duration) *loadResult {
	n := int(float64(rate) * dur.Seconds())
	offs := schedule(seed, n, dur)
	r := clientRNG(seed, 1001)
	stmts := make([]*stmt, n)
	var cold uint64
	for i := range stmts {
		stmts[i] = m.next(r, func() uint64 { cold++; return cold })
	}
	// One second of arrivals may wait to be launched; beyond that the
	// system is not keeping up and further arrivals are dropped.
	queue := make(chan arrival, rate)
	tallies := make([]clientTally, clients)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(t *clientTally) {
			defer wg.Done()
			for a := range queue {
				got, err := ask(ctx, a.s)
				t.record(known, a.s, got, err, time.Since(a.due))
			}
		}(&tallies[c])
	}
	// The generator owns an OS thread, so its sleeps are the kernel's, not
	// the Go scheduler's (see preciseSleep).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var dropped int64
	lateness := make([]float64, 0, n)
	for i, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			preciseSleep(d)
		}
		// How late the generator itself ran: the wait for a free client
		// after this instant is the system's doing and stays in the latency.
		lateness = append(lateness, float64(time.Since(due))/float64(time.Millisecond))
		select {
		case queue <- arrival{due: due, s: stmts[i]}:
		default:
			dropped++
		}
	}
	backlog := len(queue)
	close(queue)
	wg.Wait()
	res := merge(tallies)
	res.lateness = lateness
	res.window = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.attempted += dropped
	res.failed += dropped
	res.dropped = dropped
	res.backlog = backlog
	return res
}

// runLoad drives the workload's own loop for dur.
func runLoad(ctx context.Context, w workload, sys *system, m *mix, known map[string]*verified, seed uint64, dur time.Duration) *loadResult {
	if w.openLoop() {
		return openLoop(ctx, sys.ask, m, known, seed, openLoopQPS, dur)
	}
	return closedLoop(ctx, sys, m, known, seed, dur)
}

// checkCold compares every cold answer with the oracle's for the same
// statement and moves mismatches from ok to failed.
func checkCold(ctx context.Context, o *oracle, res *loadResult) error {
	for _, c := range res.cold {
		v, err := o.verify(ctx, c.sql)
		if err != nil {
			return err
		}
		if !c.got.same(v.want) {
			res.ok--
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s: sharded answer %+v is not bit-identical to the local engine's %+v", c.sql, c.got, v.want)
			}
		}
	}
	return nil
}
