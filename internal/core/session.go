// Online sessions: the paper's online-aggregation extension (§VII-A) and, on
// the same rounds, its time-constraint extension (§VII-F). After an initial
// answer is delivered, the user can ask for more precision and the system
// continues from the stored per-block paramS and paramL power sums — no
// sample is ever kept, and every refinement round merges new streaming sums
// into the old ones before re-running the iteration phase.
//
// A session runs over a BlockSource and plans as EstimateFrozen does, from
// the frozen per-block pilot. Each round is EstimateFrozen's calculation
// round: per-block seeds off the frozen generator, every planned block
// carrying the sums the previous round returned as its Prior, which the
// source merges the round's fresh sums into before resolving the block. A
// first round at fraction 1 is Estimate's answer.
//
// A time-bound run (EstimateTimeBound) is a session racing a deadline: a
// fixed schedule of rounds, a function of the frozen pilot alone, of which
// the budget decides only how many complete. Its answer is the last
// completed round's, over every block, with that round's u·σ/√m interval.
// (Rounds that answer again as draws accumulate follow Hellerstein, Haas &
// Wang, "Online Aggregation", SIGMOD 1997.)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"isla/internal/leverage"
	"isla/internal/stats"
)

// Session is a resumable aggregation over one source. Construct with
// NewSession, then call Refine repeatedly; each call adds samples and
// returns a progressively tighter answer. Where a round's blocks run is the
// source's business; the per-round seed stream does not depend on it.
type Session struct {
	src     BlockSource
	cfg     Config
	overall Pilot
	plans   []*Plan // nil for an empty block
	shift   float64 // the plans' common negative-data translation
	sums    []*leverage.Accum
	rng     stats.RNGState
	rounds  int
}

// Snapshot is the state of the session after a refinement round. Its
// Result's interval is the half-width u·σ/√m implied by all m samples drawn
// so far — it shrinks as rounds accumulate.
type Snapshot struct {
	Result Result
	// PerBlock holds the partial answers over every round so far, in block
	// order, one entry per block; an empty block's entry names only its id.
	// A session keeps each block's sums anyway, so its snapshot keeps them
	// resolved.
	PerBlock []BlockResult
	// Round counts completed refinement rounds (1 after the first).
	Round int
}

// NewSession prepares an online aggregation over src with the given
// configuration. cfg.Precision sets the precision of the FIRST round; later
// rounds tighten it. A session keeps no partial accounting, so a source with
// blocks down is refused with a *QuarantinedError whatever cfg.AllowPartial
// says — here and at every round — and a round that loses a block fails
// with a *BlocksLostError.
func NewSession(src BlockSource, cfg Config) (*Session, error) {
	if err := RefuseQuarantined(src); err != nil {
		return nil, err
	}
	fp, err := FreezePilot(context.Background(), src, cfg)
	if err != nil {
		return nil, err
	}
	return newSession(src, cfg, fp)
}

// newSession plans a session over src at cfg from a pilot frozen on it.
func newSession(src BlockSource, cfg Config, fp FrozenPilot) (*Session, error) {
	if err := checkFrozen(src, cfg, fp); err != nil {
		return nil, err
	}
	n := len(fp.Pilots)
	overall, plans, shift, err := fp.plansInto(make([]Plan, n), make([]*Plan, n), cfg, src.TotalLen())
	if err != nil {
		return nil, err
	}
	return &Session{
		src:     src,
		cfg:     cfg,
		overall: overall,
		plans:   plans,
		shift:   shift,
		sums:    make([]*leverage.Accum, n),
		rng:     fp.RNG,
	}, nil
}

// Rounds returns the number of completed refinement rounds.
func (s *Session) Rounds() int { return s.rounds }

// TotalSamples returns all calculation samples drawn so far.
func (s *Session) TotalSamples() int64 {
	var t int64
	for _, acc := range s.sums {
		if acc != nil {
			t += acc.Seen
		}
	}
	return t
}

// Refine draws one more round of samples (fraction of each block's planned
// rate; 1 = a full Eq.-1 round) into the stored power sums and recomputes
// the answer. It returns the refined snapshot.
func (s *Session) Refine(fraction float64) (Snapshot, error) {
	return s.RefineContext(context.Background(), fraction)
}

// RefineContext is Refine with a cancellation context: a cancelled round
// stops its draws within a chunk and leaves the session as it was before the
// round, so the next call draws exactly what the cancelled one would have.
// A round refuses, drawing nothing, a fraction that is not finite and
// positive or that asks a block for more draws than an int64 counts, and
// once any of the source's blocks is down (a scrub quarantined it). A round
// that loses a block mid-phase — a shard source under cfg.AllowPartial —
// fails with a *BlocksLostError and leaves the session unchanged.
func (s *Session) RefineContext(ctx context.Context, fraction float64) (Snapshot, error) {
	if !(fraction > 0) || math.IsInf(fraction, 1) {
		return Snapshot{}, fmt.Errorf("core: fraction %v must be finite and positive", fraction)
	}
	if err := RefuseQuarantined(s.src); err != nil {
		return Snapshot{}, err
	}
	u, err := stats.ZValue(s.cfg.Confidence)
	if err != nil {
		return Snapshot{}, err
	}
	rng := s.rng.RNG()
	sums := slices.Clone(s.sums)
	perBlock := make([]BlockResult, len(s.plans))
	// A fresh scratch: the round's sums are the session's to keep.
	lost, err := new(phaseScratch).round(ctx, s.src, s.plans, rng, fraction, sums, nil, perBlock)
	if err != nil {
		return Snapshot{}, err
	}
	if lost != nil {
		return Snapshot{}, &BlocksLostError{Blocks: lossOf(s.src, lost).MissingBlocks}
	}
	s.sums, s.rng = sums, rng.State()
	s.rounds++
	// The round prints u·σ/√m over its m draws and is certified against
	// that band, or against the precision it was planned at when that is
	// finer — so a first round at fraction 1 is Estimate's answer.
	half := math.Inf(1)
	if total := s.TotalSamples(); total > 0 {
		half = u * s.overall.Sigma / math.Sqrt(float64(total))
	}
	res := summarize(s.cfg, s.overall, s.shift, perBlock, s.src.TotalLen(), min(half, s.cfg.Precision))
	res.CI.HalfWidth = half
	return Snapshot{Result: res, PerBlock: perBlock, Round: s.rounds}, nil
}

// schedule is a time-bound run's rounds, each a fraction of every block's
// plan at the pilot's precision: the cumulative draws double every round, up
// to half the pilot's. A round drawing the pilot's whole P would print an
// interval as fine as the pilot's own, whose error centres the modulation
// boundaries; at P/2 the printed interval keeps its coverage.
var schedule = [...]float64{1.0 / 32, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4}

// TimeBoundResult is the outcome of a time-bound run: the answer of the
// last round the budget completed, with the budget accounting. Its CI's
// half-width is the completed rounds' effective precision, u·σ/√m over the
// m draws they hold.
type TimeBoundResult struct {
	Result
	// PerBlock is that round's snapshot's per-block partials.
	PerBlock []BlockResult
	// Budget is the wall-clock budget requested.
	Budget time.Duration
	// Elapsed is the total time actually spent (pilot and rounds).
	Elapsed time.Duration
	// Truncated reports that the deadline stopped the schedule before its
	// last round; the answer is then the last completed round's, which,
	// like every round, covers every block.
	Truncated bool
	// Rounds counts the completed rounds, 1 to 5.
	Rounds int
}

// EstimateTimeBound runs ISLA over src under a wall-clock budget (§VII-F): a
// session planned at the pilot's own precision u·σ/√P, where P is the pilot's draws
// (the table's rows for an exact summary pilot), runs the schedule's rounds
// against a deadline at the start plus the budget. Round 1 runs under ctx
// alone, so an answer always exists; a later round the deadline stops is
// dropped, the session unchanged, and the run answers the round before. Any
// other failure — ctx ending included — fails the run. A run whose budget
// finishes every round is a function of cfg.Seed alone.
//
// freeze, when non-nil, supplies the frozen pre-estimation for cfg.Seed in
// place of the one frozen here — typically a plan-cache lookup that freezes
// on a miss. It runs on the budget's clock, and a pilot it returns answers
// with the bits of the same pilot frozen here. cfg.Precision is ignored.
// Like a session, a run refuses a source with blocks down and fails on a
// lost block.
func EstimateTimeBound(ctx context.Context, src BlockSource, cfg Config, budget time.Duration,
	freeze func(context.Context) (FrozenPilot, error)) (TimeBoundResult, error) {
	if budget <= 0 {
		return TimeBoundResult{}, errors.New("core: budget must be positive")
	}
	if src.TotalLen() == 0 {
		return TimeBoundResult{}, ErrEmptyStore
	}
	if err := RefuseQuarantined(src); err != nil {
		return TimeBoundResult{}, err
	}
	// The pilot's draws do not depend on the precision: any positive value
	// serves until it is derived below.
	if cfg.Precision <= 0 {
		cfg.Precision = 1
	}
	start := time.Now()
	if freeze == nil {
		freeze = func(ctx context.Context) (FrozenPilot, error) {
			return FreezePilot(ctx, src, cfg)
		}
	}
	fp, err := freeze(ctx)
	if err != nil {
		return TimeBoundResult{}, err
	}
	sess, err := timeBoundSession(src, cfg, fp)
	if err != nil {
		return TimeBoundResult{}, err
	}

	timed, cancel := context.WithDeadline(ctx, start.Add(budget))
	defer cancel()
	var snap Snapshot
	truncated := false
	for r, f := range schedule {
		rctx := timed
		if r == 0 {
			rctx = ctx // round 1 runs to its end: an answer always exists
		}
		next, err := sess.RefineContext(rctx, f)
		if r > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			truncated = true // the round left the session as it found it
			break
		}
		if err != nil {
			return TimeBoundResult{}, err
		}
		snap = next
	}
	return TimeBoundResult{
		Result:    snap.Result,
		PerBlock:  snap.PerBlock,
		Budget:    budget,
		Elapsed:   time.Since(start),
		Truncated: truncated,
		Rounds:    snap.Round,
	}, nil
}

// timeBoundSession is the session a time-bound run races: planned from fp at
// the pilot's own precision u·σ/√P, P the pilot's draws or, for an exact
// summary pilot, the table's rows. Constant data (σ = 0) keeps cfg's
// precision.
func timeBoundSession(src BlockSource, cfg Config, fp FrozenPilot) (*Session, error) {
	p := fp.Base.PilotSize
	if p == 0 {
		p = src.TotalLen()
	}
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		return nil, err
	}
	if e := u * fp.Base.Sigma / math.Sqrt(float64(p)); e > 0 {
		cfg.Precision = e
	}
	return newSession(src, cfg, fp)
}
