package counter

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rng"
)

// DefaultContention is the promotion threshold used when Adaptive's
// Contention field is zero: the number of CAS failures observed on the
// flat cell before the counter migrates to the dynamic in-counter. CAS
// failures only happen when another operation wrote the cell between
// an op's load and its CAS — the cheapest proxy for cache-line
// contention the cell can observe about itself — so the threshold is
// a direct "observed collisions" budget, not a rate. It is deliberately
// small: a genuinely contended finish block crosses it in microseconds,
// while a sequential or well-spaced workload never fails a CAS at all.
const DefaultContention = 32

// Adaptive is the contention-adaptive dependency counter: it starts
// life as a single fetch-and-add cell — the optimal algorithm while
// uncontended (PPoPP'17 Figure 8, p=1) — and promotes itself to the
// paper's dynamic in-counter when the cell observes sustained
// contention, so one algorithm serves both ends of the evaluation's
// crossover without the user picking per workload.
//
// Promotion is a live migration. The in-counter is installed seeded
// with one extra dependency (the anchor); operations that start after
// the installation route to the in-counter, while obligations already
// tracked by the cell keep draining it; the unique operation that
// drains the cell to zero discharges the anchor. The anchor keeps the
// in-counter non-zero for as long as the cell is, so the composite
// counter can never report zero while either side still has
// undischarged dependencies (see DESIGN.md §6 for the invariant
// argument).
//
// With Batch ≥ 2 the promoted phase additionally runs the batched
// frontend (DESIGN.md §13): post-promotion operations accumulate in
// per-worker delta slots (counter.Home) and flush into the in-counter
// root in one weighted RMW when the local delta crosses the batch
// threshold or at worker boundaries, and a promoted counter whose
// flushes stay contention-free for a calm streak demotes back to the
// cell — the burst-recovery path the spec exposes as
// `adaptive:K:batch`. With Batch ≤ 1 (the default) the batched tier
// and demotion are disabled and the counter behaves exactly as the
// two-phase algorithm above: a counter that was contended once stays
// promoted for its (single finish block) lifetime.
type Adaptive struct {
	// Contention is the promotion threshold: cumulative CAS failures on
	// the cell before migrating. 0 means DefaultContention.
	Contention uint64
	// Threshold is the grow-probability denominator of the in-counter
	// the cell promotes into, exactly as in Dynamic.Threshold.
	Threshold uint64
	// Batch enables the batched frontend: per-worker deltas flush into
	// the promoted in-counter when |delta| reaches Batch. 0 or 1
	// disables batching (and demotion) entirely.
	Batch uint64
	// Eager promotes every counter at creation instead of waiting for
	// the CAS-miss signal (Parse spells it adaptive:0[:batch]). The
	// promoted regime then exists by construction — the knob the
	// batch-threshold sweep turns so its measurements do not depend on
	// the host having enough parallelism to produce organic misses
	// (a single-core host may never fail a CAS at all). Demoted
	// counters re-promote through the normal miss signal.
	Eager bool
	// Stats, when non-nil, receives promotion accounting shared by every
	// counter this algorithm instance creates. Parse and NewAdaptive
	// always wire one; a zero-value literal simply goes uncounted.
	Stats *AdaptiveStats
}

// AdaptiveStats aggregates lifecycle events across all counters of one
// Adaptive algorithm instance (a runtime's worth of finish blocks).
type AdaptiveStats struct {
	// Promotions counts counters that migrated to the in-counter
	// (re-promotions after a demotion count again).
	Promotions atomic.Uint64
	// Demotions counts promoted counters that migrated back to the
	// cell after a calm streak (batched mode only).
	Demotions atomic.Uint64
}

// PromotionReporter is implemented by algorithms that migrate between
// representations at runtime; the public API surfaces the count in
// repro.Stats.
type PromotionReporter interface {
	// Promotions returns how many counters have promoted so far.
	Promotions() uint64
}

// DemotionReporter is implemented by algorithms that can migrate back
// to a cheaper representation (the batched adaptive counter); the
// public API surfaces the count in repro.Stats.
type DemotionReporter interface {
	// Demotions returns how many counters have demoted so far.
	Demotions() uint64
}

// NewAdaptive returns an Adaptive algorithm with a fresh stats sink.
// contention 0 means DefaultContention; grow is the in-counter grow
// denominator (0 or 1 grows on every increment).
func NewAdaptive(contention, grow uint64) Adaptive {
	return Adaptive{Contention: contention, Threshold: grow, Stats: new(AdaptiveStats)}
}

// Name implements Algorithm.
func (a Adaptive) Name() string { return "adaptive" }

// String includes the tuning for logs.
func (a Adaptive) String() string {
	k := fmt.Sprintf("%d", a.contention())
	if a.Eager {
		k = "eager"
	}
	if a.batch() > 1 {
		return fmt.Sprintf("adaptive(contention=%s,threshold=%d,batch=%d)", k, a.Threshold, a.batch())
	}
	return fmt.Sprintf("adaptive(contention=%s,threshold=%d)", k, a.Threshold)
}

// Promotions implements PromotionReporter.
func (a Adaptive) Promotions() uint64 {
	if a.Stats == nil {
		return 0
	}
	return a.Stats.Promotions.Load()
}

// Demotions implements DemotionReporter.
func (a Adaptive) Demotions() uint64 {
	if a.Stats == nil {
		return 0
	}
	return a.Stats.Demotions.Load()
}

func (a Adaptive) contention() uint64 {
	if a.Contention == 0 {
		return DefaultContention
	}
	return a.Contention
}

func (a Adaptive) batch() uint64 {
	if a.Batch == 0 {
		return 1
	}
	return a.Batch
}

// New implements Algorithm.
func (a Adaptive) New(initial int) Counter {
	c := &adaptiveCounter{contention: a.contention(), grow: a.Threshold, batch: a.batch(), stats: a.Stats}
	c.cell.Store(int64(initial))
	c.fa.c = c
	if a.Eager {
		c.promote()
	}
	return c
}

// adaptiveCounter is one finish block's two-phase counter. The hot
// word (cell) sits on its own cache line; misses and the promotion
// pointer are colder and share the next. The struct is padded to
// exactly 128 bytes (two lines, asserted by TestAdaptiveCounterLayout)
// so Go's size-class allocator hands out 64-aligned blocks and
// neighboring counters can never share cell's line — a 112-byte
// layout would be allocated at 112-byte strides, putting half of all
// counters' hot words mid-line.
type adaptiveCounter struct {
	cell atomic.Int64
	_    [56]byte // keep the contended word alone on its line

	misses     atomic.Uint64             // cumulative cell CAS failures
	dyn        atomic.Pointer[promotion] // nil until first promoted; see current()
	contention uint64
	grow       uint64
	batch      uint64 // flush threshold; ≤ 1 disables batching and demotion
	stats      *AdaptiveStats
	fa         adFAState // the shared cell-phase state (see RootState)
	_          [8]byte   // round the cold line up to a full 64 bytes
}

// promotion is one installed in-counter phase: the in-counter plus the
// anchor capability that keeps it non-zero until the cell drains. With
// batching disabled there is at most one phase per counter lifetime;
// with batching, a demotion marks the phase dead-for-new-obligations
// and a later re-promotion replaces it (CAS on c.dyn against the
// demoted phase), so obligations buffered under an old phase always
// resolve against that phase's own in-counter.
type promotion struct {
	dc *dynCounter
	// anchor is the in-counter's initial dependency, held by the
	// adaptive counter itself and discharged exactly once, by the
	// operation that drains the cell to zero. It is a pointer swap
	// (not a plain field) because the demotion precondition reads it
	// concurrently with the discharging operation.
	anchor atomic.Pointer[dynState]
	// demoted flips once, when the batched frontend migrates the
	// counter back to the cell: new obligations re-enter the cell, and
	// the phase's in-counter zero report routes through the cell
	// (discharging the demotion anchor) instead of being the
	// composite's. Only set with batch ≥ 2.
	demoted atomic.Bool
	// calm counts consecutive retry-free flushes against this phase —
	// the windowed decay signal behind demotion (each flush is one
	// observation window; a contended flush resets the streak).
	calm atomic.Uint64
	// bs is the phase's shared batched-mode capability, handed to every
	// post-promotion vertex in place of per-spawn in-counter states
	// (batch ≥ 2 only; like the cell's adFAState it is deliberately
	// not a Releaser).
	bs batchedState
}

// IsZero implements Counter: the composite is zero only when the cell
// has drained and, if promoted, the in-counter has too. While the cell
// is non-zero the anchor keeps the in-counter non-zero as well, so the
// two reads cannot race into a spurious zero.
func (c *adaptiveCounter) IsZero() bool {
	if c.cell.Load() != 0 {
		return false
	}
	p := c.dyn.Load()
	return p == nil || p.dc.IsZero()
}

// NodeCount implements Counter: the cell plus, after promotion, the
// in-counter's SNZI nodes.
func (c *adaptiveCounter) NodeCount() int64 {
	if p := c.dyn.Load(); p != nil {
		return 1 + p.dc.NodeCount()
	}
	return 1
}

// RootState implements Counter. A counter is born in cell phase, so
// the root capability is the shared cell state.
func (c *adaptiveCounter) RootState() State { return &c.fa }

// Promoted reports whether the counter is currently promoted: an
// in-counter phase is installed and has not been demoted back to the
// cell (diagnostics and tests).
func (c *adaptiveCounter) Promoted() bool {
	p := c.dyn.Load()
	return p != nil && !p.demoted.Load()
}

// Demoted reports whether the counter's current phase has been demoted
// back to the cell (diagnostics and tests; always false with batching
// disabled).
func (c *adaptiveCounter) Demoted() bool {
	p := c.dyn.Load()
	return p != nil && p.demoted.Load()
}

// Misses returns the cumulative cell CAS-failure count (diagnostics).
//
// Accounting note, for comparison with the simulator: production adds
// one miss per failed CAS loop iteration, so an operation that loses
// the same collision round twice counts twice. The simulator's
// ContentionStep charges each collision round colliders−1 misses —
// one per loser, assuming every loser lands on its next attempt. The
// two agree exactly when losers retry successfully (the common case:
// the cell's CAS loop has no backoff, so a loser's reload usually
// wins its round); production reads ≥ the simulator when a loser
// loses again, which only promotes earlier. The crossval test in
// adaptive_test.go pins this relationship.
func (c *adaptiveCounter) Misses() uint64 { return c.misses.Load() }

// Unwrap exposes the promoted in-counter, or nil before promotion
// (invariant tests).
func (c *adaptiveCounter) Unwrap() *dynCounter {
	if p := c.dyn.Load(); p != nil {
		return p.dc
	}
	return nil
}

// noteMiss records one cell CAS failure and promotes once the
// cumulative count crosses the threshold. The miss counter is itself a
// shared word, but it is touched only on failures, and promotion caps
// the total at threshold + O(concurrency) for the counter's lifetime.
func (c *adaptiveCounter) noteMiss() {
	if c.misses.Add(1) >= c.contention {
		c.promote()
	}
}

// ContentionStep is the promotion decision of noteMiss as a pure
// function — the hook the discrete-event simulator (internal/sim) uses
// to model adaptive counters without running them. One observation
// window in which colliders operations hit the same cell concurrently
// costs colliders−1 CAS misses: exactly one op's CAS lands per
// collision round, each of the other colliders fails once, and the
// model assumes every loser lands on its next attempt. Production
// (noteMiss) counts one miss per failed CAS iteration, so it equals
// this accounting when losers win their retry and exceeds it when a
// loser collides again — i.e. real promotion can only be earlier than
// the simulated one, never later (the relationship Misses() documents
// and the crossval test pins). The returned promote flag is the
// threshold crossing; like the real counter, a caller promotes at most
// once per calm period and a contention of 0 means DefaultContention.
func ContentionStep(misses uint64, colliders int, contention uint64) (uint64, bool) {
	if contention == 0 {
		contention = DefaultContention
	}
	if colliders > 1 {
		misses += uint64(colliders - 1)
	}
	return misses, misses >= contention
}

// promote installs a fresh in-counter phase: a dynamic in-counter born
// with one dependency — the anchor — whose State the adaptive counter
// keeps for itself. The CAS replaces either no phase (first promotion)
// or a demoted phase (re-promotion after a calm period; the old
// phase's remaining obligations keep draining its own in-counter,
// chained to the composite through the demotion anchor in the cell).
// Exactly one installer wins; losers release their never-published
// anchor state and let their counter be collected. promote is safe to
// call at any time from any goroutine (tests force promotion
// mid-flight): if the cell has already drained, the installed phase is
// simply dead weight — no operation can route to it, because a drained
// cell has no live states left to operate.
func (c *adaptiveCounter) promote() {
	p := c.dyn.Load()
	if p != nil && !p.demoted.Load() {
		return
	}
	dc := Dynamic{Threshold: c.grow}.New(1).(*dynCounter)
	np := &promotion{dc: dc}
	np.anchor.Store(dc.RootState().(*dynState))
	np.bs.c, np.bs.p = c, np
	if c.dyn.CompareAndSwap(p, np) {
		if c.stats != nil {
			c.stats.Promotions.Add(1)
		}
	} else {
		np.anchor.Load().Release()
	}
}

// cellDec discharges one cell obligation on the plain fetch-and-add
// path (used once the caller has observed the promotion, so CAS-miss
// sampling no longer matters). The unique call that drains the cell
// routes through cellDrained; its return value is the composite's.
func (c *adaptiveCounter) cellDec() bool {
	n := c.cell.Add(-1)
	if n > 0 {
		return false
	}
	if n < 0 {
		panic("counter: adaptive cell went negative (unbalanced decrement)")
	}
	return c.cellDrained()
}

// cellDrained is the zero routing for the operation that drained the
// cell. If the current phase holds a live anchor (an installed,
// never-demoted in-counter), the drain discharges it and propagates
// the in-counter's report. Otherwise the cell's zero IS the
// composite's: either there was never a promotion, or the current
// phase is a demoted one — and the only way the cell drains in a
// demoted epoch is via the cellDec chained from that phase's own
// in-counter zero (the demotion anchor holds the cell at ≥ 1 until
// then), so both sides are known drained. The anchor Swap keeps the
// discharge exactly-once across the multiple cell-drain epochs a
// demotion/re-promotion history creates.
func (c *adaptiveCounter) cellDrained() bool {
	p := c.dyn.Load()
	if p == nil {
		return true
	}
	if a := p.anchor.Swap(nil); a != nil {
		zero := a.Decrement()
		a.Release()
		return zero
	}
	return true
}

// routeIncrement performs a post-promotion Increment for a state whose
// obligation still lives in the cell: the two child obligations enter
// the in-counter (Attach + a normal Increment, net +2), and only then
// is the caller's cell obligation discharged — so the composite never
// dips, and the anchor (not yet discharged, because the cell was
// non-zero throughout) keeps the in-counter's zero unreachable.
func (c *adaptiveCounter) routeIncrement(p *promotion, g *rng.Xoshiro256ss) (State, State) {
	a := p.dc.attach()
	l, r := a.Increment(g)
	a.Release()
	if c.cellDec() {
		// l and r hold two live in-counter dependencies, so even the
		// anchor discharge cannot have zeroed it.
		panic("counter: adaptive counter drained during an increment")
	}
	return l, r
}

// adFAState is the cell-phase capability, shared by every cell-phase
// vertex exactly like the fetch-and-add baseline's state (and like it,
// deliberately not a Releaser). Operations re-check the promotion
// pointer on every attempt, so a state created before the migration
// participates in it the first time it acts afterwards.
type adFAState struct{ c *adaptiveCounter }

// Increment implements State. The cell phase uses an optimistic
// load+CAS instead of an unconditional fetch-and-add: uncontended it
// costs the same one atomic RMW, and a failure is precisely the
// contention signal the promotion heuristic feeds on.
func (s *adFAState) Increment(g *rng.Xoshiro256ss) (State, State) {
	return s.IncrementHomed(g, nil, nil)
}

// IncrementHomed implements HomedState: with a worker Home in scope
// and batching enabled, the post-promotion +2 is buffered in the
// worker's delta slot instead of hitting shared memory (see batch.go);
// every other combination takes exactly the unbatched paths.
func (s *adFAState) IncrementHomed(g *rng.Xoshiro256ss, h *Home, tag any) (State, State) {
	c := s.c
	chaosPromote(c) // fault seam: no-op unless built with -tags chaostest
	for {
		if p := c.dyn.Load(); p != nil && !p.demoted.Load() {
			if c.batch > 1 {
				return c.routeIncrementBatched(p, h, tag)
			}
			return c.routeIncrement(p, g)
		}
		v := c.cell.Load()
		if c.cell.CompareAndSwap(v, v+1) {
			return s, s
		}
		c.noteMiss()
	}
}

// Decrement implements State.
func (s *adFAState) Decrement() bool {
	c := s.c
	for {
		if p := c.dyn.Load(); p != nil && !p.demoted.Load() {
			return c.cellDec()
		}
		v := c.cell.Load()
		if v <= 0 {
			panic("counter: adaptive cell went negative (unbalanced decrement)")
		}
		if c.cell.CompareAndSwap(v, v-1) {
			if v != 1 {
				return false
			}
			// The cell just drained. A promotion may have been installed
			// between the check above and the winning CAS; because
			// Go's atomics are sequentially consistent and every
			// dependency that entered the in-counter did so before its
			// cell obligation was discharged (routeIncrement's order),
			// re-reading the pointer after the draining CAS is
			// guaranteed to observe any promotion that real
			// dependencies could have reached (cellDrained re-reads).
			return c.cellDrained()
		}
		c.noteMiss()
	}
}

// DecrementHomed implements HomedState. A cell obligation's discharge
// is never buffered (the cell is not the batched representation), so
// this is Decrement.
func (s *adFAState) DecrementHomed(h *Home, tag any) bool { return s.Decrement() }
