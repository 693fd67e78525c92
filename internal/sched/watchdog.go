package sched

// The scheduler watchdog (armed with WithWatchdog) is the runtime's
// self-defense against the failure shape every steal/park protocol bug
// in this repo's history eventually produced: outstanding work, no
// progress. It is a sampling detector, not a tracer — it costs the
// worker loop two plain atomic stores per vertex execution (the
// mid-execution bracket in markExec/doneExec) and nothing at all when
// off.
//
// The detection rule is deliberately conservative on all three axes:
//
//   - LiveRuns() > 0: something was submitted and has not finished, so
//     progress is owed. An idle scheduler can never look stalled.
//   - The executed-vertex total has not moved for the whole threshold
//     window: any completed vertex anywhere resets the clock.
//   - No worker is currently inside Execute: a single long-running
//     task body is progress, not a stall (the false-positive the spin
//     template pins in tests). Tasks that are *too* long are the
//     per-request deadline's problem, not the watchdog's.
//
// On detection the watchdog counts the stall (Stats.Stalls), hands a
// per-worker dump to the OnStall hook (the gateway uses it to enter
// degraded mode; tests use it to observe detection), and then nudges
// recovery by re-waking every parked worker. The nudge is always
// sound — a spurious wake is absorbed by the park protocol — and it
// genuinely repairs one whole fault class: a lost wake token with work
// sitting in the injector.

import (
	"fmt"
	"strings"
	"time"
)

// StallReport is the state dump handed to the OnStall hook when the
// watchdog detects a stall.
type StallReport struct {
	Since         time.Duration // how long the no-progress window has lasted
	LiveRuns      int           // outstanding computations (RunStarted - RunFinished)
	Executed      uint64        // vertex-execution total, frozen for the whole window
	InjectorDepth int           // external submissions accepted but not picked up
	Workers       []WorkerState // one entry per live or retiring slot
}

// WorkerState is one worker slot's view in a StallReport.
type WorkerState struct {
	ID        int
	Node      int
	State     string // "live", "retiring", "dormant"
	Parked    bool
	Executing time.Duration // time inside the current Execute (0 = not executing)
	DequeLen  int           // ChaseLev only; -1 when unobservable (private deques)
	Executed  uint64
}

// String renders the dump in the one-line-per-worker form the watchdog
// hook typically logs.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched: stall: no vertex executed for %v (live runs=%d, executed=%d, injector depth=%d)\n",
		r.Since.Round(time.Millisecond), r.LiveRuns, r.Executed, r.InjectorDepth)
	for _, w := range r.Workers {
		fmt.Fprintf(&b, "  worker %d node %d: %s parked=%v executing=%v deque=%d executed=%d\n",
			w.ID, w.Node, w.State, w.Parked, w.Executing.Round(time.Millisecond), w.DequeLen, w.Executed)
	}
	return b.String()
}

// OnStall installs the watchdog's detection hook (replacing any
// previous one). The hook runs on the watchdog goroutine — it must not
// block for long, and it must not call Shutdown. Installing a hook on
// a scheduler whose watchdog is not armed is legal and inert.
func (s *Scheduler) OnStall(fn func(StallReport)) {
	if fn == nil {
		s.onStall.Store(nil)
		return
	}
	s.onStall.Store(&fn)
}

// Stalls returns the number of stalls the watchdog has detected.
func (s *Scheduler) Stalls() uint64 { return s.wdStalls.Load() }

// WatchdogThreshold returns the armed no-progress window (0 = off).
func (s *Scheduler) WatchdogThreshold() time.Duration { return s.wdThreshold }

// anyExecuting reports whether any worker is currently inside Execute.
func (s *Scheduler) anyExecuting() bool {
	for _, w := range s.workers {
		if w.execStart.Load() != 0 {
			return true
		}
	}
	return false
}

func (s *Scheduler) executedTotal() uint64 {
	var total uint64
	for _, w := range s.workers {
		total += w.stats.executed.Load()
	}
	return total
}

func (s *Scheduler) stallReport(since time.Duration) StallReport {
	r := StallReport{
		Since:         since,
		LiveRuns:      int(s.live.Load()),
		Executed:      s.executedTotal(),
		InjectorDepth: s.InjectorDepth(),
	}
	now := s.clock.Now().UnixNano()
	for _, w := range s.workers {
		st := w.state.Load()
		if st == wsDormant {
			continue
		}
		ws := WorkerState{
			ID:       w.id,
			Node:     w.node,
			State:    map[int32]string{wsLive: "live", wsRetiring: "retiring"}[st],
			Parked:   w.parked.Load(),
			DequeLen: -1,
			Executed: w.stats.executed.Load(),
		}
		if start := w.execStart.Load(); start != 0 {
			ws.Executing = time.Duration(now - start)
		}
		if s.policy == ChaseLev {
			// The Chase-Lev deque's indices are atomics, so its size is
			// observable from off-thread; a private deque is owner-only
			// by design and is reported as unobservable instead of read
			// racily.
			ws.DequeLen = int(w.dq.Size())
		}
		r.Workers = append(r.Workers, ws)
	}
	return r
}

// watchdog is the sampling goroutine: it wakes 4× per threshold
// window, tracks the last time the executed total moved (or the
// scheduler was excusably quiet), and fires once per window while the
// stall persists.
func (s *Scheduler) watchdog() {
	defer s.wg.Done()
	tick := s.wdThreshold / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	// A repeatedly-reset clock timer instead of a ticker: the Clock
	// seam exposes timers only, and the sampling loop has no use for
	// tick catch-up semantics anyway.
	t := s.clock.NewTimer(tick)
	defer t.Stop()
	lastExec := s.executedTotal()
	lastProgress := s.clock.Now()
	for {
		select {
		case <-s.wdStop:
			return
		case <-t.C():
			t.Reset(tick)
		}
		cur := s.executedTotal()
		if cur != lastExec || s.live.Load() == 0 || s.anyExecuting() {
			lastExec = cur
			lastProgress = s.clock.Now()
			continue
		}
		since := s.clock.Now().Sub(lastProgress)
		if since < s.wdThreshold {
			continue
		}
		// Report, then count: whoever sees Stalls() move knows the
		// hook has already run for that stall.
		if fn := s.onStall.Load(); fn != nil {
			(*fn)(s.stallReport(since))
		}
		s.wdStalls.Add(1)
		// Recovery nudge: re-deliver wake tokens to every parked worker.
		// Safe unconditionally (spurious wakes are absorbed by the park
		// protocol); sufficient whenever the stall is a lost wake with
		// work in the injector.
		s.wakeAll()
		// Re-arm: fire again only if the stall persists a full window.
		lastProgress = s.clock.Now()
	}
}
