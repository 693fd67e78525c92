package gateway

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sink"
	"repro/internal/stats"
)

// Config tunes a Gateway. The zero value is usable: it builds and
// owns an all-defaults Runtime, serves the Builtins templates, and
// applies the defaults documented on each field.
type Config struct {
	// Runtime is the runtime requests execute on. nil means the
	// gateway constructs one from RuntimeOptions and owns it (Close
	// closes it); a caller-supplied runtime is never closed by the
	// gateway.
	Runtime        *repro.Runtime
	RuntimeOptions []repro.Option

	// Registry is the template table; nil means Builtins().
	Registry *Registry

	// QueueDepth bounds the admission queue across all tenants
	// (default 64). At the bound, requests shed with 429 — the queue
	// never grows without bound.
	QueueDepth int

	// Dispatchers is the number of goroutines moving admitted
	// requests into the runtime — the gateway's concurrent-Run bound
	// (default 2×GOMAXPROCS, min 2).
	Dispatchers int

	// TenantRate and TenantBurst are each tenant's token bucket:
	// TenantRate requests/second sustained, TenantBurst at peak.
	// TenantRate <= 0 (the default) disables quotas; TenantBurst
	// defaults to max(1, ⌈TenantRate⌉).
	TenantRate  float64
	TenantBurst int

	// TenantWeights sets per-tenant dequeue weights (consecutive
	// serves per round-robin turn). Unlisted tenants weigh 1.
	TenantWeights map[string]int

	// PeggedWindow is the overload fuse: when the runtime's elastic
	// pool reports PeggedFor beyond this window (at its ceiling under
	// sustained backlog for that long), admission sheds until the
	// signal withdraws (default 50ms). Never fires on a fixed pool,
	// whose PeggedFor is always 0.
	PeggedWindow time.Duration

	// RetryAfter is the hint attached to queue-full and
	// pegged-overload sheds (throttle sheds compute the exact token
	// wait instead). Default 1s.
	RetryAfter time.Duration

	// DefaultTimeout and MaxTimeout bound the per-request deadline
	// the HTTP layer applies (defaults 10s and 60s). The deadline
	// covers queue wait plus execution.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// ReapGrace is the hung-request fuse: a dispatched request whose
	// RunContext is still running this long past the request's own
	// deadline is force-failed (ErrHung, HTTP 504), its dispatcher slot
	// recovered by spawning a replacement, and the gateway trips into
	// degraded mode. The grace exists because an expired deadline is
	// normal — cooperative cancellation takes a moment to quiesce —
	// while deadline+grace means the computation is wedged (a task body
	// that never polls Ctx.Err). Default 1s; < 0 disables reaping.
	// Requests with no deadline are never reaped.
	ReapGrace time.Duration

	// DegradedHoldDown is how long the gateway sheds new admissions
	// (503 + Retry-After) after a self-defense trip — a reaped hung
	// request, or a scheduler stall reported by the watchdog. Each trip
	// extends the window, so the gateway stays degraded until it has
	// been healthy for one full hold-down. Default 2s.
	DegradedHoldDown time.Duration

	// Watchdog, when > 0 and the gateway owns its runtime (Runtime ==
	// nil), arms the runtime's scheduler stall watchdog with this
	// threshold and wires detections into degraded mode. With a
	// caller-supplied Runtime the field is ignored — arm the watchdog
	// yourself (repro.WithWatchdog) and the gateway still installs the
	// OnStall hook (replacing any previously installed one).
	Watchdog time.Duration

	// Sink receives one RunRecord per settled request — sync and async
	// alike: completion, failure, cancellation, or a reap. nil means a
	// default coalescing sink over a 4096-record in-memory ring, so
	// GET /v1/runs/{id} works out of the box with bounded memory. The
	// gateway owns whichever sink ends up here: Close flushes and
	// closes it after the dispatchers have exited (every settled
	// request's record published) and before an owned runtime closes —
	// the drain ordering the async API's no-lost-records guarantee
	// rests on.
	Sink *sink.Sink

	// JitterSeed seeds the ±20% spread applied to every Retry-After
	// the gateway emits, so a synchronized cohort of shed clients does
	// not come back as a synchronized retry storm. 0 means a random
	// seed; tests fix it for reproducible spreads.
	JitterSeed uint64
}

// ErrUnknownTemplate reports a request for a template name the
// registry does not hold (HTTP 404).
var ErrUnknownTemplate = errors.New("gateway: unknown template")

// ErrDraining reports admission refused because shutdown has begun
// (HTTP 503 + Retry-After).
var ErrDraining = errors.New("gateway: draining")

// ErrHung reports a request force-failed by the hung-request reaper:
// its computation was still running ReapGrace past the request's
// deadline (HTTP 504). The computation itself is NOT interrupted —
// Go cannot preempt a wedged task body — but the request's dispatcher
// slot has been recovered, so the wedge costs the gateway one
// runtime computation, not one dispatcher.
var ErrHung = errors.New("gateway: request hung (still running past deadline + grace)")

// DegradedError reports admission refused because the gateway is in
// degraded mode after a self-defense trip (HTTP 503 + Retry-After):
// a hung request was reaped, or the runtime watchdog reported a
// scheduler stall, within the current hold-down window.
type DegradedError struct {
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("gateway: degraded (recent stall or hung request), retry after %v", e.RetryAfter)
}

// SizeError reports a request size above the template's bound
// (HTTP 400).
type SizeError struct {
	Template string
	N, MaxN  uint64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("gateway: template %q: n=%d exceeds max %d", e.Template, e.N, e.MaxN)
}

// Shed reasons carried by ShedError.
const (
	ShedQueueFull = "queue-full" // admission queue at QueueDepth
	ShedOverload  = "overloaded" // elastic pool pegged at max beyond PeggedWindow
	ShedThrottled = "throttled"  // tenant token bucket empty
)

// ShedError reports a request refused by admission control
// (HTTP 429), with the reason and a Retry-After hint.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("gateway: shed (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Result reports a completed request's outcome: the run id its
// record was published under, the latency split (time queued before a
// dispatcher picked it up, time executing in the runtime), and — for
// a result-bearing template — the computation's result value.
type Result struct {
	RunID string
	Queue time.Duration
	Run   time.Duration
	Value any
}

// request is one admitted computation waiting for a dispatcher.
type request struct {
	ctx      context.Context
	cancel   context.CancelFunc // aborts the run (DELETE /v1/runs/{id}); never nil
	id       string             // sink RunRecord id, returned to async clients
	async    bool               // detached from its HTTP request; outcome lives in the sink
	ten      *tenant
	tpl      Template
	task     repro.Task // built once at prepare (tpl.Result or tpl.Task)
	get      func() any // result getter, nil for result-less templates
	n        uint64
	enq      time.Time
	deadline time.Time       // ctx's deadline (zero: none; never reaped)
	done     chan dispatched // buffered; neither settler blocks on it

	// settled arbitrates the request's single outcome between the
	// dispatcher (RunContext returned) and the reaper (RunContext
	// outlived deadline+grace): exactly one side wins the CAS, sends on
	// done, and owns the bookkeeping. A dispatcher that loses knows it
	// was declared hung and its slot already replaced — it exits as a
	// zombie instead of double-settling.
	settled atomic.Bool
}

type dispatched struct {
	res Result
	err error
}

// Gateway is the admission layer between the network and a Runtime:
// bounded queue, per-tenant quotas, weighted-fair dispatch, and a
// graceful drain. Create with New, serve via Handler (or Submit
// directly), stop with Close.
type Gateway struct {
	cfg   Config
	rt    *repro.Runtime
	ownRT bool
	reg   *Registry

	tenantBurst float64

	mu       sync.Mutex
	work     *sync.Cond // dispatchers wait here for queued requests
	quiet    *sync.Cond // Close waits here for queued+inflight to hit 0
	tenants  map[string]*tenant
	active   []*tenant // WRR ring of tenants with non-empty FIFOs
	queued   int
	running  int
	drain    bool
	closed   bool
	inflight map[*request]struct{} // dispatched, not yet settled (reaper's scan set)
	runs     map[string]*request   // every admitted, unsettled request by run id (the 202-pending set)
	nextDisp int                   // next dispatcher id (replacements continue the sequence)

	// degradedUntil is the self-defense gate: while now < degradedUntil
	// new admissions shed with DegradedError. Trips (reap, watchdog
	// stall) push it DegradedHoldDown into the future.
	degradedUntil time.Time
	degradedTrips uint64

	admitted      uint64
	completed     uint64
	failed        uint64
	reaped        uint64
	shedQueueFull uint64
	shedOverload  uint64
	shedThrottled uint64
	shedDraining  uint64
	shedDegraded  uint64

	jmu  sync.Mutex
	jrng rng.SplitMix64 // Retry-After jitter stream (JitterSeed)

	sink     *sink.Sink    // RunRecord publish path; owned (Close closes it)
	runNonce uint64        // distinguishes this gateway's run ids across restarts
	runSeq   atomic.Uint64 // run id sequence

	histMu  sync.RWMutex
	tplHist map[string]*stats.LatencyHist

	closeOnce sync.Once
	closedCh  chan struct{}
	reapStop  chan struct{} // nil when reaping is disabled
	wg        sync.WaitGroup
}

// New builds a Gateway from cfg (see Config for defaults) and starts
// its dispatchers. The returned gateway is serving; Close it when
// done.
func New(cfg Config) *Gateway {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Dispatchers <= 0 {
		cfg.Dispatchers = 2 * runtime.GOMAXPROCS(0)
		if cfg.Dispatchers < 2 {
			cfg.Dispatchers = 2
		}
	}
	if cfg.PeggedWindow <= 0 {
		cfg.PeggedWindow = 50 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.ReapGrace == 0 {
		cfg.ReapGrace = time.Second
	}
	if cfg.DegradedHoldDown <= 0 {
		cfg.DegradedHoldDown = 2 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = rng.AutoSeed()
	}
	if cfg.Registry == nil {
		cfg.Registry = Builtins()
	}
	if cfg.Sink == nil {
		cfg.Sink = sink.New(sink.NewRing(0))
	}
	if cfg.Runtime == nil && cfg.Watchdog > 0 {
		cfg.RuntimeOptions = append(cfg.RuntimeOptions[:len(cfg.RuntimeOptions):len(cfg.RuntimeOptions)],
			repro.WithWatchdog(cfg.Watchdog))
	}
	burst := float64(cfg.TenantBurst)
	if burst < 1 {
		burst = cfg.TenantRate
		if burst < 1 {
			burst = 1
		}
	}
	g := &Gateway{
		cfg:         cfg,
		rt:          cfg.Runtime,
		reg:         cfg.Registry,
		tenantBurst: burst,
		tenants:     make(map[string]*tenant),
		inflight:    make(map[*request]struct{}),
		runs:        make(map[string]*request),
		nextDisp:    cfg.Dispatchers,
		tplHist:     make(map[string]*stats.LatencyHist),
		closedCh:    make(chan struct{}),
		sink:        cfg.Sink,
		runNonce:    rng.AutoSeed(),
	}
	g.jrng.Seed(rng.Mix64(cfg.JitterSeed))
	if g.rt == nil {
		g.rt = repro.NewRuntime(cfg.RuntimeOptions...)
		g.ownRT = true
	}
	// Wire runtime self-defense into admission: a watchdog-detected
	// scheduler stall trips degraded mode. Installing the hook on a
	// runtime whose watchdog is not armed is inert.
	g.rt.Scheduler().OnStall(func(sched.StallReport) { g.tripDegraded() })
	g.work = sync.NewCond(&g.mu)
	g.quiet = sync.NewCond(&g.mu)
	g.wg.Add(cfg.Dispatchers)
	for i := 0; i < cfg.Dispatchers; i++ {
		go g.dispatch(i)
	}
	if cfg.ReapGrace > 0 {
		g.reapStop = make(chan struct{})
		g.wg.Add(1)
		go g.reaper()
	}
	return g
}

// Runtime returns the runtime the gateway dispatches into.
func (g *Gateway) Runtime() *repro.Runtime { return g.rt }

// Registry returns the gateway's template registry.
func (g *Gateway) Registry() *Registry { return g.reg }

// Sink returns the gateway's RunRecord sink (stats, lookups).
func (g *Gateway) Sink() *sink.Sink { return g.sink }

// runID mints a process-unique run id: a per-gateway random nonce (so
// ids from different gateway incarnations never collide in a shared
// sink file) plus a sequence number.
func (g *Gateway) runID() string {
	return fmt.Sprintf("%08x-%x", uint32(g.runNonce), g.runSeq.Add(1))
}

// prepare validates the request shape (template, size, async
// capability) and builds the request record: the task and result
// getter are constructed once here, the run id assigned, and ctx
// wrapped with a cancel so DELETE /v1/runs/{id} can abort any tracked
// run through the RunContext plumbing.
func (g *Gateway) prepare(ctx context.Context, tplName string, n uint64, async bool) (*request, error) {
	tpl, ok := g.reg.Get(tplName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTemplate, tplName)
	}
	if n == 0 {
		n = tpl.DefaultN
	}
	if n > tpl.MaxN {
		return nil, &SizeError{Template: tpl.Name, N: n, MaxN: tpl.MaxN}
	}
	if async && tpl.Result == nil {
		return nil, fmt.Errorf("%w: %q", ErrAsyncUnsupported, tpl.Name)
	}
	req := &request{
		id:    g.runID(),
		async: async,
		tpl:   tpl,
		n:     n,
		enq:   time.Now(),
		done:  make(chan dispatched, 1),
	}
	req.ctx, req.cancel = context.WithCancel(ctx)
	if tpl.Result != nil {
		req.task, req.get = tpl.Result(n)
	} else {
		req.task = tpl.Task(n)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.deadline = dl
	}
	return req, nil
}

// Submit runs template tplName with size n (0 means the template's
// default) for the given tenant, blocking until the computation
// completes or is refused. ctx is the request deadline: it covers
// queue wait plus execution, and cancellation aborts the computation
// cooperatively. The error is nil on success, ErrUnknownTemplate /
// *SizeError on a bad request, *ShedError when admission refused
// (queue full, overload, or quota), ErrDraining during shutdown, or
// the computation's own error.
//
// Submit never hangs on an overloaded gateway: admission either
// refuses immediately or bounds the wait by the queue depth and the
// request's own deadline.
func (g *Gateway) Submit(ctx context.Context, tenantName, tplName string, n uint64) (Result, error) {
	req, err := g.prepare(ctx, tplName, n, false)
	if err != nil {
		return Result{}, err
	}
	if err := g.admit(tenantName, req); err != nil {
		req.cancel()
		return Result{}, err
	}
	out := <-req.done
	return out.res, out.err
}

// SubmitAsync admits template tplName with size n for the given
// tenant and returns the run id immediately — the 202 path of POST
// /v1/runs/{template}?mode=async. The run executes detached from any
// HTTP request under its own deadline (timeout, clamped by the
// gateway's bounds); its outcome is a RunRecord in the sink, served
// by GET /v1/runs/{id}, and DELETE /v1/runs/{id} aborts it. Admission
// applies exactly the sync gates and error taxonomy; additionally the
// template must be result-bearing (ErrAsyncUnsupported otherwise —
// validated at registration, merely consulted here).
func (g *Gateway) SubmitAsync(tenantName, tplName string, n uint64, timeout time.Duration) (string, error) {
	if timeout <= 0 {
		timeout = g.cfg.DefaultTimeout
	}
	if timeout > g.cfg.MaxTimeout {
		timeout = g.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	req, err := g.prepare(ctx, tplName, n, true)
	if err != nil {
		cancel()
		return "", err
	}
	// prepare wrapped ctx once more; chain the timeout's cancel so the
	// timer is released whichever cancel fires.
	inner := req.cancel
	req.cancel = func() { inner(); cancel() }
	if err := g.admit(tenantName, req); err != nil {
		req.cancel()
		return "", err
	}
	return req.id, nil
}

// admit applies the admission protocol, every gate evaluated at one
// instant under the lock, in strictly decreasing severity: drain
// (503) > degraded (503) > quota (429) > overload (429) > queue bound
// (429). The ordering is a contract the race tests pin: once the
// drain or degraded gate has refused anyone, no concurrent admission
// may be refused with a *milder* verdict by a gate further down —
// which is why the scheduler's pegged clock is read under g.mu rather
// than before it, where a stale pre-lock read could turn a
// should-be-503 into a 429 after BeginDrain won the lock first.
//
// Quota comes before capacity deliberately — a hot tenant's excess is
// charged to its own bucket and shed as "throttled" before it can
// occupy the shared queue, which is what keeps queue-full sheds rare
// for quota-respecting tenants. The token spent by a request that the
// capacity gates then refuse is not refunded; under overload that
// only slows the spender further, which is the intended direction.
func (g *Gateway) admit(tenantName string, req *request) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.drain {
		g.shedDraining++
		return ErrDraining
	}
	now := time.Now()
	if now.Before(g.degradedUntil) {
		g.shedDegraded++
		return &DegradedError{RetryAfter: g.jitter(g.degradedUntil.Sub(now))}
	}
	t := g.tenantFor(tenantName)
	if ok, wait := t.bucket.take(now); !ok {
		t.shed++
		g.shedThrottled++
		return &ShedError{Reason: ShedThrottled, RetryAfter: g.jitter(wait)}
	}
	if g.rt.Scheduler().PeggedFor() > g.cfg.PeggedWindow {
		t.shed++
		g.shedOverload++
		return &ShedError{Reason: ShedOverload, RetryAfter: g.jitter(g.cfg.RetryAfter)}
	}
	if g.queued >= g.cfg.QueueDepth {
		t.shed++
		g.shedQueueFull++
		return &ShedError{Reason: ShedQueueFull, RetryAfter: g.jitter(g.cfg.RetryAfter)}
	}
	req.ten = t
	t.admitted++
	g.admitted++
	g.runs[req.id] = req // tracked (202-pending) from the same instant it is admitted
	g.enqueueLocked(t, req)
	g.work.Signal()
	return nil
}

// dispatch is one dispatcher goroutine: WRR-pop a request, run it on
// the runtime under the request's own context, record latency, and
// hand the outcome back. Dispatchers exit only once the gateway is
// closed AND the queue is empty, so a drain completes every admitted
// request — or when the reaper declares their current request hung,
// in which case the slot has already been handed to a replacement and
// the loser exits as a zombie the moment RunContext finally returns.
func (g *Gateway) dispatch(id int) {
	defer g.wg.Done()
	for {
		g.mu.Lock()
		for len(g.active) == 0 && !g.closed {
			g.work.Wait()
		}
		if len(g.active) == 0 {
			g.mu.Unlock()
			return
		}
		req := g.nextLocked()
		g.running++
		g.inflight[req] = struct{}{}
		g.mu.Unlock()

		wait := time.Since(req.enq)
		start := time.Now()
		g.chaosDispatch(req) // fault seam: no-op unless built with -tags chaostest
		info, err := g.rt.RunContextInfo(req.ctx, req.task)
		run := time.Since(start)

		if !req.settled.CompareAndSwap(false, true) {
			// The reaper won: the request was force-failed as hung and
			// this slot replaced. The outcome (done send, counters,
			// running--) is the reaper's; recording latency for a reaped
			// request would poison the histograms with wedge durations.
			return
		}

		req.ten.hist.Record(id, wait+run)
		g.histFor(req.tpl.Name).Record(id, wait+run)

		// Publish before untracking: GET /v1/runs/{id} checks the runs
		// map first and the sink second, so an id it no longer finds
		// pending has already been published — never a transient 404.
		rec := g.record(req, err, wait, run, info)
		g.sink.Publish(rec)

		g.mu.Lock()
		delete(g.inflight, req)
		delete(g.runs, req.id)
		g.running--
		if err != nil {
			g.failed++
			req.ten.failed++
		} else {
			g.completed++
			req.ten.completed++
		}
		if g.drain && g.queued == 0 && g.running == 0 {
			g.quiet.Broadcast()
		}
		g.mu.Unlock()
		req.cancel() // release the run's context resources (timeout timer)
		req.done <- dispatched{res: Result{RunID: req.id, Queue: wait, Run: run, Value: rec.Result}, err: err}
	}
}

// record builds the RunRecord a settled request publishes: identity,
// outcome taxonomy (ok / failed / canceled; the reaper publishes hung
// itself), latency split, and the run's approximate work counters
// from RunContextInfo.
func (g *Gateway) record(req *request, err error, wait, run time.Duration, info repro.RunInfo) *sink.RunRecord {
	rec := &sink.RunRecord{
		ID:       req.id,
		Tenant:   req.ten.name,
		Template: req.tpl.Name,
		N:        req.n,
		Enqueued: req.enq,
		Finished: time.Now(),
		QueueMS:  float64(wait) / float64(time.Millisecond),
		RunMS:    float64(run) / float64(time.Millisecond),
		Vertices: info.Vertices,
		Executed: info.Executed,
		Steals:   info.Steals,
	}
	switch {
	case err == nil:
		rec.Status = sink.StatusOK
		if req.get != nil {
			rec.Result = req.get()
		}
	case errors.Is(err, context.Canceled):
		rec.Status = sink.StatusCanceled
		rec.Error = err.Error()
	default:
		rec.Status = sink.StatusFailed
		rec.Error = err.Error()
	}
	return rec
}

// jitter spreads d uniformly over [0.8d, 1.2d] from the gateway's
// seeded stream, so every Retry-After the gateway hands out
// desynchronizes the retries it provokes: a cohort of clients shed in
// the same instant with the same naked hint would come back as the
// same thundering herd, one hold-down later.
func (g *Gateway) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	g.jmu.Lock()
	u := g.jrng.Next()
	g.jmu.Unlock()
	f := 0.8 + 0.4*float64(u>>11)/float64(1<<53)
	return time.Duration(f * float64(d))
}

// tripDegraded enters (or extends) degraded mode: admissions shed 503
// until the gateway has been trip-free for a full hold-down window.
func (g *Gateway) tripDegraded() {
	g.mu.Lock()
	g.degradedTrips++
	g.degradedUntil = time.Now().Add(g.cfg.DegradedHoldDown)
	g.mu.Unlock()
}

// Degraded reports whether the gateway is currently shedding
// admissions in degraded mode (healthz surfaces it as 503).
func (g *Gateway) Degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Now().Before(g.degradedUntil)
}

// reaper is the hung-request watchdog: it scans dispatched-but-
// unsettled requests and force-fails any whose RunContext has outlived
// the request's deadline by ReapGrace.
func (g *Gateway) reaper() {
	defer g.wg.Done()
	tick := g.cfg.ReapGrace / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-g.reapStop:
			return
		case <-t.C:
		}
		g.reapOnce(time.Now())
	}
}

// reapOnce force-fails every hung in-flight request: the settled CAS
// takes the outcome away from the still-running dispatcher, the
// request fails with ErrHung (HTTP 504), a replacement dispatcher
// restores the gateway's concurrency, and the gateway trips into
// degraded mode — a wedge that ate a dispatcher is exactly the
// condition under which accepting more work digs the hole deeper. The
// wedged computation itself keeps running (nothing can preempt it);
// what is recovered is the request and the slot, and the drain
// accounting (running--) so a Close behind a wedge can still proceed.
func (g *Gateway) reapOnce(now time.Time) (reaped int) {
	type hungReq struct {
		req *request
		err error
	}
	var hung []hungReq
	g.mu.Lock()
	for req := range g.inflight {
		if req.deadline.IsZero() || now.Before(req.deadline.Add(g.cfg.ReapGrace)) {
			continue
		}
		if !req.settled.CompareAndSwap(false, true) {
			continue // the dispatcher settled between our scan and now
		}
		delete(g.inflight, req)
		g.running--
		g.failed++
		g.reaped++
		req.ten.failed++
		reaped++
		// Restore concurrency: the zombie's wg slot is inherited by the
		// replacement only notionally — both are tracked, the zombie
		// exits when its RunContext returns. The reaper itself holds a
		// wg slot, so this Add can never race a completed wg.Wait.
		g.wg.Add(1)
		id := g.nextDisp
		g.nextDisp++
		go g.dispatch(id)
		g.degradedTrips++
		g.degradedUntil = now.Add(g.cfg.DegradedHoldDown)
		if g.drain && g.queued == 0 && g.running == 0 {
			g.quiet.Broadcast()
		}
		err := fmt.Errorf("%w after %v", ErrHung, now.Sub(req.deadline).Round(time.Millisecond))
		hung = append(hung, hungReq{req, err})
		req.done <- dispatched{err: err}
	}
	g.mu.Unlock()
	// Publish the hung records outside the admission lock (the sink
	// backend may do IO), then untrack. Publish-before-untrack keeps
	// the GET taxonomy gapless: the id resolves as pending until the
	// record is visible, done after.
	for _, h := range hung {
		g.sink.Publish(&sink.RunRecord{
			ID:       h.req.id,
			Tenant:   h.req.ten.name,
			Template: h.req.tpl.Name,
			N:        h.req.n,
			Status:   sink.StatusHung,
			Error:    h.err.Error(),
			Enqueued: h.req.enq,
			Finished: now,
			QueueMS:  float64(now.Sub(h.req.enq)) / float64(time.Millisecond),
		})
	}
	if len(hung) > 0 {
		g.mu.Lock()
		for _, h := range hung {
			delete(g.runs, h.req.id)
		}
		g.mu.Unlock()
		for _, h := range hung {
			h.req.cancel() // signal the wedge (cooperatively) and free the timer
		}
	}
	return reaped
}

// histFor returns (creating on first touch) the per-template
// histogram.
func (g *Gateway) histFor(tpl string) *stats.LatencyHist {
	g.histMu.RLock()
	h, ok := g.tplHist[tpl]
	g.histMu.RUnlock()
	if ok {
		return h
	}
	g.histMu.Lock()
	defer g.histMu.Unlock()
	if h, ok = g.tplHist[tpl]; !ok {
		h = stats.NewLatencyHist(g.cfg.Dispatchers)
		g.tplHist[tpl] = h
	}
	return h
}

// BeginDrain closes the admission door (new submissions fail with
// ErrDraining / HTTP 503) without waiting: the first phase of a
// graceful shutdown, taken before the HTTP server stops accepting so
// that no request admitted after the decision to stop can extend the
// drain. Idempotent.
func (g *Gateway) BeginDrain() {
	g.mu.Lock()
	g.drain = true
	if g.queued == 0 && g.running == 0 {
		g.quiet.Broadcast()
	}
	g.mu.Unlock()
}

// Draining reports whether BeginDrain (or Close) has been called.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.drain
}

// Close drains and stops the gateway: admission closes (ErrDraining),
// every already-admitted request runs to completion, the dispatchers
// exit, the sink flushes and closes — every settled request's record
// durable before anything else is torn down — and finally, when the
// gateway owns its runtime, the runtime's own Close drains and stops
// the workers. The ordering is the async API's no-lost-records
// guarantee: the dispatchers' wg.Wait happens-before the sink flush,
// so a record published by any dispatcher is flushed by Close, and
// the sink closes before the runtime so a crash-free shutdown never
// leaves a completed run unpersisted. Close is idempotent and safe
// concurrently; every call returns only after shutdown completes. It
// always returns nil (io.Closer).
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.mu.Lock()
		g.drain = true
		// The reaper keeps running through the drain: a hung request's
		// running-- is what lets this wait terminate behind a wedge.
		for g.queued > 0 || g.running > 0 {
			g.quiet.Wait()
		}
		g.closed = true
		g.work.Broadcast()
		g.mu.Unlock()
		if g.reapStop != nil {
			close(g.reapStop)
		}
		g.wg.Wait()
		_ = g.sink.Close() // final flush; write failures are visible as Stats().Sink.Dropped
		if g.ownRT {
			g.rt.Close()
		}
		close(g.closedCh)
	})
	<-g.closedCh
	return nil
}
