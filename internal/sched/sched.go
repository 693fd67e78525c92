package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/internal/deque"
	"repro/internal/rng"
	"repro/internal/spdag"
	"repro/internal/topology"
)

// Scheduler executes sp-dag vertices on an elastic pool of workers:
// between min (New's worker count) and max (WithMaxWorkers) of the
// fixed worker slots are live at any time. See doc.go for the
// lifecycle.
type Scheduler struct {
	workers []*worker // all slots, len == max; never mutated after New
	policy  Policy
	min     int
	stop    atomic.Bool
	wg      sync.WaitGroup
	started atomic.Bool

	// topo maps worker slots to locality nodes; it drives the
	// two-phase victim preference in both steal policies, the per-node
	// vertex pools, and least-loaded-node spawn placement. Always
	// non-zero after New (an unspecified topology resolves to
	// topology.Detect, which degrades to flat). Correctness never
	// depends on it: locality is only a preference.
	topo  topology.Topology
	pools *spdag.NodePools // per-node vertex overflow pools

	// slotNodes caches topo.NodeOf per slot (== workers[i].node) in the
	// slice shape SpawnPlacement consumes.
	slotNodes []int

	// clock is the scheduler's time source (clock.go): the real clock
	// in production, a ManualClock in deterministic tests. Set in New,
	// never changed.
	clock Clock

	// nparked counts workers currently parked (registered for wake-up).
	// Producers read it on every push; it only changes on park/unpark
	// transitions, so in a busy scheduler the line is read-shared.
	nparked atomic.Int32

	// nlive counts live workers (running or parked; not dormant slots).
	// It moves only on spawn/retire, both rare.
	nlive atomic.Int32

	// elastic is min < max, precomputed: fixed pools must pay nothing
	// for the spawn machinery on the push path.
	elastic     bool
	retireAfter time.Duration

	// pressure counts consecutive wake attempts that found injector
	// backlog but no parked worker to claim; crossing spawnPressure
	// spawns a worker (the sustained-backlog signal, see doc.go).
	pressure atomic.Int32

	// peggedSince records (as UnixNano, 0 = not pegged) when an elastic
	// pool last crossed the spawn-pressure threshold while already at
	// its ceiling — sustained injector backlog that a spawn can no
	// longer absorb. It is cleared the moment the overload evidence
	// breaks: a wake attempt finds a parked worker, the backlog drains
	// below the sustained-signal floor, or a worker parks (it found
	// nothing to do — and a retirement is always preceded by such a
	// park). PeggedFor exposes it; it stays 0 on a fixed pool, whose
	// producers never run the spawn machinery.
	peggedSince atomic.Int64

	// spawnMu serializes goroutine creation against Shutdown so a spawn
	// cannot race the WaitGroup's final Wait.
	spawnMu sync.Mutex
	spawned atomic.Uint64 // elastic spawns (beyond Start's min workers)
	retired atomic.Uint64 // retirements

	// Watchdog state (see watchdog.go). wdStop is non-nil exactly when
	// the watchdog is armed (WithWatchdog); it is set in New and never
	// changes, so workers read it as a plain field. live counts
	// outstanding submitted-but-unfinished computations
	// (RunStarted/RunFinished) — the "there should be progress" gate
	// that keeps an idle scheduler from ever looking stalled.
	wdThreshold time.Duration
	wdStop      chan struct{}
	wdStalls    atomic.Uint64
	onStall     atomic.Pointer[func(StallReport)]
	live        atomic.Int64

	inj injector
}

// Policy selects the stealing mechanism.
type Policy int

const (
	// ChaseLev uses per-worker concurrent Chase-Lev deques: thieves
	// steal directly with a CAS (the classic design, e.g. Cilk).
	ChaseLev Policy = iota
	// PrivateDeques uses unsynchronized per-worker deques with
	// receiver-initiated steal requests (Acar-Charguéraud-Rainey,
	// PPoPP'13 — the scheduler the paper's implementation uses).
	PrivateDeques
)

func (p Policy) String() string {
	if p == PrivateDeques {
		return "private-deques"
	}
	return "chase-lev"
}

// Worker slot states (worker.state). A slot is dormant when no
// goroutine runs its loop — either it has not been spawned yet or its
// worker retired; its storage (deque ring, freelist) has been released
// and only the identity fields remain. retiring is the drain window in
// between: thieves already treat the slot as unable to answer, but a
// spawner must not claim it until the departing goroutine has finished
// handing its storage back — the dormant store is what publishes the
// drained state to the claiming CAS.
const (
	wsDormant int32 = iota
	wsRetiring
	wsLive
)

// Spawn/retire tuning. spawnPressure is the number of consecutive
// backlogged wake attempts that constitute a sustained backlog;
// defaultRetireAfter is how long a worker above the minimum stays
// parked before it retires.
const (
	spawnPressure      = 2
	defaultRetireAfter = 100 * time.Millisecond
)

// workerStats holds the per-worker counters on a cache line of their
// own: the leading pad shields them from the worker's scheduling state
// (deque indices, park flag), the trailing pad from whatever follows
// the worker in memory. Layout is asserted at compile time in
// layout_test.go. Steals are split by victim locality — localSteals
// from same-node victims, remoteSteals from other nodes (on a flat
// topology every victim is local); their sum is the total steal count.
// vertices is the worker's shard of its dag's vertex count (see
// ShardVertices): every line here is written by the owner alone, so
// counting a vertex never touches a line another worker writes.
type workerStats struct {
	_            [64]byte
	localSteals  atomic.Uint64 // successful steals from same-node victims
	remoteSteals atomic.Uint64 // successful steals from remote-node victims
	executed     atomic.Uint64 // vertices executed
	vertices     atomic.Int64  // vertices created in the sharded dag
	_            [32]byte
}

// worker is one scheduling slot: a goroutine pinned to a deque while
// live, an empty shell while dormant.
type worker struct {
	s   *Scheduler
	id  int
	dq  deque.Deque[spdag.Vertex] // ChaseLev policy
	pd  privateState              // PrivateDeques policy
	g   *rng.Xoshiro256ss
	ctx spdag.ExecContext

	// node is the slot's locality node under the scheduler's topology;
	// localVictims/remoteVictims are the victim candidate lists the
	// two-phase steal order draws from (same node minus self, then
	// everyone else). All three are fixed at New — slots never move
	// between nodes — so the steal loop reads them without
	// synchronization.
	node          int
	localVictims  []*worker
	remoteVictims []*worker

	// state is the slot lifecycle flag (wsDormant/wsLive). Spawners CAS
	// dormant→live; the retiring worker itself stores dormant. Thieves
	// under PrivateDeques read it to avoid posting requests to victims
	// that cannot answer.
	state atomic.Int32

	// Parking state: parked is the claim flag (a waker CASes it
	// true→false to take responsibility for exactly one wake), sema the
	// binary semaphore the parked goroutine blocks on. See park. A
	// retiring worker decommissions the flag with the same CAS a waker
	// uses, claiming itself (see parkTimed).
	parked atomic.Bool
	sema   chan struct{}

	// timer arms timed parks (retirement); lazily allocated from the
	// scheduler's clock and reused (Go 1.23 timer semantics: Reset/Stop
	// discard any pending tick, so no drain discipline is needed — or
	// safe, see parkTimed).
	timer Timer

	// execStart is the UnixNano at which the worker entered Execute
	// (0 = not executing). Maintained only when the watchdog is armed:
	// it is what lets the stall detector distinguish "a task is
	// legitimately running long" (progress) from "nobody is doing
	// anything yet work is outstanding" (a stall).
	execStart atomic.Int64

	stats workerStats
}

// markExec/doneExec bracket a vertex execution for the watchdog's
// mid-execution probe; with the watchdog off (wdStop nil, immutable
// after New) they are a single predictable branch.
func (w *worker) markExec() {
	if w.s.wdStop != nil {
		// 0 is the "not executing" sentinel; a manual clock sitting at
		// the Unix epoch must not make the mark invisible.
		ns := w.s.clock.Now().UnixNano()
		if ns == 0 {
			ns = 1
		}
		w.execStart.Store(ns)
	}
}

func (w *worker) doneExec() {
	if w.s.wdStop != nil {
		w.execStart.Store(0)
	}
}

func (w *worker) live() bool { return w.state.Load() == wsLive }

// Option configures a Scheduler.
type Option func(*config)

type config struct {
	seed        uint64
	policy      Policy
	max         int
	retireAfter time.Duration
	topo        topology.Topology
	watchdog    time.Duration
	clock       Clock
}

// WithSeed fixes the per-worker RNG seeds for reproducible runs.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithPolicy selects the stealing mechanism (default ChaseLev).
func WithPolicy(p Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithMaxWorkers makes the pool elastic: it may grow from New's worker
// count (the minimum) up to max under sustained injector backlog, and
// shrinks back when the extra workers stay parked. max ≤ 0 (the
// default) means a fixed pool of exactly the minimum; New panics when
// 0 < max < min, which is always a configuration bug.
func WithMaxWorkers(max int) Option {
	return func(c *config) { c.max = max }
}

// WithRetireAfter sets how long a worker above the minimum stays
// parked before it retires (default 100ms). It only matters for
// elastic pools; d ≤ 0 keeps the default.
func WithRetireAfter(d time.Duration) Option {
	return func(c *config) { c.retireAfter = d }
}

// WithTopology sets the locality map from worker slots to nodes: the
// steal loops prefer same-node victims (falling back to remote nodes
// only when the local round comes up empty), vertex storage overflows
// into per-node pools, and the elastic pool spawns onto the
// least-loaded node. The zero Topology (the default) auto-detects the
// host via topology.Detect, which degrades to a flat single-node map
// on hosts without NUMA sysfs — identical scheduling to the
// pre-topology scheduler. Use topology.Synthetic to exercise
// multi-node behavior on any host, or topology.Flat to force locality
// blindness.
func WithTopology(t topology.Topology) Option {
	return func(c *config) { c.topo = t }
}

// WithWatchdog arms the scheduler watchdog: a goroutine that detects
// the wedged-scheduler shape — outstanding computations, yet no vertex
// executed and no worker mid-execution for at least d — counts it in
// Stats.Stalls, hands a per-worker state dump to the OnStall hook, and
// nudges recovery by re-waking every parked worker (which, by the park
// protocol, is always safe and repairs a genuinely lost wake token).
// d ≤ 0 (the default) leaves the watchdog off and costs the worker
// loop nothing; an armed watchdog adds two plain atomic stores per
// vertex execution (the mid-execution flag) and one sampling goroutine.
//
// The watchdog deliberately does NOT fire while any worker is inside a
// task body: a single legitimately long-running task is progress, not
// a stall — per-request deadlines (see internal/gateway) are the
// defense against tasks that are *too* long.
func WithWatchdog(d time.Duration) Option {
	return func(c *config) { c.watchdog = d }
}

// New creates a scheduler with p workers (p ≤ 0 means GOMAXPROCS);
// with WithMaxWorkers(max), p is the minimum of an elastic pool that
// can grow to max. Call Start to launch the (minimum) workers.
func New(p int, opts ...Option) *Scheduler {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	cfg := config{seed: rng.AutoSeed()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.max <= 0 {
		cfg.max = p
	}
	if cfg.max < p {
		panic(fmt.Sprintf("sched: WithMaxWorkers(%d) below the minimum worker count %d", cfg.max, p))
	}
	if cfg.retireAfter <= 0 {
		cfg.retireAfter = defaultRetireAfter
	}
	if cfg.topo.IsZero() {
		cfg.topo = topology.Detect()
	}
	if cfg.clock == nil {
		cfg.clock = realClock{}
	}
	s := &Scheduler{
		workers:     make([]*worker, cfg.max),
		policy:      cfg.policy,
		min:         p,
		elastic:     cfg.max > p,
		retireAfter: cfg.retireAfter,
		topo:        cfg.topo,
		clock:       cfg.clock,
	}
	if cfg.watchdog > 0 {
		s.wdThreshold = cfg.watchdog
		s.wdStop = make(chan struct{})
	}
	s.pools = spdag.NewNodePools(s.topo.Nodes())
	s.slotNodes = make([]int, cfg.max)
	s.inj.init()
	s.nlive.Store(int32(p))
	for i := range s.workers {
		w := &worker{s: s, id: i, node: s.topo.NodeOf(i),
			g: rng.NewXoshiro(cfg.seed + uint64(i)*0x9e37), sema: make(chan struct{}, 1)}
		w.pd.request.Store(noThief)
		push := w.push
		if cfg.policy == PrivateDeques {
			push = w.pushPrivate
		}
		w.ctx = spdag.ExecContext{G: w.g, Push: push, Pool: s.pools, Node: w.node,
			Home: counter.NewHome()}
		if i < p {
			w.state.Store(wsLive)
		}
		s.workers[i] = w
		s.slotNodes[i] = w.node
	}
	// Victim candidate lists for the two-phase steal order. Built once:
	// the slot→node map never changes, and keeping them per worker (not
	// per node) lets the steal loop index them with zero indirection.
	for _, w := range s.workers {
		for _, v := range s.workers {
			if v == w {
				continue
			}
			if v.node == w.node {
				w.localVictims = append(w.localVictims, v)
			} else {
				w.remoteVictims = append(w.remoteVictims, v)
			}
		}
	}
	return s
}

// ShardVertices makes every worker slot count the vertices it creates
// in d on its own stats line, registered with d so that d.VertexCount
// sums them (spdag.Dag.ShardVertices). Dormant slots are bound too, so
// counts stay exact across elastic retire/respawn: a slot's shard, like
// its other stats, outlives any one worker goroutine. Call it before
// Start; a scheduler shards at most one dag.
func (s *Scheduler) ShardVertices(d *spdag.Dag) {
	if s.started.Load() {
		panic("sched: ShardVertices after Start")
	}
	for _, w := range s.workers {
		d.ShardVertices(&w.ctx, &w.stats.vertices)
	}
}

// Policy returns the stealing mechanism in use.
func (s *Scheduler) Policy() Policy { return s.policy }

// Topology returns the locality map the scheduler was built with
// (after auto-detection: never the zero value).
func (s *Scheduler) Topology() topology.Topology { return s.topo }

// NumWorkers returns the number of live workers — the `proc` axis of
// the evaluation. For a fixed pool it is constant; for an elastic pool
// it moves between MinWorkers and MaxWorkers with load, and an idle
// scheduler quiesces to MinWorkers.
func (s *Scheduler) NumWorkers() int { return int(s.nlive.Load()) }

// MinWorkers returns the pool's floor: the worker count New was given.
func (s *Scheduler) MinWorkers() int { return s.min }

// MaxWorkers returns the pool's ceiling (== MinWorkers for a fixed
// pool).
func (s *Scheduler) MaxWorkers() int { return len(s.workers) }

// SpawnedWorkers returns how many workers the elastic pool spawned
// beyond Start's initial minimum (cumulative; 0 for a fixed pool).
func (s *Scheduler) SpawnedWorkers() uint64 { return s.spawned.Load() }

// RetiredWorkers returns how many workers have retired (cumulative; 0
// for a fixed pool).
func (s *Scheduler) RetiredWorkers() uint64 { return s.retired.Load() }

// ParkedWorkers returns the number of workers currently parked. A
// started scheduler with no work quiesces to ParkedWorkers() ==
// NumWorkers(); tests use this to assert an idle Runtime costs no CPU.
func (s *Scheduler) ParkedWorkers() int { return int(s.nparked.Load()) }

// InjectorDepth returns the number of externally submitted vertices
// (computation roots) accepted but not yet picked up by a worker — the
// same backlog count the park protocol and the elastic spawn signal
// consult. A sustained non-zero depth means submissions are arriving
// faster than the pool drains them; an admission layer uses it as its
// backpressure sense.
func (s *Scheduler) InjectorDepth() int { return int(s.inj.size.Load()) }

// PeggedFor returns how long the elastic pool has been pegged: at its
// ceiling, with sustained injector backlog the spawn signal wanted to
// absorb by growing and could not. It returns 0 when the pool is not
// pegged — including the moment a worker parks or the backlog drains —
// and always 0 for a fixed pool, which never runs the spawn machinery.
// A service front-end sheds load when this stays above its admission
// window (see ROADMAP's gateway): the pool has proved it cannot grow
// out of the offered load.
func (s *Scheduler) PeggedFor() time.Duration {
	since := s.peggedSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(s.clock.Now().UnixNano() - since)
}

// Start launches the minimum worker goroutines. It may be called once.
func (s *Scheduler) Start() {
	if s.started.Swap(true) {
		panic("sched: Start called twice")
	}
	for _, w := range s.workers {
		if !w.live() {
			continue
		}
		s.wg.Add(1)
		go w.loop()
	}
	if s.wdStop != nil {
		s.wg.Add(1)
		go s.watchdog()
	}
}

// loop dispatches to the policy's worker loop.
func (w *worker) loop() {
	if w.s.policy == PrivateDeques {
		w.runPrivate()
	} else {
		w.run()
	}
}

// Shutdown stops the workers and waits for them to exit. It is
// idempotent and safe to call from multiple goroutines: every call
// returns only once the workers have exited (immediately, if Start was
// never called). Pending vertices are abandoned; callers are expected
// to have waited for their computations (see Run, or the nested
// frontend's Close, which drains in-flight Runs) first. Start must
// happen before — not concurrently with — the first Shutdown.
func (s *Scheduler) Shutdown() {
	// stop is set under spawnMu so trySpawn can never wg.Add a new
	// worker after the final Wait has begun: a spawner either observes
	// stop and backs out, or completed its Add before we got the lock.
	s.spawnMu.Lock()
	first := !s.stop.Swap(true)
	s.spawnMu.Unlock()
	if first && s.wdStop != nil {
		close(s.wdStop)
	}
	s.wakeAll()
	s.wg.Wait()
}

// Submit injects an external ready vertex (typically a computation
// root). It is the dag-level fallback schedule callback: vertices
// scheduled from inside a running vertex take the worker-local push
// path instead. Submit is safe from any goroutine and lock-free, which
// is what lets many Run/nested.Runtime.Run calls proceed concurrently
// over one scheduler: each computation injects its own root here and
// the workers interleave them; idle workers drain the injector FIFO
// before attempting steals, and each Submit wakes a parked worker — or
// feeds the elastic pool's spawn signal when there is none to wake.
func (s *Scheduler) Submit(v *spdag.Vertex) {
	s.inj.push(v)
	s.signalWork()
}

// signalWork is the producer side of the park/spawn protocol: wake one
// parked worker if there is one; otherwise, on an elastic pool, treat
// the attempt as spawn pressure when the injector backlog is
// non-empty. On the hot path of a busy fixed pool this is a single
// read of nparked.
func (s *Scheduler) signalWork() {
	if s.chaosDropWake() { // fault seam: no-op unless built with -tags chaostest
		return
	}
	if s.wakeOne() {
		if s.elastic {
			if s.pressure.Load() != 0 {
				s.pressure.Store(0)
			}
			s.clearPegged()
		}
		return
	}
	if s.elastic {
		s.maybeSpawn()
	}
}

// clearPegged withdraws the pegged-at-max overload signal. The load
// before the store keeps the common cases (not elastic at ceiling, or
// not pegged) to one read-shared load.
func (s *Scheduler) clearPegged() {
	if s.peggedSince.Load() != 0 {
		s.peggedSince.Store(0)
	}
}

// maybeSpawn is the production driver of the sustained-backlog spawn
// signal: the decision itself is SpawnPressureStep (step.go, shared
// with the simulator); what this driver adds is the concurrency
// discipline — producers race on the shared pressure counter, so each
// step is applied under a CAS (a failed CAS means another producer's
// step landed first; re-read and step again, which preserves the
// every-attempt-counts accounting of the old atomic Add).
//
// maybeSpawn runs on every push that finds no parked worker, so it
// must not write the scheduler-wide pressure word when the write
// changes nothing (DESIGN.md §5: no per-vertex write to a line every
// worker writes). Two steps write nothing: one that leaves the counter
// unchanged (a busy pool's empty injector, no pressure built up), and
// a backlogged one while the pool is pegged — at its ceiling with the
// overload already stamped, where a crossing could neither spawn nor
// stamp.
func (s *Scheduler) maybeSpawn() {
	for {
		old := s.pressure.Load()
		next, signal := SpawnPressureStep(int(s.inj.size.Load()), old)
		if signal != SignalIdle && s.peggedSince.Load() != 0 && int(s.nlive.Load()) >= len(s.workers) {
			return
		}
		if next != old && !s.pressure.CompareAndSwap(old, next) {
			continue
		}
		switch signal {
		case SignalIdle:
			s.clearPegged()
		case SignalSpawn:
			s.trySpawn()
		}
		return
	}
}

// trySpawn launches one dormant slot, if the pool is below max and the
// scheduler is running. The nlive CAS loop reserves the capacity; the
// slot scan then claims a dormant worker — the dormant slot on the
// node with the fewest live workers, so elastic growth spreads across
// nodes instead of piling every spawn onto the first free slot (under
// a flat topology every slot ties on node 0 and the scan reduces to
// the old first-dormant order). The scan can transiently find none (a
// retiring worker gives up its nlive share just before its slot goes
// dormant); the reservation is then returned and the next pressure
// crossing retries.
func (s *Scheduler) trySpawn() {
	if !s.started.Load() || s.stop.Load() {
		return
	}
	for {
		n := s.nlive.Load()
		if int(n) >= len(s.workers) {
			// Sustained backlog with the pool already at its ceiling:
			// the overload condition an admission layer load-sheds on.
			// The load gate keeps the already-pegged steady state — hit
			// every spawnPressure pushes during a saturating storm — to
			// one read-shared load; the CAS (not a store) preserves the
			// start of the current pegged window when crossings race.
			if s.peggedSince.Load() == 0 {
				s.peggedSince.CompareAndSwap(0, s.clock.Now().UnixNano())
			}
			return
		}
		if s.nlive.CompareAndSwap(n, n+1) {
			break
		}
	}
	s.spawnMu.Lock()
	defer s.spawnMu.Unlock()
	if s.stop.Load() {
		s.nlive.Add(-1)
		return
	}
	// Load per node, counting retiring slots too: a retiring worker's
	// storage is still homed on its node, and by the time the spawn
	// lands it is usually dormant — counting it live only makes the
	// scan slightly conservative. The placement decision itself is
	// SpawnPlacement (step.go, shared with the simulator); this driver
	// snapshots the slot states under spawnMu and claims with a CAS.
	load := make([]int, s.topo.Nodes())
	dormant := make([]bool, len(s.workers))
	for i, w := range s.workers {
		if w.state.Load() != wsDormant {
			load[w.node]++
		} else {
			dormant[i] = true
		}
	}
	for {
		i := SpawnPlacement(s.slotNodes, dormant, load)
		if i < 0 {
			break
		}
		if best := s.workers[i]; best.state.CompareAndSwap(wsDormant, wsLive) {
			s.spawned.Add(1)
			s.wg.Add(1)
			go best.loop()
			return
		}
		// Unreachable in practice — dormant→live transitions are
		// serialized under spawnMu, so the claim cannot be contended —
		// but dropping the slot and rescanning keeps the loop correct
		// if that ever changes.
		dormant[i] = false
	}
	s.nlive.Add(-1)
}

// wakeOne claims one parked worker and signals its semaphore,
// reporting whether it claimed one. The claim (the parked CAS) pairs
// with exactly one semaphore token, which the worker consumes either
// in park's sleep or in cancelPark.
func (s *Scheduler) wakeOne() bool {
	if s.nparked.Load() == 0 {
		return false
	}
	for _, w := range s.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			s.nparked.Add(-1)
			w.sema <- struct{}{}
			return true
		}
	}
	return false
}

// wakeAll wakes every parked worker (shutdown).
func (s *Scheduler) wakeAll() {
	for _, w := range s.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			s.nparked.Add(-1)
			w.sema <- struct{}{}
		}
	}
}

// Run executes a complete computation: it builds root/final with the
// dag's Make, installs the provided body on the root, submits it, and
// blocks until the final vertex has executed. The scheduler must be
// started. Multiple Runs may proceed concurrently.
func (s *Scheduler) Run(d *spdag.Dag, body spdag.Body) {
	s.RunStarted()
	defer s.RunFinished()
	root, final := d.Make()
	done := make(chan struct{})
	final.SetBody(func(*spdag.Vertex) { close(done) })
	root.SetBody(body)
	if !root.TrySchedule() {
		panic("sched: fresh root failed to schedule")
	}
	<-done
}

// RunStarted/RunFinished bracket an externally driven computation (a
// frontend's Run): the count of outstanding computations is the
// watchdog's "there should be progress" gate. Frontends that submit
// roots directly (rather than through Run) must call them, or an armed
// watchdog cannot tell a wedged scheduler from an idle one.
func (s *Scheduler) RunStarted()  { s.live.Add(1) }
func (s *Scheduler) RunFinished() { s.live.Add(-1) }

// LiveRuns returns the number of outstanding computations bracketed by
// RunStarted/RunFinished.
func (s *Scheduler) LiveRuns() int { return int(s.live.Load()) }

// Stats is an aggregate of per-worker counters, mirroring the
// artifact's nb_steals-style output. Steals always equals LocalSteals
// + RemoteSteals; on a flat (single-node) topology every steal is
// local.
type Stats struct {
	Steals       uint64 // successful steals (local + remote)
	LocalSteals  uint64 // steals from same-node victims
	RemoteSteals uint64 // steals from remote-node victims
	Executed     uint64 // vertices executed
	Stalls       uint64 // watchdog stall detections (0 with the watchdog off)

	// The batched counter frontend's coalescing ledger, summed over the
	// workers' Homes — the counter analogue of the sink's
	// logical_writes/backend_calls split. Both are zero unless the
	// counter algorithm batches (adaptive:K:batch).
	CounterFlushes   uint64 // shared RMWs issued by the frontend (anchors + flushes)
	CounterLocalIncs uint64 // counter units buffered worker-locally
}

// Stats sums the per-worker counters. It is exact when the scheduler
// is quiescent: retired workers leave their stats block with the slot,
// so totals survive retire/respawn cycles.
func (s *Scheduler) Stats() Stats {
	var st Stats
	for _, w := range s.workers {
		st.LocalSteals += w.stats.localSteals.Load()
		st.RemoteSteals += w.stats.remoteSteals.Load()
		st.Executed += w.stats.executed.Load()
		st.CounterFlushes += w.ctx.Home.Flushes()
		st.CounterLocalIncs += w.ctx.Home.LocalIncs()
	}
	st.Steals = st.LocalSteals + st.RemoteSteals
	st.Stalls = s.wdStalls.Load()
	return st
}

// String describes the scheduler. Multi-node topologies are called
// out; the common flat case keeps the compact pre-topology format.
func (s *Scheduler) String() string {
	nodes := ""
	if s.topo.Nodes() > 1 {
		nodes = fmt.Sprintf(", nodes=%d", s.topo.Nodes())
	}
	if s.elastic {
		return fmt.Sprintf("sched.Scheduler{workers=%d..%d, live=%d, policy=%s%s}",
			s.min, len(s.workers), s.NumWorkers(), s.policy, nodes)
	}
	return fmt.Sprintf("sched.Scheduler{workers=%d, policy=%s%s}", s.min, s.policy, nodes)
}

// push is the worker-local schedule operation for the ChaseLev policy.
// The nparked read inside signalWork is the only cost it pays for the
// parking protocol on a fixed pool: in a busy scheduler the counter is
// zero and read-shared, so the common case adds one uncontended load
// to the push path. An elastic pool additionally reads the injector
// size when nobody is parked, feeding the spawn signal.
func (w *worker) push(v *spdag.Vertex) {
	w.dq.PushBottom(v)
	w.s.signalWork()
}

// flushEvery is the counter-flush staleness cap: a worker flushes its
// pending counter deltas (batched adaptive frontend) at least once per
// this many vertex executions, in addition to every out-of-work
// boundary. Flushing per execution would defeat decrement batching —
// the cap only bounds how long a busy worker can sit on a delta.
const flushEvery = 64

// Worker lifecycle: run ↔ findWork, then spin → yield → park as
// idleness persists, and possibly retire out of a long park (see
// backoff/park for the protocol, doc.go for the diagram, and DESIGN.md
// §7 for the invariant argument).
func (w *worker) run() {
	defer w.s.wg.Done()
	idleRounds := 0
	sinceFlush := 0
	for !w.s.stop.Load() {
		v := w.dq.PopBottom()
		if v == nil {
			v = w.findWork()
		}
		if v == nil {
			// Out of local and stealable work: flush pending counter
			// deltas before backing off. A flush that readies vertices
			// pushed them onto our own deque, so rescan instead of
			// idling — parking on top of a productive flush would
			// strand that work (no thief reaches a parked owner's
			// deque under private deques, and the park heuristics
			// assume empty deques under ChaseLev).
			if w.ctx.FlushCounters() > 0 {
				idleRounds = 0
				sinceFlush = 0
				continue
			}
			idleRounds++
			woken, retired := w.backoff(idleRounds)
			if retired {
				return
			}
			if woken {
				idleRounds = 0 // parked and woken: rescan eagerly
			}
			continue
		}
		idleRounds = 0
		w.chaosExec() // fault seam: no-op unless built with -tags chaostest
		w.markExec()
		v.Execute(&w.ctx)
		w.doneExec()
		w.stats.executed.Add(1)
		// Staleness cap: a worker that never runs dry must still
		// publish its buffered counter deltas eventually, or a hot
		// server-style worker could delay another computation's zero
		// report unboundedly.
		if sinceFlush++; sinceFlush >= flushEvery {
			sinceFlush = 0
			w.ctx.FlushCounters()
		}
	}
}

// findWork polls the external injector, then attempts the two-phase
// steal order: a randomized round over same-node victims first, and
// only when that comes up empty a randomized round over remote-node
// victims. Locality is purely a preference — the remote phase
// guarantees any reachable work is still found, so completion is
// unchanged from the single-phase loop; what changes is that a steal
// crossing the interconnect happens only when the whole local node is
// dry. Dormant victims are harmless under ChaseLev — their deques are
// empty by the retire invariant — so the victim rounds do not filter
// them; they just waste the occasional attempt on an empty slot.
func (w *worker) findWork() *spdag.Vertex {
	if v := w.s.inj.pop(); v != nil {
		return v
	}
	if v := w.stealRound(w.localVictims, &w.stats.localSteals); v != nil {
		return v
	}
	return w.stealRound(w.remoteVictims, &w.stats.remoteSteals)
}

// stealRound makes one round of steal attempts over the given victim
// list in the VictimWalk order (step.go: a full cyclic walk from a
// random starting point, so every victim is tried exactly once per
// round), crediting successes to the given counter.
func (w *worker) stealRound(victims []*worker, stat *atomic.Uint64) *spdag.Vertex {
	n := len(victims)
	if n == 0 {
		return nil
	}
	start := VictimWalk(w.g, n)
	for attempt := 0; attempt < n; attempt++ {
		victim := victims[WalkVictim(start, attempt, n)]
		for {
			v, empty := victim.dq.Steal()
			if v != nil {
				stat.Add(1)
				return v
			}
			if empty {
				break
			}
			// Lost a race; retry the same victim immediately.
		}
	}
	return nil
}

// Backoff thresholds: spin briefly (work usually appears within
// microseconds in a busy computation), then yield the P cooperatively,
// then park. Parking replaces the old 20µs sleep-poll tail, which kept
// every idle worker at ~50k wakeups/s.
const (
	spinRounds  = 16
	yieldRounds = 64
)

// backoff escalates with persistent idleness per IdleStep (step.go);
// it reports whether the worker parked and was woken, and whether it
// retired (in which case the caller must exit its loop — the worker's
// goroutine is done).
func (w *worker) backoff(rounds int) (woken, retired bool) {
	switch IdleStep(rounds) {
	case IdleSpin:
		// spin
	case IdleYield:
		runtime.Gosched()
	default:
		return w.park()
	}
	return false, false
}

// park blocks the worker until new work may exist, or — when the
// worker is above the pool minimum and nothing wakes it for
// retireAfter — retires it. The lost-wake-up race is closed by
// ordering: the worker (1) registers as parked, then (2) rechecks
// every work source it can observe, then (3) sleeps. Producers enqueue
// first and read nparked second. Under sequential consistency, either
// the producer sees the registration (and wakes us) or the recheck
// sees the enqueued work (and cancels the park) — there is no
// interleaving in which work is enqueued, no wake is sent, and the
// recheck sees nothing.
//
// Under PrivateDeques the recheck cannot inspect other workers' queues
// (they are unsynchronized by design); completion is still guaranteed
// because a queue's owner is, by construction, awake and drains it
// itself, waking us on every subsequent push.
func (w *worker) park() (woken, retired bool) {
	s := w.s
	s.nparked.Add(1)
	w.parked.Store(true)
	if s.elastic {
		// A worker going idle is direct evidence the backlog is not
		// saturating the pool: withdraw the pegged-at-max signal.
		s.clearPegged()
	}

	if s.stop.Load() || w.parkRecheck() {
		w.cancelPark()
		return true, false
	}
	// Retirement is possible only on an elastic pool with live workers
	// to spare (RetireEligible, step.go). The eligibility read is racy
	// but sound: if nlive rises after we chose the untimed sleep (a
	// spawn racing our registration), the capacity above the minimum
	// lives in workers that are awake — and any of them that later
	// parks re-evaluates with the higher nlive, takes the timed branch,
	// and retires — so an untimed sleeper never permanently strands the
	// pool above its floor.
	if !s.elastic || !RetireEligible(int(s.nlive.Load()), s.min) {
		<-w.sema
		return true, false
	}
	return w.parkTimed()
}

// parkTimed sleeps like park but with the retirement timer armed; when
// the timer fires first the worker tries to retire.
func (w *worker) parkTimed() (woken, retired bool) {
	s := w.s
	if w.timer == nil {
		w.timer = s.clock.NewTimer(s.retireAfter)
	} else {
		w.timer.Reset(s.retireAfter)
	}
	select {
	case <-w.sema:
		// Go 1.23+ timer semantics (this module's go.mod, mirrored by
		// the Timer seam): Stop discards any already-fired, un-received
		// tick, so no drain — draining here would block forever when
		// the timer fired in the same instant the wake token arrived.
		w.timer.Stop()
		return true, false
	case <-w.timer.C():
	}
	// The timer fired with no wake. First reserve the capacity: retire
	// only while the pool stays at or above its minimum without us.
	for {
		n := s.nlive.Load()
		if !RetireEligible(int(n), s.min) {
			// Eligibility evaporated (others retired first). Fall back
			// to an untimed sleep; see park for why eligibility cannot
			// return while we sleep.
			<-w.sema
			return true, false
		}
		if s.nlive.CompareAndSwap(n, n-1) {
			break
		}
	}
	// Decommission the wake-claim flag with the waker's own CAS: either
	// we claim ourselves (no token is or will be outstanding — a waker
	// only sends after winning this CAS) and may exit, or a waker beat
	// us and its token is imminent — consume it and resume.
	if !w.parked.CompareAndSwap(true, false) {
		s.nlive.Add(1) // return the reservation
		<-w.sema
		return true, false
	}
	s.nparked.Add(-1)
	w.retire()
	return false, true
}

// retire decommissions the worker in two published steps. First the
// slot is marked retiring: from here on thieves treat it like a parked
// victim (they post no new requests and withdraw in-flight ones), and
// any thief caught mid-request is released through the normal
// commit-or-withdraw protocol. Then the storage the worker accumulated
// is handed back — the deque ring (empty by the park invariant,
// asserted) and the vertex freelist (drained into the slot's node
// pool, so the storage stays home for the next worker spawned on that
// node) — and only then does the slot go dormant, making it claimable by
// trySpawn: the dormant store is the release point that makes the
// drain visible to the claiming CAS, so a respawned goroutine can
// never observe the drain half-done. The stats block stays with the
// slot so Stats() remains exact. The caller exits the worker loop
// immediately after.
func (w *worker) retire() {
	// Retire is only reached out of a park, and the idle path flushed
	// the worker's counter deltas before the first backoff — nothing
	// executed since, so the Home must be empty. Flush defensively
	// anyway (mirroring the freelist's DrainFree discipline): a vertex
	// readied here would land in a deque the panics below would catch.
	w.ctx.FlushCounters()
	w.state.Store(wsRetiring)
	if w.s.policy == PrivateDeques {
		// Release a thief that posted before the state store landed; a
		// thief that posts after will observe the state and withdraw,
		// exactly as it does for a parked victim.
		w.respond()
		if len(w.pd.queue) != 0 {
			panic("sched: retiring worker holds queued vertices (park invariant violated)")
		}
		w.pd.queue = nil
	} else {
		if w.dq.Size() != 0 {
			panic("sched: retiring worker holds queued vertices (park invariant violated)")
		}
		w.dq.ReleaseStorage()
	}
	w.ctx.DrainFree()
	w.s.retired.Add(1)
	w.state.Store(wsDormant)
}

// parkRecheck reports whether any observable work source is (or may
// be) non-empty. It must not consume work: the caller re-enters the
// normal find-work path after cancelling the park.
func (w *worker) parkRecheck() bool {
	s := w.s
	if s.inj.size.Load() > 0 {
		return true
	}
	if s.policy == PrivateDeques {
		// The commit/withdraw protocol (private.go) means no answer can
		// be in flight once findWorkPrivate has returned nil, so this
		// check is defensive: it keeps "a vertex is never stranded in a
		// sleeping worker's cell" locally true even if the protocol's
		// invariant is ever weakened.
		return w.pd.transfer.Load() != nil
	}
	for _, victim := range s.workers {
		if victim != w && victim.dq.Size() > 0 {
			return true
		}
	}
	return false
}

// cancelPark undoes a registration: if a waker already claimed us, its
// semaphore token (sent or imminent) is consumed so the next park
// doesn't wake spuriously.
func (w *worker) cancelPark() {
	if w.parked.CompareAndSwap(true, false) {
		w.s.nparked.Add(-1)
		return
	}
	<-w.sema
}
