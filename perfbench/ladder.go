package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/counter"
	"repro/internal/deque"
	"repro/internal/gateway"
	"repro/internal/nested"
	"repro/internal/rng"
	"repro/internal/sink"
	"repro/internal/spdag"
)

// The layer ladder times each layer's public entry points in
// isolation, from the bottom of the stack up. Every probe checks what
// it can of its own result and reports a wrong one.

// ladder holds the rows the reconciliation sums, in ns per operation.
type ladder struct {
	pushPop, steal     float64
	contended, private float64
	spawnSignal        float64
	async, forkJoin    float64
}

// runLadder runs every probe; scale multiplies the iteration counts.
func runLadder(scale float64, rep *report) ladder {
	n := func(full int) int { return max(1, int(float64(full)*scale)) }
	var l ladder
	l.pushPop = probeDequePushPop(n(2_000_000))
	l.steal = probeDequeSteal(n(500_000))
	alg := defaultAlgorithm()
	var ok bool
	l.contended, ok = probeCounter(alg, n(500_000), true)
	if !ok {
		rep.wrongf("counter probe (contended): the counter did not reach zero exactly once")
	}
	l.private, ok = probeCounter(alg, n(500_000), false)
	if !ok {
		rep.wrongf("counter probe (private): a counter did not reach zero exactly once")
	}
	l.spawnSignal, ok = probeSpawnSignal(alg, n(500_000))
	if !ok {
		rep.wrongf("spdag probe: the final vertex was not scheduled exactly once")
	}
	rt := repro.NewRuntime()
	l.async = probeAsync(rt.Nested(), n(500_000))
	l.forkJoin = probeForkJoin(rt.Nested(), n(200_000))
	empty := probeEmptyRun(rt, n(400))
	rt.Close()
	publish, lookup, found := probeSink(n(400_000))
	if !found {
		rep.wrongf("sink probe: a published record was not found")
	}
	submit, err := probeSubmit(n(400))
	if err != nil {
		rep.wrongf("gateway submit probe: %v", err)
	}

	rep.set("deque.push_pop_ns", l.pushPop)
	rep.set("deque.steal_ns", l.steal)
	rep.set("counter.incdec_contended_ns", l.contended)
	rep.set("counter.incdec_private_ns", l.private)
	rep.set("spdag.spawn_signal_ns", l.spawnSignal)
	rep.set("nested.async_ns", l.async)
	rep.set("nested.forkjoin_ns", l.forkJoin)
	rep.set("repro.run_empty_us_p50", median(empty))
	rep.set("repro.run_empty_us_p99", pct(empty, 99))
	rep.set("sink.publish_ns", publish)
	rep.set("sink.lookup_ns", lookup)
	rep.set("gateway.submit_us_p50", median(submit))
	rep.linef("ladder (ns/op): deque push+pop %.1f, steal %.1f | counter inc+dec contended %.1f, private %.1f | spdag spawn+signal %.1f | nested async %.1f, forkjoin %.1f | sink publish %.1f, lookup %.1f",
		l.pushPop, l.steal, l.contended, l.private, l.spawnSignal, l.async, l.forkJoin, publish, lookup)
	rep.linef("ladder (us): repro empty Run p50 %.2f p99 %.2f (n=%d) | gateway submit overhead p50 %.2f (n=%d)",
		median(empty), pct(empty, 99), len(empty), median(submit), len(submit))
	return l
}

// defaultAlgorithm is the Runtime's default counter: adaptive, with the
// in-counter grow threshold for GOMAXPROCS workers.
func defaultAlgorithm() counter.Algorithm {
	alg, err := counter.Parse("adaptive", nested.DefaultThreshold(runtime.GOMAXPROCS(0)))
	if err != nil {
		panic(err) // unreachable: the spec is a literal
	}
	return alg
}

// probeDequePushPop is ns per PushBottom+PopBottom pair on an owned
// deque with no thieves.
func probeDequePushPop(iters int) float64 {
	var d deque.Deque[int]
	x := 1
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		d.PushBottom(&x)
		if d.PopBottom() == nil {
			panic("deque: pop after push returned nothing")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// probeDequeSteal is ns per successful Steal while the owner keeps
// pushing (and popping back to a bounded size).
func probeDequeSteal(steals int) float64 {
	var d deque.Deque[int]
	x := 1
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.PushBottom(&x)
			if d.Size() > 256 {
				d.PopBottom()
			}
		}
	}()
	got := 0
	t0 := time.Now()
	for got < steals {
		if v, _ := d.Steal(); v != nil {
			got++
		}
	}
	el := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	return float64(el.Nanoseconds()) / float64(steals)
}

// release hands a consumed counter State back to its pool, as the
// sp-dag runtime does after a State's terminal operation.
func release(s counter.State) {
	if r, ok := s.(counter.Releaser); ok {
		r.Release()
	}
}

// probeCounter is ns per Increment+Decrement pair with one goroutine
// per CPU. shared: all goroutines work one counter (split from its
// root state like a fan-in's spawns); otherwise each has its own. Each
// goroutine keeps one state alive and, per iteration, increments it
// (a spawn) and decrements one child (a signal). ok reports that every
// counter reached zero exactly once, at its last decrement.
func probeCounter(alg counter.Algorithm, iters int, shared bool) (nsPerPair float64, ok bool) {
	p := nproc()
	g := rng.NewXoshiro(1)
	starts := make([]counter.State, p)
	ctrs := make([]counter.Counter, p)
	if shared {
		c := alg.New(1)
		st := c.RootState()
		for i := 0; i < p-1; i++ {
			l, r := st.Increment(g)
			release(st)
			starts[i], st = r, l
		}
		starts[p-1] = st
		for i := range ctrs {
			ctrs[i] = c
		}
	} else {
		for i := range starts {
			ctrs[i] = alg.New(1)
			starts[i] = ctrs[i].RootState()
		}
	}
	var zeros atomic.Int64
	var early atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rng.NewXoshiro(uint64(w) + 2)
			s := starts[w]
			for i := 0; i < iters; i++ {
				l, r := s.Increment(g)
				release(s)
				if r.Decrement() {
					early.Store(true)
				}
				release(r)
				s = l
			}
			if s.Decrement() {
				zeros.Add(1)
			}
			release(s)
		}(w)
	}
	wg.Wait()
	el := time.Since(t0)
	want := int64(p)
	if shared {
		want = 1
	}
	ok = !early.Load() && zeros.Load() == want && ctrs[0].IsZero()
	// Each goroutine ran iters pairs concurrently: wall time per pair is
	// what one goroutine sees.
	return float64(el.Nanoseconds()) / float64(iters), ok
}

// probeSpawnSignal is ns per Spawn + Signal + Recycle step on a bare
// dag (no scheduler): the running vertex spawns, one child signals at
// once and the other continues.
func probeSpawnSignal(alg counter.Algorithm, iters int) (float64, bool) {
	var scheduled atomic.Int64
	d := spdag.New(alg, spdag.WithScheduler(func(*spdag.Vertex) { scheduled.Add(1) }))
	root, _ := d.Make()
	u := root
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		v, w := u.Spawn()
		w.Signal()
		w.Recycle()
		u.Recycle()
		u = v
	}
	u.Signal()
	el := time.Since(t0)
	return float64(el.Nanoseconds()) / float64(iters), scheduled.Load() == 1
}

func emptyTask(*nested.Ctx) {}

// probeAsync is ns per empty Async inside one Run, join included.
func probeAsync(rt *nested.Runtime, iters int) float64 {
	t0 := time.Now()
	err := rt.Run(func(c *nested.Ctx) {
		for i := 0; i < iters; i++ {
			c.Async(emptyTask)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("async probe: %v", err))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// probeForkJoin is ns per empty ForkJoin, issued one after another
// inside one Run.
func probeForkJoin(rt *nested.Runtime, iters int) float64 {
	left := iters
	var next nested.Task
	next = func(c *nested.Ctx) {
		if left == 0 {
			return
		}
		left--
		c.ForkJoinThen(emptyTask, emptyTask, next)
	}
	t0 := time.Now()
	if err := rt.Run(next); err != nil {
		panic(fmt.Sprintf("forkjoin probe: %v", err))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// probeEmptyRun is the latency, in µs, of Runs of an empty task, each
// submitted to an idle pool whose workers have all parked.
func probeEmptyRun(rt *repro.Runtime, runs int) []float64 {
	lat := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		waitParked(rt)
		t0 := time.Now()
		if err := rt.Run(func(*repro.Ctx) {}); err != nil {
			panic(fmt.Sprintf("empty Run probe: %v", err))
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return lat
}

// probeSink is ns per Publish and per Lookup on a ring-backed sink; the
// lookups ask for records still held by the ring.
func probeSink(n int) (publish, lookup float64, found bool) {
	s := sink.New(sink.NewRing(0))
	recs := make([]*sink.RunRecord, n)
	for i := range recs {
		recs[i] = &sink.RunRecord{ID: "r" + strconv.Itoa(i), Tenant: "t0", Template: "fib", Status: sink.StatusOK}
	}
	t0 := time.Now()
	for _, r := range recs {
		s.Publish(r)
	}
	publish = float64(time.Since(t0).Nanoseconds()) / float64(n)
	if err := s.Flush(context.Background()); err != nil {
		panic(fmt.Sprintf("sink probe: %v", err))
	}
	// The ring keeps the last 4096 records written; the final Flush may
	// write up to 8 shards × 32 older records after newer ones.
	held := min(n, 4096-8*32)
	found = true
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, ok := s.Lookup(recs[n-1-i%held].ID); !ok {
			found = false
		}
	}
	lookup = float64(time.Since(t0).Nanoseconds()) / float64(n)
	_ = s.Close() // a ring backend's Close cannot fail
	return publish, lookup, found
}

// probeSubmit is the in-process cost of Gateway.Submit beyond the
// request's own queueing and Run (admission and dispatch handoff), in
// µs per fib:20 request, one request at a time.
func probeSubmit(n int) ([]float64, error) {
	g := gateway.New(serverDefaults())
	defer g.Close()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := g.Submit(context.Background(), "t0", "fib", 20)
		total := time.Since(t0)
		if err != nil {
			return out, err
		}
		if v, ok := res.Value.(uint64); !ok || v != 6765 {
			return out, fmt.Errorf("fib:20 returned %v, want 6765", res.Value)
		}
		out = append(out, float64(total-res.Queue-res.Run)/1e3)
	}
	return out, nil
}

// serverDefaults is the gateway configuration cmd/reproserve builds
// from its default flags.
func serverDefaults() gateway.Config {
	return gateway.Config{
		RuntimeOptions:   []repro.Option{repro.WithCounter("adaptive")},
		Sink:             sink.New(sink.NewRing(0)),
		QueueDepth:       128,
		PeggedWindow:     50 * time.Millisecond,
		DefaultTimeout:   10 * time.Second,
		MaxTimeout:       60 * time.Second,
		ReapGrace:        time.Second,
		DegradedHoldDown: 2 * time.Second,
	}
}
