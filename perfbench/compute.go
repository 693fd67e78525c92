package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/workload"
)

// kernel is one compute workload: a Run of a workload generator on a
// Runtime, with its output check.
type kernel struct {
	name string
	// run performs one Run; it returns the measurement and a
	// description of a wrong result ("" when the result is right).
	run func(rt *repro.Runtime) (workload.Result, string)
	// tasks is the exact task count of one Run (0: not fixed). Each
	// task is two dag vertices (the root's pair is Make's root and
	// final), and every task plus the final vertex executes.
	tasks int64
}

func faninKernel(leaves uint64) kernel {
	tasks := int64(2*leaves - 1)
	return kernel{
		name:  fmt.Sprintf("fanin(%d)", leaves),
		tasks: tasks,
		run: func(rt *repro.Runtime) (workload.Result, string) {
			res := workload.Fanin(rt.Nested(), leaves)
			if res.Vertices != 2*tasks {
				return res, fmt.Sprintf("fanin(%d) created %d vertices, want %d", leaves, res.Vertices, 2*tasks)
			}
			return res, ""
		},
	}
}

func fibKernel(n int) kernel {
	want := fibClosedForm(n)
	return kernel{
		name: fmt.Sprintf("fib(%d)", n),
		run: func(rt *repro.Runtime) (workload.Result, string) {
			res, v := workload.Fib(rt.Nested(), n)
			if v != want {
				return res, fmt.Sprintf("fib(%d) = %d, want %d", n, v, want)
			}
			return res, ""
		},
	}
}

// templateKernel runs the gateway's fib template in-process, the
// commonest Run of the serve mix. Like workload.Fib, it counts one
// counter operation per vertex.
func templateKernel(n uint64) kernel {
	tpl, _ := gateway.Builtins().Get("fib")
	want := fibClosedForm(int(n))
	return kernel{
		name: fmt.Sprintf("fib:%d", n),
		run: func(rt *repro.Runtime) (workload.Result, string) {
			task, get := tpl.Result(n)
			v0 := rt.Dag().VertexCount()
			final, err := rt.Nested().RunMeasured(task)
			if err != nil {
				panic(fmt.Sprintf("fib:%d run failed: %v", n, err))
			}
			v := rt.Dag().VertexCount() - v0
			res := workload.Result{Vertices: v, CounterOps: uint64(v), FinalNodes: final.NodeCount()}
			if got := get(); got != want {
				return res, fmt.Sprintf("fib:%d = %v, want %d", n, got, want)
			}
			return res, ""
		},
	}
}

// fibClosedForm is Binet's formula, exact in float64 for n ≤ 70.
func fibClosedForm(n int) uint64 {
	phi := (1 + math.Sqrt(5)) / 2
	return uint64(math.Round(math.Pow(phi, float64(n)) / math.Sqrt(5)))
}

// callKernel runs one Run, converting a failed Run (the workload
// generators panic on one) into a failure description.
func callKernel(k kernel, rt *repro.Runtime) (res workload.Result, wrong string, failed string) {
	defer func() {
		if p := recover(); p != nil {
			failed = fmt.Sprint(p)
		}
	}()
	res, wrong = k.run(rt)
	return res, wrong, ""
}

// loopStats aggregates a closed loop of Runs.
type loopStats struct {
	Lat      []float64 // wall time of each Run, ms
	Other    []float64 // CPUs the rest of the machine used during each Run (see otherCPU)
	Elapsed  time.Duration
	Runs     int64
	Vertices int64
	Ops      int64
	Nodes    []float64
	Executed uint64
	Steals   uint64
	Promos   uint64
	// Allocation deltas over the loop (traced loops only).
	Alloc, Mallocs, PauseNs uint64
	NumGC                   uint32
}

func (s *loopStats) merge(o loopStats) {
	s.Lat = append(s.Lat, o.Lat...)
	s.Other = append(s.Other, o.Other...)
	s.Elapsed += o.Elapsed
	s.Runs += o.Runs
	s.Vertices += o.Vertices
	s.Ops += o.Ops
	s.Nodes = append(s.Nodes, o.Nodes...)
	s.Executed += o.Executed
	s.Steals += o.Steals
	s.Promos += o.Promos
	s.Alloc += o.Alloc
	s.Mallocs += o.Mallocs
	s.PauseNs += o.PauseNs
	s.NumGC += o.NumGC
}

func (s loopStats) perRun(x float64) float64 { return x / float64(max(s.Runs, 1)) }

// closedLoop runs back-to-back Runs from this goroutine for dur (at
// least one Run), recording one repro.Run span per Run when traced.
func closedLoop(rt *repro.Runtime, k kernel, dur time.Duration, tr *tracer, rep *report) loopStats {
	var s loopStats
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	waitParked(rt)
	st0 := rt.Stats()
	start := time.Now()
	c0 := readCPU()
	for s.Runs == 0 || time.Since(start) < dur {
		t0 := time.Now()
		res, wrong, failed := callKernel(k, rt)
		t1 := time.Now()
		c1 := readCPU()
		other := otherCPU(c0, c1)
		c0 = c1
		rep.attempted++
		s.Runs++
		tr.add("repro.Run", t0, t1, -1, int64(rep.attempted))
		switch {
		case failed != "":
			rep.failed++
			rep.linef("run failed: %s", failed)
			continue
		case wrong != "":
			rep.wrongf("%s", wrong)
		}
		s.Lat = append(s.Lat, float64(t1.Sub(t0))/1e6)
		s.Other = append(s.Other, other)
		s.Vertices += res.Vertices
		s.Ops += int64(res.CounterOps)
		s.Nodes = append(s.Nodes, float64(res.FinalNodes))
	}
	s.Elapsed = time.Since(start)
	waitParked(rt)
	st1 := rt.Stats()
	s.Executed = st1.Executed - st0.Executed
	s.Steals = st1.Steals - st0.Steals
	s.Promos = st1.Promotions - st0.Promotions
	if want := uint64(s.Runs * (k.tasks + 1)); k.tasks > 0 && s.Executed != want {
		rep.wrongf("%s: %d Runs executed %d vertices, want %d", k.name, s.Runs, s.Executed, want)
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		s.Alloc = m1.TotalAlloc - m0.TotalAlloc
		s.Mallocs = m1.Mallocs - m0.Mallocs
		s.NumGC = m1.NumGC - m0.NumGC
		s.PauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	}
	return s
}

// quietCPU is the load, in CPUs, that the rest of the machine may put
// on it during a measurement for the measurement to count as quiet.
// minQuiet is the fewest Runs, and minQuietSetups the fewest set-ups,
// an end-to-end metric is taken over.
const (
	quietCPU       = 0.15
	minQuiet       = 50
	minQuietSetups = 5
)

// quietest returns the values measured while the rest of the machine
// used less than quietCPU CPUs (other[i] is that load during vals[i])
// or, if there are fewer than least of them, the least values measured
// while it used the least. Other tenants of a shared host only ever slow
// the program down, and the choice depends on their load alone, never on
// the measured values, so a change in the program moves the quiet
// measurements as it moves all of them.
func quietest(vals, other []float64, least int) []float64 {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return other[idx[a]] < other[idx[b]] })
	n := min(len(idx), least)
	for n < len(idx) && other[idx[n]] < quietCPU {
		n++
	}
	out := make([]float64, n)
	for i, j := range idx[:n] {
		out[i] = vals[j]
	}
	return out
}

// quiet returns the wall times of the loop's quiet Runs.
func (s loopStats) quiet() []float64 { return quietest(s.Lat, s.Other, minQuiet) }

// cpuSample is a reading of the machine's and this process's CPU time.
type cpuSample struct {
	at   time.Time
	busy time.Duration // all CPUs' non-idle time, stolen time included (/proc/stat)
	self time.Duration // this process's user and system time
}

// readCPU samples the CPU clocks. Where /proc/stat cannot be read, busy
// stays 0 and every Run counts as quiet.
func readCPU() cpuSample {
	c := cpuSample{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.self = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c
	}
	// user nice system idle iowait irq softirq steal, in 1/100 s
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		t, _ := strconv.ParseUint(f[i], 10, 64)
		c.busy += time.Duration(t) * 10 * time.Millisecond
	}
	return c
}

// otherCPU is the CPU time the rest of the machine used between two
// samples, per second of wall time: the load of other processes and the
// time the host took from this virtual machine.
func otherCPU(a, b cpuSample) float64 {
	wall := b.at.Sub(a.at)
	if b.busy == 0 || wall <= 0 {
		return 0
	}
	return max(0, float64(b.busy-a.busy-(b.self-a.self))/float64(wall))
}

// waitParked waits (up to a second) until every worker has parked, so
// the runtime's counters are final.
func waitParked(rt *repro.Runtime) {
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		st := rt.Stats()
		if st.Parked == st.Workers {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func computeKernel(o options) kernel {
	if o.workload == "fib" {
		return fibKernel(o.size.fibN)
	}
	return faninKernel(o.size.faninLeaves)
}

// instanceResult is what one runtime-hosting process reports.
type instanceResult struct {
	Plain, Traced     loopStats
	Workers           int
	Spans             []span
	SpansT0           int64 // the instance tracer's start, Unix ns
	Attempted, Failed int
	Wrong, Lines      []string
}

// runInstance is the body of a child process (--instance): build a
// default Runtime, warm it with two Runs, print "ready" and the load the
// rest of the machine put on it meanwhile (see otherCPU), run the closed
// loop for o.seconds (untraced and traced halves when tracing, in an
// order set by o.index), and print the instanceResult as JSON.
func runInstance(o options) error {
	c0 := readCPU()
	k := computeKernel(o)
	rep := newReport()
	rt := repro.NewRuntime()
	for j := 0; j < 2; j++ {
		rep.attempted++
		switch _, wrong, failed := callKernel(k, rt); {
		case failed != "":
			rep.failed++
			rep.linef("warm-up run failed: %s", failed)
		case wrong != "":
			rep.wrongf("warm-up: %s", wrong)
		}
	}
	fmt.Println("ready", otherCPU(c0, readCPU()))
	dur := time.Duration(o.seconds * float64(time.Second))
	res := instanceResult{Workers: rt.Workers()}
	if !o.trace {
		res.Plain = closedLoop(rt, k, dur, nil, rep)
	} else {
		tr := newTracer()
		for h := 0; h < 2; h++ {
			if (o.index+h)%2 == 0 {
				res.Plain.merge(closedLoop(rt, k, dur/2, nil, rep))
			} else {
				res.Traced.merge(closedLoop(rt, k, dur/2, tr, rep))
			}
		}
		res.Spans, res.SpansT0 = tr.spans, tr.t0.UnixNano()
	}
	rt.Close()
	res.Attempted, res.Failed, res.Wrong, res.Lines = rep.attempted, rep.failed, rep.wrong, rep.lines
	return json.NewEncoder(os.Stdout).Encode(res)
}

// instanceRun is what the parent measures of one child process.
type instanceRun struct {
	res   instanceResult
	setup float64 // process start to "ready", s
	other float64 // load the rest of the machine put on it during set-up, CPUs
	rss   float64 // peak RSS, MiB
}

// spawnInstance runs one child process hosting a Runtime for slice.
func spawnInstance(o options, index int, slice time.Duration) (instanceRun, error) {
	var run instanceRun
	exe, err := os.Executable()
	if err != nil {
		return run, err
	}
	args := []string{"--instance", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(slice.Seconds(), 'f', -1, 64),
		"--trace", strconv.Itoa(boolInt(o.trace)), "--index", strconv.Itoa(index)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return run, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return run, err
	}
	r := bufio.NewReader(out)
	line, err := r.ReadString('\n')
	run.setup = time.Since(t0).Seconds()
	if err == nil {
		if _, serr := fmt.Sscanf(line, "ready %g\n", &run.other); serr != nil {
			err = fmt.Errorf("instance printed %q before ready", line)
		}
	}
	if err == nil {
		err = json.NewDecoder(r).Decode(&run.res)
	}
	if err != nil {
		_ = cmd.Process.Kill() // it may be blocked writing output nobody reads; Wait reports the rest
	}
	if werr := cmd.Wait(); err == nil && werr != nil {
		err = werr
	}
	if err != nil {
		return run, fmt.Errorf("runtime instance %d: %w", index, err)
	}
	run.rss = peakRSSMiB(cmd.ProcessState)
	return run, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runCompute(o options) (*report, error) {
	k := computeKernel(o)
	rep := newReport()
	// The measured time is spread over o.size.setups processes, each
	// hosting one default Runtime, so that no one process's memory
	// layout decides the result.
	n := o.size.setups
	slice := time.Duration(o.seconds * float64(time.Second) / float64(n))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups, setupOther, rss []float64
	var plain, traced loopStats
	workers := 0
	for i := 0; i < n; i++ {
		run, err := spawnInstance(o, i, slice)
		if err != nil {
			return nil, err
		}
		res := run.res
		setups, setupOther, rss = append(setups, run.setup), append(setupOther, run.other), append(rss, run.rss)
		plain.merge(res.Plain)
		traced.merge(res.Traced)
		tr.adopt(res.Spans, res.SpansT0)
		workers = res.Workers
		rep.attempted += res.Attempted
		rep.failed += res.Failed - len(res.Wrong)
		for _, w := range res.Wrong {
			rep.wrongf("%s", w)
		}
		rep.lines = append(rep.lines, res.Lines...)
	}
	rep.linef("workload %s: %s closed loop, one submitter, %d processes in turn each hosting a default Runtime with %d workers, seed %d (the kernel takes no input)",
		o.workload, k.name, n, workers, o.seed)
	qs := quietest(setups, setupOther, minQuietSetups)
	rep.linef("set-ups %d, %d quiet; median over all %.4f s", len(setups), len(qs), median(setups))
	rep.set("setup_s", median(qs))

	if !o.trace {
		q := plain.quiet()
		rep.linef("runs %d in %.2fs, %d quiet (rest of the machine below %.2f CPUs: median %.3f CPUs over all Runs); over all Runs latency p50 %.4f ms, p90 %.4f ms",
			plain.Runs, plain.Elapsed.Seconds(), len(q), quietCPU, median(plain.Other), median(plain.Lat), pct(plain.Lat, 90))
		rep.set("latency_ms_p50", median(q))
		rep.set("latency_ms_tail", pct(q, 90))
		// One submitter runs back to back: Runs per second of Run time.
		rep.set("capacity_rps", 1e3*float64(len(q))/sum(q))
		// The mean, not the median: on fanin the processes' peaks fall in
		// two modes (they follow the in-counter's growth), and a median
		// near the split flips between them from run to run.
		rep.linef("peak RSS of the %d processes: min %.2f, median %.2f, max %.2f MiB", len(rss), pct(rss, 0), median(rss), pct(rss, 100))
		rep.set("rss_peak_mb", sum(rss)/float64(len(rss)))
		return rep, nil
	}

	setRunCounts(rep, traced)
	plainP50, tracedP50 := median(plain.quiet()), median(traced.quiet())
	rep.set("trace.overhead_pct", 100*(tracedP50-plainP50)/plainP50)
	rep.linef("runs untraced %d, traced %d; latency_ms_p50 (quiet Runs) untraced %.4f traced %.4f",
		plain.Runs, traced.Runs, plainP50, tracedP50)

	lad := runLadder(o.size.ladder, rep)
	// This workload bypasses the gateway, sink and client layers; their
	// rows come from a short in-process serve probe.
	if err := serveProbe(o, rep); err != nil {
		return nil, err
	}

	// Reconciliation: CPU time per vertex (wall time × workers, all
	// workers busy) against the ladder rows one vertex passes through.
	perVertex := tracedP50 * 1e6 * float64(workers) / traced.perRun(float64(traced.Vertices))
	sum := lad.pushPop + lad.spawnSignal/2
	model := "deque.push_pop + spdag.spawn_signal/2"
	if o.workload == "fanin" {
		sum += (lad.contended - lad.private) / 2
		model += " + (counter.incdec_contended - counter.incdec_private)/2"
	}
	rep.set("reconcile.residual_pct", 100*(perVertex-sum)/perVertex)
	rep.linef("reconcile %s: latency_ms_p50/spdag.vertices_per_run x %d workers = %.1f ns/vertex; ladder %s = %.1f ns; residual %.1f ns (%.1f%%)",
		o.workload, workers, perVertex, model, sum, perVertex-sum, 100*(perVertex-sum)/perVertex)
	return rep, finishTrace(o, tr, rep)
}

// setRunCounts sets the per-Run layer counts of a traced closed loop.
func setRunCounts(rep *report, s loopStats) {
	rep.set("counter.ops_per_run", s.perRun(float64(s.Ops)))
	rep.set("counter.promotions_per_run", s.perRun(float64(s.Promos)))
	rep.set("counter.nodes_final", median(s.Nodes))
	rep.set("spdag.vertices_per_run", s.perRun(float64(s.Vertices)))
	rep.set("sched.executed_per_run", s.perRun(float64(s.Executed)))
	rep.set("sched.steals_per_run", s.perRun(float64(s.Steals)))
	rep.set("go.alloc_bytes_per_run", s.perRun(float64(s.Alloc)))
	rep.set("go.allocs_per_run", s.perRun(float64(s.Mallocs)))
	rep.set("go.gc_cycles_per_run", s.perRun(float64(s.NumGC)))
	rep.set("go.gc_pause_ms_per_run", s.perRun(float64(s.PauseNs)/1e6))
}

// finishTrace writes the spans and adds their summary to the report.
func finishTrace(o options, tr *tracer, rep *report) error {
	rep.lines = append(rep.lines, tr.summary()...)
	path, err := tr.write(o.out+"/spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.linef("spans written to %s", path)
	return nil
}
