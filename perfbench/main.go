// Command perfbench is the repository benchmark. One invocation runs one
// workload and prints a report whose last line is a JSON object:
//
//	bash perfbench/run.sh --workload fanin|fib|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced and the JSON carries the
// end-to-end metrics; with --trace 1 the run is split into an untraced
// and a traced half, spans are recorded around every call the benchmark
// makes into a layer, the layer ladder runs, and the JSON carries the
// per-layer metrics. README.md in this directory maps every metric to
// its layer and to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"

	"repro/internal/stats"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string // path to the reproserve binary (serve workload)
	out      string // directory for span files
	smoke    bool   // run at smokeSizes
	index    int    // --instance: this child's position in the run
	size     sizes
}

// sizes are the workload and probe sizes. The benchmark runs at
// fullSizes; --smoke (the smoke test) runs at smokeSizes.
type sizes struct {
	faninLeaves uint64  // leaves of one fanin Run
	fibN        int     // Fibonacci index of one fib Run
	setups      int     // processes hosting the runtime per compute run; setup_s is the median of their quiet set-up times
	rate        float64 // serve open-loop arrival rate, req/s
	ladder      float64 // scale of the layer ladder's iteration counts
}

var (
	fullSizes  = sizes{faninLeaves: 1 << 16, fibN: 24, setups: 20, rate: 400, ladder: 1}
	smokeSizes = sizes{faninLeaves: 1 << 8, fibN: 12, setups: 2, rate: 100, ladder: 0.001}
)

// metric names a measurement of the JSON line.
type metric struct {
	Name string
	Unit string
}

// endToEnd and perLayer name the metrics of the JSON line, with their
// units, in BENCHMARK.json order. Every workload reports every one.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "latency_ms_p50", Unit: "ms"},
	{Name: "latency_ms_tail", Unit: "ms"},
	{Name: "capacity_rps", Unit: "1/s"},
	{Name: "rss_peak_mb", Unit: "MiB"},
}

var perLayer = []metric{
	{Name: "deque.push_pop_ns", Unit: "ns"},
	{Name: "deque.steal_ns", Unit: "ns"},
	{Name: "counter.incdec_contended_ns", Unit: "ns"},
	{Name: "counter.incdec_private_ns", Unit: "ns"},
	{Name: "counter.ops_per_run", Unit: "count"},
	{Name: "counter.promotions_per_run", Unit: "count"},
	{Name: "counter.nodes_final", Unit: "count"},
	{Name: "spdag.vertices_per_run", Unit: "count"},
	{Name: "spdag.spawn_signal_ns", Unit: "ns"},
	{Name: "sched.executed_per_run", Unit: "count"},
	{Name: "sched.steals_per_run", Unit: "count"},
	{Name: "nested.async_ns", Unit: "ns"},
	{Name: "nested.forkjoin_ns", Unit: "ns"},
	{Name: "repro.run_empty_us_p50", Unit: "us"},
	{Name: "repro.run_empty_us_p99", Unit: "us"},
	{Name: "go.alloc_bytes_per_run", Unit: "bytes"},
	{Name: "go.allocs_per_run", Unit: "count"},
	{Name: "go.gc_cycles_per_run", Unit: "count"},
	{Name: "go.gc_pause_ms_per_run", Unit: "ms"},
	{Name: "gateway.queue_ms_p50", Unit: "ms"},
	{Name: "gateway.queue_ms_p99", Unit: "ms"},
	{Name: "gateway.run_ms_p50", Unit: "ms"},
	{Name: "gateway.run_ms_p99", Unit: "ms"},
	{Name: "gateway.http_overhead_ms_p50", Unit: "ms"},
	{Name: "gateway.http_overhead_ms_p99", Unit: "ms"},
	{Name: "gateway.submit_us_p50", Unit: "us"},
	{Name: "gateway.admitted", Unit: "count"},
	{Name: "gateway.shed", Unit: "count"},
	{Name: "sink.publish_ns", Unit: "ns"},
	{Name: "sink.lookup_ns", Unit: "ns"},
	{Name: "sink.coalesce_ratio", Unit: "ratio"},
	{Name: "sink.dropped", Unit: "count"},
	{Name: "client.late_ms_p99", Unit: "ms"},
	{Name: "client.conn_wait_ms_p50", Unit: "ms"},
	{Name: "client.polls_per_async", Unit: "count"},
	{Name: "client.async_ms_p50", Unit: "ms"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "reconcile.residual_pct", Unit: "%"},
}

// report collects one run's measurements and outcome.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	wrong     []string // descriptions of wrong results
	lines     []string // human-readable report lines
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// wrongf records a wrong result; it counts as a failed operation.
func (r *report) wrongf(format string, args ...any) {
	r.failed++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// result is the JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish renders the report: human lines, then the metric table, then
// the JSON line. It returns the JSON line's correctness verdict.
func (r *report) finish(o options, w *os.File) (bool, error) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, s := range r.wrong {
		fmt.Fprintln(w, "WRONG:", s)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "failed_frac", frac, "ratio")
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := result{
		Correct:   len(r.wrong) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(names)),
	}
	for _, m := range names {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return false, fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(b))
	return res.Correct, nil
}

func run(o options) (*report, error) {
	switch o.workload {
	case "fanin", "fib":
		return runCompute(o)
	case "serve":
		return runServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want fanin, fib or serve)", o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fanin, fib or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, spans, layer ladder")
	flag.StringVar(&o.serveBin, "serve-bin", "", "path of the reproserve binary (serve workload)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.BoolVar(&o.smoke, "smoke", false, "run at tiny sizes (smoke test)")
	instance := flag.Bool("instance", false, "internal: be one process hosting a compute workload's Runtime")
	flag.IntVar(&o.index, "index", 0, "internal: the instance's position in the run")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.size = fullSizes
	if o.smoke {
		o.size = smokeSizes
	}
	if *instance {
		if err := runInstance(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench instance:", err)
			os.Exit(1)
		}
		return
	}

	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ok, err := r.finish(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// pct is the p-th percentile (0..100) of xs.
func pct(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return pct(xs, 50) }

// sum is the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMiB is the peak resident set size of an exited child process.
func peakRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return math.NaN()
}

// nproc bounds the load generator's goroutines and connections.
func nproc() int { return runtime.NumCPU() }
