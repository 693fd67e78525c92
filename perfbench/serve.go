package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/gateway"
	"repro/internal/sink"
)

// The serve workload drives cmd/reproserve, started with its default
// flags on loopback, from this process: at most nproc load goroutines,
// each owning one keep-alive connection. An open-loop phase sends a
// seeded Poisson arrival schedule at a fixed rate; a closed-loop phase
// then keeps every connection busy to measure capacity.

// tenants is the number of distinct tenants requests are spread over.
const tenants = 4

// request is one generated request: when it is due (offset from the
// phase start), its template, tenant and mode.
type request struct {
	at     time.Duration
	tpl    string
	tenant int
	async  bool
}

// drawRequest picks a template (60% fib, 30% parfor, 10% sort, each at
// the template's default size), a tenant and a mode (25% async).
func drawRequest(g *rand.Rand) request {
	r := request{tenant: g.IntN(tenants), async: g.Float64() < 0.25}
	switch x := g.Float64(); {
	case x < 0.6:
		r.tpl = "fib"
	case x < 0.9:
		r.tpl = "parfor"
	default:
		r.tpl = "sort"
	}
	return r
}

// schedule is the open-loop arrival schedule: exponential gaps at the
// given rate, for dur.
func schedule(seed uint64, rate float64, dur time.Duration) []request {
	g := rand.New(rand.NewPCG(seed, 0x5e4e))
	var out []request
	at := time.Duration(0)
	for {
		at += time.Duration(g.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		r := drawRequest(g)
		r.at = at
		out = append(out, r)
	}
}

// expected holds the right result of each template at its default
// size, as the decimal text the server's JSON carries.
func expected() map[string]string {
	return map[string]string{
		"fib":    "6765",                        // fib(20)
		"parfor": strconv.Itoa(2 * (1<<16 - 1)), // 2·(n−1), n = 2^16
		"sort":   strconv.FormatUint(sortChecksum(1<<15), 10),
	}
}

// sortChecksum is the sort template's result computed sequentially:
// the same xorshift input, sorted, folded into the same checksum.
func sortChecksum(n int) uint64 {
	xs := make([]int32, n)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range xs {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		xs[i] = int32(seed)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var sum uint64
	for _, x := range xs {
		sum = sum<<1 ^ sum>>63 ^ uint64(uint32(x))
	}
	return sum
}

// client sends requests over at most nproc keep-alive connections.
type client struct {
	base string
	hc   *http.Client
	want map[string]string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, want: expected()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request's result as the client saw it. Times are ms.
type outcome struct {
	async    bool
	err      string // failed: transport error, refusal, error status or wrong result
	wrong    bool   // err is a wrong result
	latency  float64
	connWait float64
	rtt      float64 // sync: POST round trip
	queue    float64 // sync: the server's queue_ms
	run      float64 // sync: the server's run_ms
	polls    int
}

// do sends r, due at due, after waiting wait ms for a connection, and
// records its spans under request id id.
func (c *client) do(r request, due time.Time, wait float64, id int64, tr *tracer) outcome {
	o := outcome{async: r.async, connWait: wait}
	var sent, gotConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	url := fmt.Sprintf("%s/v1/runs/%s?tenant=t%d", c.base, r.tpl, r.tenant)
	if r.async {
		url += "&mode=async"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		o.err = err.Error()
		return o
	}
	sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		o.err = err.Error()
		return o
	}
	if !gotConn.IsZero() {
		o.connWait += float64(gotConn.Sub(sent).Nanoseconds()) / 1e6
	}
	waitSpan := tr.add("client.wait", due, sent, -1, id)
	httpSpan := tr.add("http", sent, done, waitSpan, id)
	o.rtt = float64(done.Sub(sent).Nanoseconds()) / 1e6

	if !r.async {
		if resp.StatusCode != http.StatusOK {
			o.err = fmt.Sprintf("POST %s: status %d: %s", r.tpl, resp.StatusCode, body)
			return o
		}
		var rr gateway.RunResponse
		if err := decode(body, &rr); err != nil {
			o.err = err.Error()
			return o
		}
		o.queue, o.run = rr.QueueMS, rr.RunMS
		o.latency = float64(done.Sub(due).Nanoseconds()) / 1e6
		// The server reports only durations: place its queue and run
		// spans inside the HTTP span, centred on the HTTP overhead.
		qs := sent.Add(time.Duration((o.rtt - o.queue - o.run) / 2 * 1e6))
		qe := qs.Add(time.Duration(o.queue * 1e6))
		tr.add("gateway.queue", qs, qe, httpSpan, id)
		tr.add("gateway.run", qe, qe.Add(time.Duration(o.run*1e6)), httpSpan, id)
		c.check(&o, r.tpl, rr.Result)
		return o
	}

	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Sprintf("POST %s mode=async: status %d: %s", r.tpl, resp.StatusCode, body)
		return o
	}
	var acc gateway.RunStatusResponse
	if err := decode(body, &acc); err != nil || acc.RunID == "" {
		o.err = fmt.Sprintf("POST %s mode=async: bad body %q", r.tpl, body)
		return o
	}
	for {
		if o.polls > 0 {
			time.Sleep(250 * time.Microsecond)
		}
		o.polls++
		p0 := time.Now()
		resp, err := c.hc.Get(c.base + "/v1/runs/" + acc.RunID)
		if err != nil {
			o.err = err.Error()
			return o
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		p1 := time.Now()
		tr.add("async.poll", p0, p1, httpSpan, id)
		if err != nil {
			o.err = err.Error()
			return o
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			if p1.Sub(due) > 30*time.Second {
				o.err = "async run still pending after 30s"
				return o
			}
			continue
		case http.StatusOK:
		default:
			o.err = fmt.Sprintf("GET run %s: status %d: %s", acc.RunID, resp.StatusCode, body)
			return o
		}
		var rec sink.RunRecord
		if err := decode(body, &rec); err != nil {
			o.err = err.Error()
			return o
		}
		o.latency = float64(p1.Sub(due).Nanoseconds()) / 1e6
		if rec.Status != sink.StatusOK {
			o.err = fmt.Sprintf("async run %s: status %s: %s", acc.RunID, rec.Status, rec.Error)
			return o
		}
		c.check(&o, r.tpl, rec.Result)
		return o
	}
}

// check compares a template's result with the reference.
func (c *client) check(o *outcome, tpl string, got any) {
	if s := fmt.Sprint(got); s != c.want[tpl] {
		o.err = fmt.Sprintf("%s returned %s, want %s", tpl, s, c.want[tpl])
		o.wrong = true
	}
}

// decode unmarshals JSON keeping numbers exact (the sort checksum
// exceeds float64 precision).
func decode(body []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(body))
	d.UseNumber()
	return d.Decode(v)
}

// loadStats aggregates outcomes of one load phase.
type loadStats struct {
	mu       sync.Mutex
	sync     []float64 // sync latency from due time, ms
	async    []float64 // async latency from due time to the record, ms
	late     []float64 // generator lateness when a connection was free, ms
	connWait []float64
	wait     []float64 // sync: due time to send (lateness + connection wait)
	queue    []float64
	run      []float64
	overhead []float64 // rtt − queue − run
	polls    int
	ok       int
	elapsed  time.Duration
}

func (s *loadStats) record(o outcome, late float64, lateValid bool, rep *report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.attempted++
	if lateValid {
		s.late = append(s.late, late)
	}
	s.connWait = append(s.connWait, o.connWait)
	if o.err != "" {
		if o.wrong {
			rep.wrongf("%s", o.err)
		} else {
			rep.failed++
			if rep.failed <= 5 {
				rep.linef("request failed: %s", o.err)
			}
		}
		return
	}
	s.ok++
	if o.async {
		s.async = append(s.async, o.latency)
		s.polls += o.polls
		return
	}
	s.sync = append(s.sync, o.latency)
	s.wait = append(s.wait, o.latency-o.rtt)
	s.queue = append(s.queue, o.queue)
	s.run = append(s.run, o.run)
	s.overhead = append(s.overhead, o.rtt-o.queue-o.run)
}

func (s *loadStats) merge(o *loadStats) {
	s.sync = append(s.sync, o.sync...)
	s.async = append(s.async, o.async...)
	s.late = append(s.late, o.late...)
	s.connWait = append(s.connWait, o.connWait...)
	s.wait = append(s.wait, o.wait...)
	s.queue = append(s.queue, o.queue...)
	s.run = append(s.run, o.run...)
	s.overhead = append(s.overhead, o.overhead...)
	s.polls += o.polls
	s.ok += o.ok
	s.elapsed += o.elapsed
}

// openLoop sends sched from nproc goroutines. Each takes the next
// request in order; if its connection frees up before the request is
// due it sleeps until the due time (any oversleep is generator
// lateness), otherwise the request has waited for a connection.
// Latency counts from the due time.
func (c *client) openLoop(sched []request, tr *tracer, rep *report, ids *atomic.Int64) *loadStats {
	s := &loadStats{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				r := sched[i]
				due := start.Add(r.at)
				picked := time.Now()
				var late, wait float64
				free := picked.Before(due)
				if free {
					sleepUntil(due)
					late = float64(time.Since(due).Nanoseconds()) / 1e6
				} else {
					wait = float64(picked.Sub(due).Nanoseconds()) / 1e6
				}
				o := c.do(r, due, wait, ids.Add(1), tr)
				s.record(o, late, free, rep)
			}
		}()
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	return s
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's
// timers wake an idle process through the network poller, whose wait
// has millisecond granularity, which would add up to a millisecond of
// generator lateness to every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closedLoop keeps nproc connections busy with the seeded mix for dur
// and returns what it measured.
func (c *client) closedLoop(seed uint64, dur time.Duration, rep *report, ids *atomic.Int64) *loadStats {
	s := &loadStats{}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := rand.New(rand.NewPCG(seed, uint64(w)+1))
			for time.Since(start) < dur {
				o := c.do(drawRequest(g), time.Now(), 0, ids.Add(1), nil)
				s.record(o, 0, false, rep)
			}
		}(w)
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	return s
}

// stats fetches GET /v1/stats.
func (c *client) stats() (gateway.Snapshot, error) {
	var snap gateway.Snapshot
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// warmUp sends every template sync and async a few times, one at a
// time, checking the results.
func (c *client) warmUp(rep *report, ids *atomic.Int64) {
	var s loadStats
	for i := 0; i < 20; i++ {
		for _, tpl := range []string{"fib", "parfor", "sort"} {
			r := request{tpl: tpl, tenant: i % tenants, async: i%4 == 3}
			s.record(c.do(r, time.Now(), 0, ids.Add(1), nil), 0, false, rep)
		}
	}
}

// server is a running reproserve process.
type server struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed when its stderr reaches EOF
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// startServer launches reproserve with its default flags on a
// loopback port and waits until it listens.
func startServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("the serve workload needs --serve-bin")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting reproserve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.drained:
		_ = cmd.Wait()
		return nil, errors.New("reproserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("reproserve did not listen within 30s")
	}
}

// stop drains the server with SIGTERM (killing it after 20s) and
// returns its peak RSS in MiB.
func (s *server) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.drained:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.drained
	}
	_ = s.cmd.Wait() // the exit status of a drained server carries nothing we use
	return peakRSSMiB(s.cmd.ProcessState)
}

// serverDelta accumulates a server's admission and sink counters over
// the measured phases.
type serverDelta struct {
	admitted, shed, logical, calls, dropped uint64
}

func (d *serverDelta) add(before, after gateway.Snapshot) {
	shed := func(x gateway.Snapshot) uint64 {
		return x.ShedQueueFull + x.ShedOverload + x.ShedThrottled + x.ShedDraining + x.ShedDegraded
	}
	d.admitted += after.Admitted - before.Admitted
	d.shed += shed(after) - shed(before)
	d.logical += after.Sink.LogicalWrites - before.Sink.LogicalWrites
	d.calls += after.Sink.BackendCalls - before.Sink.BackendCalls
	d.dropped += after.Sink.Dropped
}

// serveInstances is the number of reproserve processes one run starts
// in turn; the measurement is spread over all of them so that no one
// process's layout decides the result.
func serveInstances(o options) int { return max(1, o.size.setups/4) }

func runServe(o options) (*report, error) {
	rep := newReport()
	var ids atomic.Int64
	rate := o.size.rate
	dur := time.Duration(o.seconds * float64(time.Second))
	n := serveInstances(o)
	slice := dur / time.Duration(n)
	rep.linef("workload serve: %d reproserve instances in turn (default flags, loopback), open loop %.0f req/s Poisson, %d tenants, mix fib:20 60%% / parfor 30%% / sort 10%%, 25%% async, %d connections, seed %d",
		n, rate, tenants, nproc(), o.seed)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups, rss, p50, p99, capacity []float64
	open, plain, traced := &loadStats{}, &loadStats{}, &loadStats{}
	var delta serverDelta
	for i := 0; i < n; i++ {
		t0 := time.Now()
		srv, err := startServer(o.serveBin)
		if err != nil {
			return nil, err
		}
		c := newClient(srv.url)
		c.warmUp(rep, &ids)
		setups = append(setups, time.Since(t0).Seconds())
		before, err := c.stats()
		if err != nil {
			srv.stop()
			return nil, err
		}
		seed := o.seed + uint64(i)<<32
		if !o.trace {
			s := c.openLoop(schedule(seed, rate, slice*7/10), nil, rep, &ids)
			open.merge(s)
			cl := c.closedLoop(seed, slice*3/10, rep, &ids)
			p50, p99 = append(p50, median(s.sync)), append(p99, pct(s.sync, 99))
			capacity = append(capacity, float64(cl.ok)/cl.elapsed.Seconds())
			rep.linef("instance %d: latency_ms_p50 %.4f, latency_ms_p99 %.4f (%d sync requests), capacity_rps %.1f; closed loop latency_ms_p50 %.4f, p99 %.4f",
				i, p50[i], p99[i], len(s.sync), capacity[i], median(cl.sync), pct(cl.sync, 99))
		} else {
			// Untraced and traced halves, in alternating order.
			for h := 0; h < 2; h++ {
				sched := schedule(seed+uint64(h), rate, slice*2/5)
				if (i+h)%2 == 0 {
					plain.merge(c.openLoop(sched, nil, rep, &ids))
				} else {
					traced.merge(c.openLoop(sched, tr, rep, &ids))
				}
			}
		}
		after, err := c.stats()
		c.close()
		rss = append(rss, srv.stop())
		if err != nil {
			return nil, err
		}
		delta.add(before, after)
	}
	if delta.dropped != 0 {
		rep.wrongf("sink dropped %d records", delta.dropped)
	}
	rep.set("setup_s", median(setups))

	if !o.trace {
		// Each metric is the median over the instances, so one instance
		// upset by its host cannot move it alone.
		reportServe(rep, open)
		rep.set("latency_ms_p50", median(p50))
		rep.set("latency_ms_tail", median(p99))
		rep.set("capacity_rps", median(capacity))
		rep.set("rss_peak_mb", median(rss))
		return rep, nil
	}

	setServeLayers(rep, traced, delta)
	reportServe(rep, traced)
	rep.set("trace.overhead_pct", 100*(median(traced.sync)-median(plain.sync))/median(plain.sync))
	rep.linef("latency_ms_p50 untraced %.4f traced %.4f", median(plain.sync), median(traced.sync))

	runLadder(o.size.ladder, rep)
	// The per-Run rows describe the mix's commonest Run, the fib:20
	// template, on an in-process default Runtime: the server's process
	// is not visible from here.
	rt := repro.NewRuntime()
	setRunCounts(rep, closedLoop(rt, templateKernel(20), dur/10, tr, rep))
	rt.Close()

	// Reconciliation of a sync request: the client's wait from the due
	// time to the send (generator lateness plus connection wait), then
	// the HTTP overhead, the gateway queue and the Run.
	parts := []float64{median(traced.wait), median(traced.overhead), median(traced.queue), median(traced.run)}
	sum := parts[0] + parts[1] + parts[2] + parts[3]
	e2e := median(traced.sync)
	rep.set("reconcile.residual_pct", 100*(e2e-sum)/e2e)
	rep.linef("reconcile serve: latency_ms_p50 %.4f ms; client.wait %.4f + gateway.http_overhead %.4f + gateway.queue %.4f + gateway.run %.4f = %.4f ms; residual %.4f ms (%.1f%%)",
		e2e, parts[0], parts[1], parts[2], parts[3], sum, e2e-sum, 100*(e2e-sum)/e2e)
	return rep, finishTrace(o, tr, rep)
}

// reportServe prints the serve metrics that are not in the JSON line.
func reportServe(rep *report, s *loadStats) {
	rep.linef("requests ok %d (sync %d, async %d) in %.2fs", s.ok, len(s.sync), len(s.async), s.elapsed.Seconds())
	rep.linef("%-32s %14.6g ms", "latency_ms_p90", pct(s.sync, 90))
	rep.linef("%-32s %14.6g ms", "async_ms_p50", median(s.async))
	rep.linef("%-32s %14.6g ms", "async_ms_p99", pct(s.async, 99))
	rep.linef("%-32s %14.6g ms", "server run_ms_p50", median(s.run))
	rep.linef("%-32s %14.6g ms", "client.late_ms_p99", pct(s.late, 99))
}

// setServeLayers sets the gateway, sink and client rows from one load
// phase and the server counters over it.
func setServeLayers(rep *report, s *loadStats, d serverDelta) {
	rep.set("gateway.queue_ms_p50", median(s.queue))
	rep.set("gateway.queue_ms_p99", pct(s.queue, 99))
	rep.set("gateway.run_ms_p50", median(s.run))
	rep.set("gateway.run_ms_p99", pct(s.run, 99))
	rep.set("gateway.http_overhead_ms_p50", median(s.overhead))
	rep.set("gateway.http_overhead_ms_p99", pct(s.overhead, 99))
	rep.set("gateway.admitted", float64(d.admitted))
	rep.set("gateway.shed", float64(d.shed))
	rep.set("sink.coalesce_ratio", float64(d.logical)/float64(max(d.calls, 1)))
	rep.set("sink.dropped", float64(d.dropped))
	rep.set("client.late_ms_p99", pct(s.late, 99))
	rep.set("client.conn_wait_ms_p50", median(s.connWait))
	rep.set("client.polls_per_async", float64(s.polls)/float64(max(len(s.async), 1)))
	rep.set("client.async_ms_p50", median(s.async))
}

// serveProbe measures the gateway, sink and client rows for a workload
// that bypasses them: a short open loop at a quarter of the serve rate
// against an in-process gateway with reproserve's default settings.
func serveProbe(o options, rep *report) error {
	srv := gateway.NewServer("127.0.0.1:0", serverDefaults())
	if err := srv.Listen(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	defer func() {
		cancel()
		<-served
	}()
	var ids atomic.Int64
	c := newClient("http://" + srv.Addr())
	defer c.close()
	before, err := c.stats()
	if err != nil {
		return err
	}
	dur := time.Duration(o.seconds * float64(time.Second) / 10)
	s := c.openLoop(schedule(o.seed, o.size.rate/4, dur), nil, rep, &ids)
	after, err := c.stats()
	if err != nil {
		return err
	}
	var d serverDelta
	d.add(before, after)
	if d.dropped != 0 {
		rep.wrongf("sink dropped %d records", d.dropped)
	}
	setServeLayers(rep, s, d)
	rep.linef("serve probe (in-process gateway): %d requests ok at %.0f req/s", s.ok, o.size.rate/4)
	return nil
}
