package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/analytic"
	"fbdsim/internal/config"
	"fbdsim/internal/simserver"
	"fbdsim/internal/stats"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/pkg/fbdclient"
)

// serveWorkers is fbdserve's general worker-pool size for serve-mixed, one
// per CPU of the two-CPU machine the bounds were sized on.
const serveWorkers = 2

// serveSegment is how long one fbdserve instance serves before the window
// moves on to a fresh one. fbdserve keeps every job, with a telemetry
// stream of about 15 KB, for its whole life: at the interactive client's
// rate a single instance would hold gigabytes by the end of a 55 s window
// on a machine whose memory is shared. Calibrations are memoized
// process-wide, so a fresh instance answers at once.
const serveSegment = 5 * time.Second

// serveEnv is an in-process fbdserve behind an httptest listener, the
// typed client the two closed-loop clients share, and the request stream.
type serveEnv struct {
	srv   *simserver.Server
	ts    *httptest.Server
	c     *fbdclient.Client
	gen   *serveGen
	probe *runProbe // traced runs only
	used  bool      // the server has served a segment
}

// serveSetup starts the server and calibrates the analytic model for every
// (preset, mix) pair the interactive client queries. Calibrations are
// memoized process-wide, so the memo is cleared first: every set-up
// repetition does the same work.
func serveSetup(ctx context.Context, seed int64, traced bool) (*serveEnv, error) {
	analytic.ResetCache()
	env := &serveEnv{gen: newServeGen(seed)}
	if traced {
		env.probe = &runProbe{}
	}
	env.start()

	cal := env.gen.calibration()
	jobs := make([]*fbdclient.Job, len(cal))
	for i, req := range cal {
		j, err := env.c.SubmitJob(ctx, req)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("calibration submit: %w", err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		j, err := env.await(ctx, j)
		if err == nil {
			err = checkJob(classAnalytic, cal[i], j)
		}
		if err != nil {
			env.close()
			return nil, fmt.Errorf("calibration of %s %v: %w", cal[i].Preset, cal[i].Benchmarks, err)
		}
	}
	return env, nil
}

// start brings up a fresh server and listener.
func (e *serveEnv) start() {
	opts := simserver.Options{Workers: serveWorkers}
	if e.probe != nil {
		opts.Run = e.probe.run
	}
	e.srv = simserver.New(opts)
	e.ts = httptest.NewServer(e.srv.Handler())
	// One attempt per request: a 429 or an error is a failure to count,
	// not something to retry away.
	e.c = &fbdclient.Client{BaseURL: e.ts.URL, HTTPClient: e.ts.Client(), MaxAttempts: 1}
}

// restart replaces the server with a fresh one and collects the old one's
// jobs, so the next segment starts from the same heap.
func (e *serveEnv) restart() {
	e.close()
	runtime.GC()
	e.start()
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // bounded by ctx; jobs still running are cancelled
	e.ts.Close()
}

// await waits for a submitted job's SSE end event, then fetches its final
// view. A job answered from the result cache is born terminal, with its
// results.
func (e *serveEnv) await(ctx context.Context, j *fbdclient.Job) (*fbdclient.Job, error) {
	if !j.Terminal() {
		if err := e.c.JobEvents(ctx, j.ID, 0, func(fbdclient.Event) error { return nil }); err != nil {
			return nil, fmt.Errorf("events of %s: %w", j.ID, err)
		}
	}
	if j.Results != nil {
		return j, nil
	}
	return e.c.Job(ctx, j.ID)
}

// checkJob validates a finished job against its request and class.
func checkJob(class string, req fbdclient.SubmitJobRequest, j *fbdclient.Job) error {
	if j.State != "done" || j.Results == nil {
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	r := j.Results
	if class == classCycle {
		return checkSim(simRequest{Preset: req.Preset, Benchmarks: req.Benchmarks, MaxInsts: req.MaxInsts}, *r)
	}
	ipc := r.TotalIPC()
	switch {
	case r.Estimate == nil || r.Estimate.Tier != class:
		return fmt.Errorf("job %s: not a %s estimate", j.ID, class)
	case len(r.IPC) != len(req.Benchmarks):
		return fmt.Errorf("job %s: estimate covers %d cores, want %d", j.ID, len(r.IPC), len(req.Benchmarks))
	case ipc <= 0 || math.IsNaN(ipc) || math.IsInf(ipc, 0):
		return fmt.Errorf("job %s: total IPC %v", j.ID, ipc)
	}
	return nil
}

// runProbe is the traced run's simulation function for the server: it
// runs each cycle-accurate job and sweep point through timedRun, so the
// construction, warm-up and measurement spans and the simulated counts
// come from the same place as on the simulation workloads.
type runProbe struct {
	tr      atomic.Pointer[tracer] // nil while not tracing
	ops     atomic.Int64
	mu      sync.Mutex
	results []system.Results
}

// probeOpBase separates the server-side run ids from client op ids.
const probeOpBase = 1 << 40

func (p *runProbe) run(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
	tr := p.tr.Load()
	res, _, err := timedRun(ctx, cfg, benchmarks, tr, probeOpBase+p.ops.Add(1))
	if err == nil && tr != nil {
		p.mu.Lock()
		p.results = append(p.results, withoutEvents(res))
		p.mu.Unlock()
	}
	return res, err
}

// serveWindow is what one measured window of serve-mixed saw.
type serveWindow struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	ops       int
	analytic  []float64 // client latency of analytic queries, ms
	jobs      []float64 // client latency of cycle-accurate and sampled jobs, ms
	cycleRun  []float64 // server run time of cycle-accurate jobs, ms
	minsts    []float64 // cycle-accurate jobs' Minst per server-run second
	sweepMS   float64   // summed client latency of sweeps
	points    int
	serverRun map[string][]float64 // server run time (wall_ms) per class
	queueEmit map[string][]float64 // client wait minus server run time per class
	wall      time.Duration
	mallocs   uint64 // allocation probe only
	bytes     uint64 // allocation probe only

	// Server counters over the window, from GET /metrics (traced runs).
	cacheHits, cacheMisses float64
	queueWait              *stats.Histogram
}

func newServeWindow() *serveWindow {
	return &serveWindow{
		serverRun: make(map[string][]float64),
		queueEmit: make(map[string][]float64),
		queueWait: &stats.Histogram{},
	}
}

func (w *serveWindow) fail(class string, err error) {
	w.mu.Lock()
	w.attempted++
	w.failed++
	w.errs = append(w.errs, class+": "+err.Error())
	w.mu.Unlock()
}

// runServeWindow runs the interactive and the batch client, closed loop,
// for d, on a fresh server every serveSegment. With a tracer it also
// collects the server's cache and queue counters of each segment.
func (e *serveEnv) runServeWindow(ctx context.Context, d time.Duration, tr *tracer) (*serveWindow, error) {
	w := newServeWindow()
	segments := max(1, int(d/serveSegment))
	var ops atomic.Int64
	for i := 0; i < segments; i++ {
		if e.used {
			e.restart()
		}
		e.used = true
		var before serverMetrics
		if tr != nil {
			var err error
			if before, err = e.metricsSnapshot(ctx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		e.runSegment(ctx, w, start.Add(d/time.Duration(segments)), tr, &ops)
		w.wall += time.Since(start)
		if tr != nil {
			after, err := e.metricsSnapshot(ctx)
			if err != nil {
				return nil, err
			}
			w.cacheHits += after.hits - before.hits
			w.cacheMisses += after.misses - before.misses
			w.queueWait.Merge(after.queueWait.Sub(before.queueWait))
		}
	}
	return w, nil
}

// runSegment runs both clients until deadline, then waits for the
// requests in flight.
func (e *serveEnv) runSegment(ctx context.Context, w *serveWindow, deadline time.Time, tr *tracer, ops *atomic.Int64) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			e.do(ctx, w, e.gen.interactive.next(), tr, ops.Add(1))
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			e.do(ctx, w, e.gen.batch.next(), tr, ops.Add(1))
		}
	}()
	wg.Wait()
}

// allocProbeQueries is the number of analytic queries in the allocation
// probe's fixed mix.
const allocProbeQueries = 200

// allocProbe runs a fixed mix on one client, one request at a time:
// allocProbeQueries analytic queries, then one request of each batch kind.
// serve-mixed's allocations per op come from here rather than from the
// timed window, where they would follow the mix of queries and jobs the
// two clients happen to complete: a faster simulator would complete more
// jobs there and look like an allocation regression.
func (e *serveEnv) allocProbe(ctx context.Context) *serveWindow {
	w := newServeWindow()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocProbeQueries; i++ {
		e.do(ctx, w, e.gen.interactive.next(), nil, 0)
	}
	for i := 0; i < batchKinds; i++ {
		e.do(ctx, w, e.gen.batch.next(), nil, 0)
	}
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// do sends one request and records its outcome in w.
func (e *serveEnv) do(ctx context.Context, w *serveWindow, req serveRequest, tr *tracer, op int64) {
	if req.Class == classSweep {
		e.doSweep(ctx, w, req, tr, op)
	} else {
		e.doJob(ctx, w, req, tr, op)
	}
}

// doJob submits one job, waits for its end event and checks its result.
func (e *serveEnv) doJob(ctx context.Context, w *serveWindow, req serveRequest, tr *tracer, op int64) {
	jr := *req.Job
	if tr != nil && req.Class == classCycle {
		jr.Trace = true // memtrace on, as the simulation workloads' traced run has it
	}
	t0 := time.Now()
	j, err := e.c.SubmitJob(ctx, jr)
	t1 := time.Now()
	if err == nil {
		j, err = e.await(ctx, j)
	}
	t2 := time.Now()
	if err == nil {
		err = checkJob(req.Class, jr, j)
	}
	if err != nil {
		w.fail(req.Class, err)
		return
	}
	tr.record(op, "op."+req.Class, "", t0, t2)
	tr.record(op, "submit."+req.Class, "op."+req.Class, t0, t1)
	tr.record(op, "wait."+req.Class, "op."+req.Class, t1, t2)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.ops++
	lat := ms(t2.Sub(t0))
	switch req.Class {
	case classAnalytic:
		w.analytic = append(w.analytic, lat)
	case classCycle:
		w.jobs = append(w.jobs, lat)
		w.cycleRun = append(w.cycleRun, j.WallMS)
		w.minsts = append(w.minsts, minstsPerSec(*j.Results, time.Duration(j.WallMS*float64(time.Millisecond))))
	default:
		w.jobs = append(w.jobs, lat)
	}
	if !j.Cached {
		w.serverRun[req.Class] = append(w.serverRun[req.Class], j.WallMS)
		w.queueEmit[req.Class] = append(w.queueEmit[req.Class], ms(t2.Sub(t1))-j.WallMS)
	}
}

// doSweep submits one sweep and follows its result stream to the end,
// checking every point.
func (e *serveEnv) doSweep(ctx context.Context, w *serveWindow, req serveRequest, tr *tracer, op int64) {
	t0 := time.Now()
	sw, err := e.c.SubmitSweep(ctx, *req.Sweep)
	if err != nil {
		w.fail(req.Class, err)
		return
	}
	t1 := time.Now()
	points := 0
	err = e.c.SweepResults(ctx, sw.ID, true, func(p sweep.Point) error {
		points++
		if p.Err != "" {
			return errors.New("point " + p.Config + ": " + p.Err)
		}
		return checkSim(simRequest{Benchmarks: req.Sweep.Workloads[0].Benchmarks, MaxInsts: req.Sweep.MaxInsts}, p.Results)
	})
	t2 := time.Now()
	if err == nil && points != sweepPoints {
		err = fmt.Errorf("sweep %s streamed %d points, want %d", sw.ID, points, sweepPoints)
	}
	if err != nil {
		w.fail(req.Class, err)
		return
	}
	tr.record(op, "op.sweep", "", t0, t2)
	tr.record(op, "submit.sweep", "op.sweep", t0, t1)
	tr.record(op, "wait.sweep", "op.sweep", t1, t2)
	final, ferr := e.c.Sweep(ctx, sw.ID)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.ops++
	w.sweepMS += ms(t2.Sub(t0))
	w.points += points
	if ferr == nil {
		w.serverRun[classSweep] = append(w.serverRun[classSweep], final.WallMS)
		w.queueEmit[classSweep] = append(w.queueEmit[classSweep], ms(t2.Sub(t1))-final.WallMS)
	}
}

// endToEnd fills the end-to-end metrics: on serve-mixed the op is an
// analytic query, and the simulation rate is that of cycle-accurate jobs
// over their time on the server. Allocations come from the allocation
// probe. The medians and throughput the table shows go beside them.
func (w *serveWindow) endToEnd(m metricSet, probe *serveWindow) {
	n := float64(max(probe.ops, 1))
	m.set("sim_minsts_per_s_p10", percentile(w.minsts, 10), len(w.minsts))
	m.set("op_ms_p90", percentile(w.analytic, 90), len(w.analytic))
	m.set("allocs_per_op", float64(probe.mallocs)/n, probe.ops)
	m.set("alloc_kb_per_op", float64(probe.bytes)/n/1024, probe.ops)

	m.set("sim_minsts_per_s_p50", median(w.minsts), len(w.minsts))
	m.set("op_ms_p50", median(w.analytic), len(w.analytic))
	m.set("op_ms_p95", percentile(w.analytic, 95), len(w.analytic))
	m.set("run_ms_p90", percentile(w.cycleRun, 90), len(w.cycleRun))
	m.set("ops_per_s", float64(len(w.analytic))/w.wall.Seconds(), len(w.analytic))
}

// extras prints the serve-only figures that have no counterpart on the
// simulation workloads: batch-job latency and sweep throughput.
func (w *serveWindow) extras(m metricSet) {
	m.set("serve.job_ms_p50", median(w.jobs), len(w.jobs))
	m.set("serve.job_ms_p90", percentile(w.jobs, 90), len(w.jobs))
	m.set("serve.analytic_ms_p99", percentile(w.analytic, 99), len(w.analytic))
	if w.sweepMS > 0 {
		m.set("serve.sweep_points_per_s", float64(w.points)/(w.sweepMS/1e3), w.points/sweepPoints)
	}
}

// serverMetrics reads fbdserve's own counters from GET /metrics.
type serverMetrics struct {
	hits, misses float64
	queueWait    *stats.Histogram
}

func (e *serveEnv) metricsSnapshot(ctx context.Context) (serverMetrics, error) {
	var sm serverMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+"/metrics", nil)
	if err != nil {
		return sm, err
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		return sm, err
	}
	defer resp.Body.Close()
	var body struct {
		Hits      float64          `json:"cache_hits"`
		Misses    float64          `json:"cache_misses"`
		QueueWait *stats.Histogram `json:"job_queue_wait_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return sm, fmt.Errorf("decode /metrics: %w", err)
	}
	if body.QueueWait == nil {
		return sm, errors.New("/metrics has no job_queue_wait_seconds")
	}
	return serverMetrics{body.Hits, body.Misses, body.QueueWait}, nil
}

// runServeWorkload measures serve-mixed; the traced run mirrors
// runSimWorkload, with the client spans, the server-side run spans and
// GET /metrics as its layers.
func runServeWorkload(ctx context.Context, o options, env *serveEnv, rep *report) error {
	if !o.trace {
		w, err := env.runServeWindow(ctx, o.seconds, nil)
		if err != nil {
			return err
		}
		probe := env.allocProbe(ctx)
		for _, x := range []*serveWindow{w, probe} {
			rep.add(x.attempted, x.failed, x.errs)
		}
		w.endToEnd(rep.metrics, probe)
		w.extras(rep.metrics)
		rep.summary = append(rep.summary, fmt.Sprintf("%d analytic queries, %d batch jobs, %d sweep points in %.1f s on 2 clients",
			len(w.analytic), len(w.jobs), w.points, w.wall.Seconds()))
	} else {
		ref, err := env.runServeWindow(ctx, o.seconds/2, nil)
		if err != nil {
			return err
		}
		rep.add(ref.attempted, ref.failed, ref.errs)
		tr := newTracer()
		env.probe.tr.Store(tr)
		var w *serveWindow
		prof, perr := profiled(func() { w, err = env.runServeWindow(ctx, o.seconds-o.seconds/2, tr) })
		env.probe.tr.Store(nil)
		if err = errors.Join(err, perr); err != nil {
			return err
		}
		rep.add(w.attempted, w.failed, w.errs)
		rep.tracer = tr
		if err := hostShares(rep.metrics, prof, w.ops); err != nil {
			return err
		}
		spanMetrics(rep.metrics, tr)
		env.probe.mu.Lock()
		results := env.probe.results
		env.probe.mu.Unlock()
		workRatios(rep.metrics, results, tr.durations("measure"))
		modelMetrics(rep.metrics, results)
		rep.metrics.set("trace_overhead_pct", 100*(median(w.analytic)/median(ref.analytic)-1), len(w.analytic))
		w.layerMetrics(rep.metrics, tr)
		w.extras(rep.metrics)
	}
	f, msgs := replayCheckset(ctx, env.runCheck)
	rep.add(len(checkRequests()), f, msgs)
	return nil
}

// layerMetrics sets the per-class client spans, the server's run time
// per class and its share of the wait, and the server's cache and queue
// counters over the traced window. They exist on serve-mixed only, so
// they are printed with the run but are not part of the per-layer set
// every workload reports.
func (w *serveWindow) layerMetrics(m metricSet, tr *tracer) {
	for _, class := range serveClasses {
		submit := tr.durations("submit." + class)
		wait := tr.durations("wait." + class)
		m.set("span.submit."+class+".ms_p50", median(submit), len(submit))
		m.set("span.wait."+class+".ms_p50", median(wait), len(wait))
		m.set("server.run."+class+".ms_p50", median(w.serverRun[class]), len(w.serverRun[class]))
		m.set("server.queue_emit."+class+".ms_p50", median(w.queueEmit[class]), len(w.queueEmit[class]))
	}
	if n := w.cacheHits + w.cacheMisses; n > 0 {
		m.set("serve.cache_hit_pct", 100*w.cacheHits/n, int(n))
	}
	m.set("serve.queue_wait_ms_mean", w.queueWait.Mean().Nanoseconds()/1e6, int(w.queueWait.Count()))
}

// runCheck replays one check case as a cycle-accurate fbdserve job, so
// the digest also covers the server's result encoding.
func (e *serveEnv) runCheck(ctx context.Context, req simRequest) (system.Results, error) {
	j, err := e.c.SubmitJob(ctx, fbdclient.SubmitJobRequest{
		Preset: req.Preset, Benchmarks: req.Benchmarks, Seed: req.Seed,
		MaxInsts: req.MaxInsts, Warmup: req.Warmup,
	})
	if err == nil {
		j, err = e.await(ctx, j)
	}
	if err != nil {
		return system.Results{}, err
	}
	if j.State != "done" || j.Results == nil {
		return system.Results{}, fmt.Errorf("check job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	return *j.Results, nil
}
