package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// simClients is the number of closed-loop goroutines each running one
// simulation at a time: one per CPU of the two-CPU machine the bounds were
// sized on.
const simClients = 2

// simOutcome is one completed simulation.
type simOutcome struct {
	res    system.Results
	opMS   float64 // system.New through RunContext's return
	runMS  float64 // RunContext alone
	minsts float64 // committed instructions (all cores) per run second, millions
}

// runTiming holds the instants of one timed simulation.
type runTiming struct {
	start, built, end time.Time
}

// timedRun runs one simulation the way fbdsim.Run does: system.New, then
// RunContext. With a tracer it records the construction, warm-up and
// measurement spans of request op, split at the first progress report
// past warm-up.
func timedRun(ctx context.Context, cfg config.Config, benchmarks []string, tr *tracer, op int64) (system.Results, runTiming, error) {
	var t runTiming
	t.start = time.Now()
	s, err := system.New(cfg, benchmarks)
	if err != nil {
		return system.Results{}, t, err
	}
	// As system.RunWorkloadContext does, so a traced fbdserve job keeps
	// its live epoch stream when the server runs it through here.
	if sink := system.EpochSinkFrom(ctx); sink != nil {
		s.Controller().Recorder().SetSink(sink)
	}
	t.built = time.Now()
	var warmAt time.Time
	if tr != nil {
		ctx = system.WithProgress(ctx, func(p system.Progress) {
			if p.Warm && warmAt.IsZero() {
				warmAt = time.Now()
			}
		})
	}
	res, err := s.RunContext(ctx)
	t.end = time.Now()
	if err != nil {
		return system.Results{}, t, err
	}
	if tr != nil {
		if warmAt.IsZero() {
			warmAt = t.end
		}
		tr.record(op, "run", "", t.start, t.end)
		tr.record(op, "system_new", "run", t.start, t.built)
		tr.record(op, "warmup", "run", t.built, warmAt)
		tr.record(op, "measure", "run", warmAt, t.end)
	}
	return res, t, nil
}

// withoutEvents returns r with its memtrace summary but not the retained
// per-request events, which the per-layer metrics do not read and which
// would otherwise keep megabytes per traced simulation alive.
func withoutEvents(r system.Results) system.Results {
	if r.Trace != nil {
		t := *r.Trace
		t.TraceEvents = nil
		r.Trace = &t
	}
	return r
}

// minstsPerSec is committed instructions, all cores, per second of d, in
// millions.
func minstsPerSec(r system.Results, d time.Duration) float64 {
	var committed int64
	for _, c := range r.Committed {
		committed += c
	}
	return float64(committed) / d.Seconds() / 1e6
}

// simulate runs one simulation request. A traced run also turns on
// memtrace, as fbdsim.WithTrace does.
func simulate(ctx context.Context, req simRequest, tr *tracer, op int64) (simOutcome, error) {
	cfg, err := req.config()
	if err != nil {
		return simOutcome{}, err
	}
	if tr != nil {
		cfg.Trace = config.Trace{Enabled: true}
	}
	res, t, err := timedRun(ctx, cfg, req.Benchmarks, tr, op)
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{
		res:    withoutEvents(res),
		opMS:   ms(t.end.Sub(t.start)),
		runMS:  ms(t.end.Sub(t.built)),
		minsts: minstsPerSec(res, t.end.Sub(t.built)),
	}, nil
}

// simWindow is what one measured window of a simulation workload saw.
type simWindow struct {
	outs      []simOutcome
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	mallocs   uint64
	bytes     uint64
}

// runSimWindow runs closed-loop simulations from gen on simClients
// goroutines, starting new ones until d has passed and then waiting for
// those in flight.
func runSimWindow(ctx context.Context, gen *simGen, d time.Duration, tr *tracer) simWindow {
	var w simWindow
	var mu sync.Mutex
	var ops atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < simClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := gen.next()
				out, err := simulate(ctx, req, tr, ops.Add(1))
				if err == nil {
					err = checkSim(req, out.res)
				}
				mu.Lock()
				w.attempted++
				if err != nil {
					w.failed++
					w.errs = append(w.errs, fmt.Sprintf("%s %v seed %d: %v", req.Preset, req.Benchmarks, req.Seed, err))
				} else {
					w.outs = append(w.outs, out)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	return w
}

func (w simWindow) minsts() []float64 {
	xs := make([]float64, len(w.outs))
	for i, o := range w.outs {
		xs[i] = o.minsts
	}
	return xs
}

// endToEnd fills the end-to-end metrics a simulation window measures, and
// the medians and throughput the table shows beside them.
func (w simWindow) endToEnd(m metricSet) {
	op := make([]float64, len(w.outs))
	run := make([]float64, len(w.outs))
	for i, o := range w.outs {
		op[i], run[i] = o.opMS, o.runMS
	}
	n := float64(max(w.attempted, 1))
	m.set("sim_minsts_per_s_p10", percentile(w.minsts(), 10), len(op))
	m.set("op_ms_p90", percentile(op, 90), len(op))
	m.set("allocs_per_op", float64(w.mallocs)/n, len(op))
	m.set("alloc_kb_per_op", float64(w.bytes)/n/1024, len(op))

	m.set("sim_minsts_per_s_p50", median(w.minsts()), len(op))
	m.set("op_ms_p50", median(op), len(op))
	m.set("op_ms_p95", percentile(op, 95), len(op))
	m.set("run_ms_p90", percentile(run, 90), len(run))
	m.set("ops_per_s", float64(len(w.outs))/w.wall.Seconds(), len(op))
}

// simSetup prepares a simulation workload: it derives the request stream
// from the seed and runs the priming simulation, which pays the one-time
// costs (heap growth, lazily built tables) before anything is timed.
func simSetup(ctx context.Context, workload string, seed int64) (*simGen, error) {
	gen, err := newSimGen(workload, seed)
	if err != nil {
		return nil, err
	}
	req := gen.priming()
	out, err := simulate(ctx, req, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("priming simulation: %w", err)
	}
	if err := checkSim(req, out.res); err != nil {
		return nil, fmt.Errorf("priming simulation: %w", err)
	}
	return gen, nil
}

// runSimWorkload measures a simulation workload. Untraced, one window of
// the full length gives the end-to-end metrics. Traced, an untraced first
// half gives the reference for trace_overhead_pct and a second half under
// the CPU profiler and memtrace gives the per-layer metrics.
func runSimWorkload(ctx context.Context, o options, gen *simGen, rep *report) error {
	if !o.trace {
		w := runSimWindow(ctx, gen, o.seconds, nil)
		rep.add(w.attempted, w.failed, w.errs)
		w.endToEnd(rep.metrics)
		rep.summary = append(rep.summary, fmt.Sprintf("%d simulations in %.1f s on %d clients", len(w.outs), w.wall.Seconds(), simClients))
	} else {
		ref := runSimWindow(ctx, gen, o.seconds/2, nil)
		rep.add(ref.attempted, ref.failed, ref.errs)
		tr := newTracer()
		var w simWindow
		prof, err := profiled(func() { w = runSimWindow(ctx, gen, o.seconds-o.seconds/2, tr) })
		if err != nil {
			return err
		}
		rep.add(w.attempted, w.failed, w.errs)
		rep.tracer = tr
		if err := hostShares(rep.metrics, prof, len(w.outs)); err != nil {
			return err
		}
		spanMetrics(rep.metrics, tr)
		results := make([]system.Results, len(w.outs))
		for i, out := range w.outs {
			results[i] = out.res
		}
		workRatios(rep.metrics, results, tr.durations("measure"))
		modelMetrics(rep.metrics, results)
		rep.metrics.set("trace_overhead_pct", 100*(percentile(ref.minsts(), 10)/percentile(w.minsts(), 10)-1), len(w.outs))
		rep.summary = append(rep.summary, fmt.Sprintf("traced: %d simulations after %d untraced", len(w.outs), len(ref.outs)))
	}
	f, msgs := replayCheckset(ctx, runDirect)
	rep.add(len(checkRequests()), f, msgs)
	return nil
}
