// Command fbdbench is the repository's benchmark: it runs one seeded
// workload against the simulator core or an in-process fbdserve, checks
// the outputs, and prints every metric by name and unit. The last line of
// its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, from a run
// under the CPU profiler, memtrace and the benchmark's own spans. Run it
// from the repository root through run.sh, which builds it first:
//
//	bash fbdbench/run.sh --workload ap-stream --seed 1 --seconds 55 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"fbdsim/internal/system"
)

// Set-up runs setupBefore times before the measured window, keeping the
// last, and setupAfter times after it, each torn down at once. setup_s is
// the median of all of them, so it samples the machine's speed, which
// drifts over seconds, at both ends of the run rather than at one instant.
const (
	setupBefore = 2
	setupAfter  = 3
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var secs int
	var traceFlag int
	var regen string
	var summarizeRuns bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 55, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run that prints the per-layer metrics")
	flag.StringVar(&regen, "regen-checkset", "", "rerun the check set and write its digests to this file, then exit")
	flag.BoolVar(&summarizeRuns, "summarize", false, "print each metric's median and quartiles over the runs whose outputs are in the files named as arguments, then exit")
	flag.Parse()
	ctx := context.Background()

	if summarizeRuns {
		if err := summarize(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "fbdbench:", err)
			return 1
		}
		return 0
	}

	if regen != "" {
		if err := regenCheckset(ctx, regen); err != nil {
			fmt.Fprintln(os.Stderr, "fbdbench:", err)
			return 1
		}
		return 0
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traceFlag == 1
	switch {
	case !slices.Contains(workloads, o.workload):
		fmt.Fprintf(os.Stderr, "fbdbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	case secs < 1:
		fmt.Fprintln(os.Stderr, "fbdbench: --seconds must be at least 1")
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(os.Stderr, "fbdbench: --trace must be 0 or 1")
		return 2
	}

	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbdbench:", err)
		return 1
	}
	if rep.tracer != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := rep.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "fbdbench: write spans:", err)
			return 1
		}
		rep.summary = append(rep.summary, "spans written to "+path)
	}
	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics()
	}
	line, err := rep.render(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbdbench:", err)
		return 1
	}
	for _, s := range rep.summary {
		fmt.Println("#", s)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "fbdbench: failed:", e)
	}
	rep.printTable(defs)
	fmt.Println(line)
	return 0
}

func runWorkload(ctx context.Context, o options) (*report, error) {
	rep := &report{metrics: metricSet{}}
	var setups []float64
	timed := func(f func() error) error {
		t := time.Now()
		err := f()
		setups = append(setups, time.Since(t).Seconds())
		return err
	}
	switch o.workload {
	case wlServeMixed:
		var env *serveEnv
		setup := func() (err error) { env, err = serveSetup(ctx, o.seed, o.trace); return err }
		for i := 0; i < setupBefore; i++ {
			if env != nil {
				env.close()
			}
			if err := timed(setup); err != nil {
				return nil, err
			}
		}
		err := runServeWorkload(ctx, o, env, rep)
		env.close()
		if err != nil {
			return nil, err
		}
		runtime.GC() // drop the measured server's jobs before timing set-up again
		for i := 0; i < setupAfter; i++ {
			if err := timed(setup); err != nil {
				return nil, err
			}
			env.close()
		}
	default:
		var gen *simGen
		setup := func() (err error) { gen, err = simSetup(ctx, o.workload, o.seed); return err }
		for i := 0; i < setupBefore; i++ {
			if err := timed(setup); err != nil {
				return nil, err
			}
		}
		if err := runSimWorkload(ctx, o, gen, rep); err != nil {
			return nil, err
		}
		for i := 0; i < setupAfter; i++ {
			if err := timed(setup); err != nil {
				return nil, err
			}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.metrics.set("host.mem_sys_mb", float64(mem.Sys)/(1<<20), 1)
	rep.metrics.set("setup_s", median(setups), len(setups))
	rep.metrics.set("ok_pct", 100*float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	return rep, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator or of fbdserve sees,
// measured with tracing off; each workload defines every one of them (see
// README.md for the per-workload meaning of op). Timings are gated at the
// one-in-ten slow end of their distributions: on a shared machine a
// simulation's wall time alternates between a fast and a contended speed
// for seconds to minutes at a time, and a median lands on whichever mode
// had the larger share of the window, while p90 and p10 stay inside the
// contended mode yet, unlike p95, rest on enough samples that one slow
// episode does not carry them. Medians, p95 and throughputs are printed in
// the table.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ok_pct", "%"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"sim_minsts_per_s_p10", "Minst/s"},
	{"op_ms_p90", "ms"},
}

// stageNames are memtrace's request-lifecycle stages.
var stageNames = []string{"mshr", "queue", "south", "amb", "dram", "north"}

// perLayerMetrics are the traced run's metrics: host CPU share per layer,
// the benchmark's spans around the simulator's phases, host work ratios
// and the simulated counts that explain them.
func perLayerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"host." + l + ".self_pct", "%"})
	}
	defs = append(defs,
		metricDef{"span.system_new.ms_p50", "ms"},
		metricDef{"span.warmup.ms_p50", "ms"},
		metricDef{"span.measure.ms_p50", "ms"},
		metricDef{"host.ns_per_mem_req", "ns"},
		metricDef{"host.mcycles_per_s", "Mcycle/s"},
		metricDef{"model.ipc", "inst/cycle"},
		metricDef{"model.l2_mpki", "1/kinst"},
		metricDef{"model.reads_pki", "1/kinst"},
		metricDef{"model.writes_pki", "1/kinst"},
		metricDef{"model.ambcache.hit_pct", "%"},
		metricDef{"model.ambcache.prefetch_eff_pct", "%"},
		metricDef{"model.dram.act_pki", "1/kinst"},
		metricDef{"model.dram.bank_conflicts_pki", "1/kinst"},
		metricDef{"model.link.read_util_pct", "%"},
		metricDef{"model.link.write_util_pct", "%"},
		metricDef{"model.read_latency_ns_mean", "sim_ns"},
	)
	for _, s := range stageNames {
		defs = append(defs, metricDef{"model.stage." + s + ".ns_mean", "sim_ns"})
	}
	return append(defs, metricDef{"trace_overhead_pct", "%"})
}

// metricValue is one measured value and the sample count behind it.
type metricValue struct {
	value float64
	n     int
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, n int) { m[name] = metricValue{v, n} }

// report collects one run's outcome.
type report struct {
	attempted int
	failed    int
	errs      []string
	metrics   metricSet
	summary   []string // extra human-readable lines
	tracer    *tracer
}

func (r *report) add(attempted, failed int, errs []string) {
	r.attempted += attempted
	r.failed += failed
	r.errs = append(r.errs, errs...)
}

// render builds the result line from defs, refusing a missing or
// non-finite metric.
func (r *report) render(defs []metricDef) (string, error) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		switch {
		case !ok:
			return "", fmt.Errorf("metric %s was not measured", d.name)
		case math.IsNaN(v.value) || math.IsInf(v.value, 0):
			return "", fmt.Errorf("metric %s is %v", d.name, v.value)
		}
		metrics[d.name] = jsonMetric{v.value, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

// printTable prints defs with their values and sample counts, then any
// extra metrics the run measured, and for each timing percentile the
// highest percentile its sample supports.
func (r *report) printTable(defs []metricDef) {
	seen := make(map[string]bool)
	line := func(name, unit string, v metricValue) {
		note := ""
		if percentileName.MatchString(name) {
			if p, ok := supportedPercentile(v.n); ok {
				note = fmt.Sprintf(" (supports p%g)", p)
			} else {
				note = " (too few samples for a percentile)"
			}
		}
		fmt.Printf("# %-36s %14.4f %-10s n=%d%s\n", name, v.value, unit, v.n, note)
	}
	for _, d := range defs {
		seen[d.name] = true
		line(d.name, d.unit, r.metrics[d.name])
	}
	var extra []string
	for name := range r.metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, extraUnit(name), r.metrics[name])
	}
}

// extraUnit infers the unit of a metric printed only in the table.
func extraUnit(name string) string {
	switch {
	case strings.Contains(name, "ms_"):
		return "ms"
	case strings.HasPrefix(name, "sim_minsts_per_s"):
		return "Minst/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	}
	return ""
}

// percentileName matches metric names that report a timing percentile.
var percentileName = regexp.MustCompile(`_p[0-9.]+$`)

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// hostShares sets host.<layer>.self_pct from a CPU profile.
func hostShares(m metricSet, prof []byte, n int) error {
	shares, err := selfShares(prof)
	if err != nil {
		return err
	}
	for l, v := range shares {
		m.set("host."+l+".self_pct", v, n)
	}
	return nil
}

// spanMetrics sets the span.<phase>.ms_p50 metrics from a tracer.
func spanMetrics(m metricSet, tr *tracer) {
	for _, name := range []string{"system_new", "warmup", "measure"} {
		d := tr.durations(name)
		m.set("span."+name+".ms_p50", median(d), len(d))
	}
}

// workRatios sets host time per unit of simulated work over the measured
// phases of rs, whose host durations (ms) are measureMS.
func workRatios(m metricSet, rs []system.Results, measureMS []float64) {
	var hostMS float64
	for _, d := range measureMS {
		hostMS += d
	}
	var reqs, cycles int64
	for _, r := range rs {
		reqs += r.Reads + r.Writes
		cycles += r.Cycles
	}
	m.set("host.ns_per_mem_req", hostMS*1e6/float64(max(reqs, 1)), len(rs))
	m.set("host.mcycles_per_s", float64(cycles)/(hostMS/1e3)/1e6, len(rs))
}

// modelMetrics sets the simulated counts, pooled over rs. They are
// deterministic for a given request list and explain host-time moves.
func modelMetrics(m metricSet, rs []system.Results) {
	var insts, l2miss, reads, writes, ambReads, ambHits, prefetched, acts, conflicts int64
	var ipc, readUtil, writeUtil, latSum float64
	stageSum := make(map[string]float64)
	stageN := make(map[string]int64)
	for _, r := range rs {
		for _, c := range r.Committed {
			insts += c
		}
		ipc += r.TotalIPC()
		l2miss += r.L2Misses
		reads += r.Reads
		writes += r.Writes
		ambReads += r.AMB.Reads
		ambHits += r.AMB.Hits
		prefetched += r.AMB.Prefetched
		acts += r.DRAM.ACT
		conflicts += r.BankConflicts
		readUtil += r.ReadLinkUtilization
		writeUtil += r.WriteLinkUtilization
		latSum += r.AvgReadLatencyNS * float64(r.Reads)
		if r.Trace != nil {
			for _, st := range r.Trace.Breakdown {
				stageSum[st.Stage] += st.MeanNS * float64(st.Count)
				stageN[st.Stage] += st.Count
			}
		}
	}
	n := len(rs)
	pki := func(x int64) float64 { return 1000 * float64(x) / float64(max(insts, 1)) }
	pct := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	perRun := func(x float64) float64 { return x / float64(max(n, 1)) }
	m.set("model.ipc", perRun(ipc), n)
	m.set("model.l2_mpki", pki(l2miss), n)
	m.set("model.reads_pki", pki(reads), n)
	m.set("model.writes_pki", pki(writes), n)
	m.set("model.ambcache.hit_pct", pct(ambHits, ambReads), n)
	m.set("model.ambcache.prefetch_eff_pct", pct(ambHits, prefetched), n)
	m.set("model.dram.act_pki", pki(acts), n)
	m.set("model.dram.bank_conflicts_pki", pki(conflicts), n)
	m.set("model.link.read_util_pct", 100*perRun(readUtil), n)
	m.set("model.link.write_util_pct", 100*perRun(writeUtil), n)
	m.set("model.read_latency_ns_mean", latSum/float64(max(reads, 1)), n)
	for _, s := range stageNames {
		v := 0.0
		if stageN[s] > 0 {
			v = stageSum[s] / float64(stageN[s])
		}
		m.set("model.stage."+s+".ns_mean", v, int(stageN[s]))
	}
}
