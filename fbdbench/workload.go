package main

import (
	"fmt"
	"math/rand"
	"sync"

	"fbdsim/internal/config"
	"fbdsim/pkg/fbdclient"
)

// Workload names, as passed to --workload.
const (
	wlAPStream   = "ap-stream"
	wlFBDStall   = "fbd-stall"
	wlServeMixed = "serve-mixed"
)

var workloads = []string{wlAPStream, wlFBDStall, wlServeMixed}

// presetConfig resolves one of fbdserve's preset names to its Config.
func presetConfig(preset string) (config.Config, error) {
	switch preset {
	case "ddr2":
		return config.DDR2Baseline(), nil
	case "fbd":
		return config.Default(), nil
	case "fbd-ap":
		return config.WithAMBPrefetch(config.Default()), nil
	}
	return config.Config{}, fmt.Errorf("unknown preset %q", preset)
}

// simRequest is one cycle-accurate simulation of the simulation workloads.
type simRequest struct {
	Preset     string   `json:"preset"`
	Benchmarks []string `json:"benchmarks"`
	Seed       int64    `json:"seed"`
	Warmup     int64    `json:"warmup_insts"`
	MaxInsts   int64    `json:"max_insts"`
}

func (r simRequest) config() (config.Config, error) {
	cfg, err := presetConfig(r.Preset)
	if err != nil {
		return cfg, err
	}
	cfg.Seed, cfg.WarmupInsts, cfg.MaxInsts = r.Seed, r.Warmup, r.MaxInsts
	return cfg, nil
}

// simShape is the fixed part of a simulation workload's requests; only the
// trace seed varies from one simulation to the next.
var simShape = map[string]simRequest{
	// Table 3 mix 4C-1 on FBD-AP: the paper's headline configuration on its
	// best case, where the AMB cache serves over half the reads.
	wlAPStream: {Preset: "fbd-ap", Benchmarks: []string{"wupwise", "swim", "mgrid", "applu"},
		Warmup: 20_000, MaxInsts: 200_000},
	// Memory-bound mcf/art on plain FB-DIMM: the controller queues stay
	// full, the core mostly stalls and the AMB cache does no work.
	wlFBDStall: {Preset: "fbd", Benchmarks: []string{"mcf", "art", "mcf", "art"},
		Warmup: 20_000, MaxInsts: 200_000},
}

// simGen hands out a simulation workload's requests in a fixed order
// derived from the seed; it is safe for concurrent use.
type simGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	shape simRequest
	prime int64
}

func newSimGen(workload string, seed int64) (*simGen, error) {
	shape, ok := simShape[workload]
	if !ok {
		return nil, fmt.Errorf("not a simulation workload: %q", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	return &simGen{rng: rng, shape: shape, prime: traceSeed(rng)}, nil
}

// traceSeed draws a positive trace seed (0 would select the config default).
func traceSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }

// priming is the request set-up runs before measuring, the same on every
// set-up repetition.
func (g *simGen) priming() simRequest {
	r := g.shape
	r.Seed = g.prime
	return r
}

func (g *simGen) next() simRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.shape
	r.Seed = traceSeed(g.rng)
	return r
}

// Traffic classes of serve-mixed, named as fbdserve's scheduler names them.
const (
	classAnalytic = "analytic"
	classCycle    = "cycle-accurate"
	classSampled  = "sampled"
	classSweep    = "sweep"
)

var serveClasses = []string{classAnalytic, classCycle, classSampled, classSweep}

// servePair is one (preset, 2-core mix) pair the interactive client asks
// analytic estimates for, with the trace seed its calibration uses.
type servePair struct {
	Preset     string
	Mix        string
	Benchmarks []string
	Seed       int64
}

// Two Table 3 two-core mixes: a streaming pair and an irregular one.
var serveMixes = []struct {
	name       string
	benchmarks []string
}{
	{"2C-1", []string{"wupwise", "swim"}},
	{"2C-3", []string{"vpr", "equake"}},
}

var servePresets = []string{"ddr2", "fbd", "fbd-ap"}

// Budgets of serve-mixed's requests.
const (
	analyticWarmup     = 20_000
	calibrationBudget  = 100_000
	analyticBudgetBase = 200_000 // plus the query index, so budgets are unique
	repeatOneIn        = 10      // about one analytic query in ten repeats
	historyCap         = 64      // repeats come from recent queries, so most hit the cache

	batchWarmup   = 10_000
	batchBudget   = 50_000
	sweepWarmup   = 5_000
	sweepBudget   = 20_000
	sweepSeeds    = 2
	sweepPoints   = 3 * sweepSeeds // servePresets × seeds
	batchKinds    = 3              // cycle-accurate job, sampled job, sweep
	serveRepeatAt = 10             // no repeats before this many queries
)

// serveRequest is one request of serve-mixed: a job or a sweep.
type serveRequest struct {
	Class  string                        `json:"class"`
	Repeat bool                          `json:"repeat,omitempty"`
	Job    *fbdclient.SubmitJobRequest   `json:"job,omitempty"`
	Sweep  *fbdclient.SubmitSweepRequest `json:"sweep,omitempty"`
}

// serveGen derives serve-mixed's requests from the seed. The interactive
// and batch streams have their own generators, so each is a fixed list
// whatever the interleaving of the two clients.
type serveGen struct {
	pairs       []servePair
	interactive *interactiveGen
	batch       *batchGen
}

func newServeGen(seed int64) *serveGen {
	rng := rand.New(rand.NewSource(seed))
	g := &serveGen{}
	for _, p := range servePresets {
		for _, m := range serveMixes {
			g.pairs = append(g.pairs, servePair{Preset: p, Mix: m.name, Benchmarks: m.benchmarks, Seed: traceSeed(rng)})
		}
	}
	g.interactive = &interactiveGen{rng: rand.New(rand.NewSource(rng.Int63())), pairs: g.pairs}
	g.batch = &batchGen{rng: rand.New(rand.NewSource(rng.Int63())), pairs: g.pairs}
	return g
}

// calibration returns one analytic query per pair; answering them runs
// each pair's calibration probe.
func (g *serveGen) calibration() []fbdclient.SubmitJobRequest {
	out := make([]fbdclient.SubmitJobRequest, len(g.pairs))
	for i, p := range g.pairs {
		out[i] = analyticQuery(p, calibrationBudget)
	}
	return out
}

func analyticQuery(p servePair, budget int64) fbdclient.SubmitJobRequest {
	return fbdclient.SubmitJobRequest{
		Preset: p.Preset, Benchmarks: p.Benchmarks, Seed: p.Seed,
		MaxInsts: budget, Warmup: analyticWarmup, Fidelity: classAnalytic,
	}
}

// interactiveGen yields analytic queries. Not safe for concurrent use.
type interactiveGen struct {
	rng     *rand.Rand
	pairs   []servePair
	n       int64
	history []fbdclient.SubmitJobRequest
}

func (g *interactiveGen) next() serveRequest {
	i := g.n
	g.n++
	if i >= serveRepeatAt && g.rng.Intn(repeatOneIn) == 0 {
		r := g.history[g.rng.Intn(len(g.history))]
		return serveRequest{Class: classAnalytic, Repeat: true, Job: &r}
	}
	r := analyticQuery(g.pairs[g.rng.Intn(len(g.pairs))], analyticBudgetBase+i)
	if len(g.history) < historyCap {
		g.history = append(g.history, r)
	} else {
		g.history[i%historyCap] = r
	}
	return serveRequest{Class: classAnalytic, Job: &r}
}

// batchGen cycles a cycle-accurate job, a sampled job and a sweep, each
// with fresh seeds so no batch request is answered from the cache. Not
// safe for concurrent use.
type batchGen struct {
	rng   *rand.Rand
	pairs []servePair
	n     int
}

func (g *batchGen) next() serveRequest {
	k := g.n
	g.n++
	p := g.pairs[(k/batchKinds)%len(g.pairs)]
	switch k % batchKinds {
	case 0:
		return serveRequest{Class: classCycle, Job: &fbdclient.SubmitJobRequest{
			Preset: p.Preset, Benchmarks: p.Benchmarks, Seed: traceSeed(g.rng),
			MaxInsts: batchBudget, Warmup: batchWarmup,
		}}
	case 1:
		return serveRequest{Class: classSampled, Job: &fbdclient.SubmitJobRequest{
			Preset: p.Preset, Benchmarks: p.Benchmarks, Seed: traceSeed(g.rng),
			MaxInsts: batchBudget, Warmup: batchWarmup, Fidelity: classSampled,
		}}
	}
	sw := &fbdclient.SubmitSweepRequest{
		Name:      fmt.Sprintf("batch-%d", k),
		Workloads: []fbdclient.SweepWorkload{{Name: p.Mix, Benchmarks: p.Benchmarks}},
		MaxInsts:  sweepBudget,
		Warmup:    sweepWarmup,
		// One point at a time, like the jobs: the batch client keeps at
		// most one CPU busy simulating, so the interactive client always
		// contends with the same load.
		Parallel: 1,
	}
	for _, preset := range servePresets {
		sw.Configs = append(sw.Configs, fbdclient.SweepConfig{Name: preset, Preset: preset})
	}
	for i := 0; i < sweepSeeds; i++ {
		sw.Seeds = append(sw.Seeds, traceSeed(g.rng))
	}
	return serveRequest{Class: classSweep, Sweep: sw}
}
