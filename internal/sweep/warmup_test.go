package sweep

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/workload"
)

// kSweepSpec builds the satellite grid: two base configurations (DDR2 and
// FB-DIMM, neither under multi-cacheline interleaving) crossed with three
// prefetch region sizes K. K is warmup-inert for these interleaving schemes,
// so the six points form exactly two warmup groups.
func kSweepSpec(share bool) Spec {
	var cfgs []NamedConfig
	for _, base := range []struct {
		name string
		cfg  config.Config
	}{
		{"ddr2", config.DDR2Baseline()},
		{"fbd", config.Default()},
	} {
		for _, k := range []int{2, 4, 8} {
			c := base.cfg
			c.Mem.RegionLines = k
			cfgs = append(cfgs, NamedConfig{Name: fmt.Sprintf("%s-k%d", base.name, k), Config: c})
		}
	}
	return Spec{
		Name:        "k-sweep",
		Configs:     cfgs,
		Workloads:   []workload.Workload{{Name: "wl", Benchmarks: []string{"swim"}}},
		MaxInsts:    12_000,
		WarmupInsts: 3_000,
		Parallel:    3,
		ShareWarmup: share,
	}
}

// TestWarmupKeyMasksInertKnobs: points differing only in measurement budget
// or (outside multi-cacheline interleaving) region size share a warmup
// group; warmup-visible knobs split groups.
func TestWarmupKeyMasksInertKnobs(t *testing.T) {
	base := config.Default()
	bench := []string{"swim"}
	ref := WarmupKey(base, bench)

	budget := base
	budget.MaxInsts *= 2
	if WarmupKey(budget, bench) != ref {
		t.Errorf("MaxInsts changed the warmup key")
	}
	k := base
	k.Mem.RegionLines = 8
	if WarmupKey(k, bench) != ref {
		t.Errorf("RegionLines changed the warmup key under %v interleaving", base.Mem.Interleave)
	}

	mc := config.WithAMBPrefetch(config.Default())
	mcK := mc
	mcK.Mem.RegionLines = 8
	if WarmupKey(mc, bench) == WarmupKey(mcK, bench) {
		t.Errorf("RegionLines did not change the warmup key under multi-cacheline interleaving")
	}
	seed := base
	seed.Seed++
	if WarmupKey(seed, bench) == ref {
		t.Errorf("seed did not change the warmup key")
	}
	if WarmupKey(base, []string{"applu"}) == ref {
		t.Errorf("workload did not change the warmup key")
	}
}

// BenchmarkSharedWarmup measures what warmup sharing buys on the Figure-8
// style K-sweep (2 presets × K ∈ {2,4,8} = 6 points, 2 warmup groups) in
// two budget regimes: the figure harness's default shape where warmup is a
// small fraction of the run, and a warmup-heavy shape (long warmup, short
// measured window) where amortization dominates. Numbers are recorded in
// EXPERIMENTS.md (extension E7).
func BenchmarkSharedWarmup(b *testing.B) {
	regimes := []struct {
		name          string
		warmup, insts int64
	}{
		{"default", 40_000, 300_000},
		{"warmup-heavy", 200_000, 50_000},
	}
	for _, reg := range regimes {
		for _, share := range []bool{false, true} {
			name := reg.name + "/plain"
			if share {
				name = reg.name + "/shared"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := kSweepSpec(share)
					spec.WarmupInsts = reg.warmup
					spec.MaxInsts = reg.insts
					eng, err := New(spec, Options{})
					if err != nil {
						b.Fatal(err)
					}
					pts, err := collect(context.Background(), eng)
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range pts {
						if p.Err != "" {
							b.Fatalf("point %s/%s: %s", p.Config, p.Workload, p.Err)
						}
					}
				}
			})
		}
	}
}

// TestSharedWarmupOneWarmupPerGroup is the satellite acceptance test: a
// 2-config × 3-K grid under ShareWarmup performs exactly two warmups — one
// per (config-prefix, workload) group — and its merged results DeepEqual a
// sweep of the same grid with sharing off. Runs the real simulator.
func TestSharedWarmupOneWarmupPerGroup(t *testing.T) {
	run := func(share bool) ([]Point, Progress, error) {
		eng, err := New(kSweepSpec(share), Options{})
		if err != nil {
			return nil, Progress{}, err
		}
		pts, err := collect(context.Background(), eng)
		return pts, eng.Progress(), err
	}

	plain, plainProg, err := run(false)
	if err != nil {
		t.Fatalf("plain sweep: %v", err)
	}
	shared, sharedProg, err := run(true)
	if err != nil {
		t.Fatalf("shared sweep: %v", err)
	}
	for _, p := range append(append([]Point(nil), plain...), shared...) {
		if p.Err != "" {
			t.Fatalf("point %s/%s failed: %s", p.Config, p.Workload, p.Err)
		}
	}

	if plainProg.Warmups != 6 {
		t.Errorf("plain sweep performed %d warmups, want 6", plainProg.Warmups)
	}
	if sharedProg.Warmups != 2 {
		t.Errorf("shared sweep performed %d warmups, want 2 (one per warmup group)", sharedProg.Warmups)
	}
	if !reflect.DeepEqual(plain, shared) {
		t.Errorf("shared-warmup sweep results diverged from plain sweep\nplain:  %+v\nshared: %+v", plain, shared)
	}
}
