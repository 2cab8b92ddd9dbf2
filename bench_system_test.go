package fbdsim

// Engine benchmarks: wall-clock speed of the simulation core itself, as
// opposed to the figure-reproduction benchmarks in bench_test.go. These are
// the benchmarks behind BENCH_baseline.json and the CI bench step: they run
// even under -short (small instruction budgets keep them to a few hundred
// milliseconds) so every CI run records sim-cycles/sec, and gates allocs/op
// and B/op against the baseline. The baseline is measured on the default
// event-driven loop, the same loop CI runs.
//
// Two mixes on plain FB-DIMM bound the engine's operating range, and a
// third exercises the AMB prefetch path:
//
//   - stall-heavy (mcf/art): memory-bound cores spend most cycles blocked
//     on DRAM, the regime the event-driven fast-forward targets;
//   - compute-heavy (wupwise/lucas): high-IPC cores commit nearly every
//     cycle, the regime where fast-forward must not add overhead;
//   - ap-stream (Table 3 mix 4C-1 on FBD-AP): the AMB caches serve over
//     half the reads, so the prefetch information table, its in-flight
//     landing times and the group fetches are on the request path.
//
// Regenerate the committed baseline with:
//
//	go test -run '^$' -bench BenchmarkSystemRun -benchmem -cpu 1 . | go run ./cmd/benchjson > BENCH_baseline.json

import (
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// benchEngineConfig is the shared configuration of the engine benchmarks:
// the default FB-DIMM machine with a budget small enough for CI but long
// enough to reach steady state past the L2 prewarm.
func benchEngineConfig() config.Config {
	cfg := config.Default()
	cfg.MaxInsts = 40_000
	cfg.WarmupInsts = 8_000
	return cfg
}

// benchmarkSystemRun measures end-to-end engine throughput for one mix on
// cfg, reporting simulated CPU cycles per wall-clock second next to the
// usual ns/op and (via -benchmem) allocs/op.
func benchmarkSystemRun(b *testing.B, cfg config.Config, names []string) {
	b.ReportAllocs()
	var simCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := system.RunWorkload(cfg, names)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.Cycles
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(simCycles)/sec, "sim-cycles/s")
	}
}

func BenchmarkSystemRun(b *testing.B) {
	b.Run("stall-heavy", func(b *testing.B) {
		benchmarkSystemRun(b, benchEngineConfig(), []string{"mcf", "art", "mcf", "art"})
	})
	b.Run("compute-heavy", func(b *testing.B) {
		benchmarkSystemRun(b, benchEngineConfig(), []string{"wupwise", "lucas", "wupwise", "lucas"})
	})
	b.Run("ap-stream", func(b *testing.B) {
		benchmarkSystemRun(b, config.WithAMBPrefetch(benchEngineConfig()), []string{"wupwise", "swim", "mgrid", "applu"})
	})
}
