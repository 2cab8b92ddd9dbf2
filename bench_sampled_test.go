package fbdsim

// Tiered-fidelity benchmarks: the accuracy-vs-speedup contract of the
// sampled tier against the cycle-accurate reference, per seed workload.
// These are the benchmarks behind BENCH_sampled.json: each sub-benchmark
// runs the full simulation once (outside the timer) and the sampled tier
// inside it, reporting the sampled run's IPC error against the reference
// (ipc-err-pct), its wall-clock speedup (speedup-x), and the ratio of total
// to detailed instructions (detail-x). The committed JSON is the checkable
// form of the ISSUE 9 claim — ≥10× fewer detailed instructions at <2% IPC
// error — and benchjson -compare gates it in CI.
//
// Regenerate the committed file with:
//
//	go test -run '^$' -bench BenchmarkSampledFidelity -benchtime 1x -cpu 1 . | go run ./cmd/benchjson > BENCH_sampled.json

import (
	"context"
	"testing"
	"time"
)

// benchSampledConfig is the budget the sampling contract is stated at:
// long enough for the trace to cycle through its phases, so the windows
// have real variance to average over.
func benchSampledConfig() Config {
	cfg := Default()
	cfg.MaxInsts = 2_000_000
	cfg.WarmupInsts = 100_000
	return cfg
}

func benchmarkSampledFidelity(b *testing.B, names []string) {
	cfg := benchSampledConfig()
	ctx := context.Background()

	fullStart := time.Now()
	full, err := Run(ctx, cfg, names)
	if err != nil {
		b.Fatal(err)
	}
	fullWall := time.Since(fullStart)

	var res Results
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = Run(ctx, cfg, names, WithFidelity(Sampled))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	errPct := (res.TotalIPC() - full.TotalIPC()) / full.TotalIPC() * 100
	if errPct < 0 {
		errPct = -errPct
	}
	b.ReportMetric(errPct, "ipc-err-pct")
	if per := b.Elapsed() / time.Duration(b.N); per > 0 {
		b.ReportMetric(float64(fullWall)/float64(per), "speedup-x")
	}
	if est := res.Estimate; est != nil && est.DetailedInsts > 0 {
		b.ReportMetric(float64(est.DetailedInsts+est.FunctionalInsts)/float64(est.DetailedInsts), "detail-x")
	}
}

func BenchmarkSampledFidelity(b *testing.B) {
	b.Run("swim", func(b *testing.B) { benchmarkSampledFidelity(b, []string{"swim"}) })
	b.Run("mcf", func(b *testing.B) { benchmarkSampledFidelity(b, []string{"mcf"}) })
	b.Run("art", func(b *testing.B) { benchmarkSampledFidelity(b, []string{"art"}) })
}
