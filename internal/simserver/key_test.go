package simserver

import (
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
)

// TestKeyCanonical: the cache key every job submission is admitted under
// (fidelity.Key at the cycle-accurate tier) is stable for identical
// requests and separates every dimension a request can vary in: config
// knobs, workload, seed and instruction budget.
func TestKeyCanonical(t *testing.T) {
	key := func(cfg config.Config, benchmarks []string) string {
		return fidelity.Key(fidelity.CycleAccurate, cfg, benchmarks)
	}
	cfg := config.Default()
	a := key(cfg, []string{"swim", "applu"})
	b := key(cfg, []string{"swim", "applu"})
	if a != b {
		t.Error("identical requests must hash identically")
	}
	if len(a) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(a))
	}

	seed := cfg
	seed.Seed = 99
	insts := cfg
	insts.MaxInsts = 123
	for _, v := range []struct {
		name  string
		other string
	}{
		{"benchmark order", key(cfg, []string{"applu", "swim"})},
		{"benchmark set", key(cfg, []string{"swim"})},
		{"seed", key(seed, []string{"swim", "applu"})},
		{"budget", key(insts, []string{"swim", "applu"})},
		{"config", key(config.WithAMBPrefetch(cfg), []string{"swim", "applu"})},
	} {
		if v.other == a {
			t.Errorf("%s: distinct requests share a key", v.name)
		}
	}
}
