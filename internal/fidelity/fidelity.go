// Package fidelity names and dispatches the simulator's three fidelity
// tiers: the ordinary cycle-accurate run, the SMARTS-style sampled run
// (internal/sample — detailed measured windows stitched over functional
// fast-forward, ~10-50x cheaper at <2% IPC error) and the calibrated
// analytic queue model (internal/analytic — sub-10ms queries after a short
// probe). The tier is pure data — a string that travels through
// configuration files, sweep specs and the fbdserve JSON API — and this
// package is the single place it is parsed, cache-keyed and executed, so
// every layer (fbdsim.Run options, sweep shards, server jobs, the
// experiment harness) agrees on what each tier means.
package fidelity

import (
	"context"
	"fmt"

	"fbdsim/internal/analytic"
	"fbdsim/internal/config"
	"fbdsim/internal/sample"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
)

// Tier is one fidelity level. The zero value ("") means cycle-accurate:
// every API that grew a fidelity field after the fact treats absence as
// the full-detail default, so pre-existing JSON (sweep specs, journals,
// job requests) keeps its meaning.
type Tier string

const (
	// CycleAccurate is the ordinary full-detail simulation.
	CycleAccurate Tier = "cycle-accurate"
	// Sampled alternates functional warming with detailed measured
	// windows (internal/sample): ~10-50x fewer detailed instructions at
	// <2% total-IPC error on the seed workloads, with a confidence
	// interval on the estimate.
	Sampled Tier = "sampled"
	// Analytic answers from a calibrated M/D/1 queue model
	// (internal/analytic): one short probe per (config, workload), then
	// sub-10ms queries.
	Analytic Tier = "analytic"
)

// Parse maps a wire string to a Tier. The empty string is cycle-accurate
// (the backward-compatible default); anything else unknown is an error.
func Parse(s string) (Tier, error) {
	switch Tier(s) {
	case "", CycleAccurate:
		return CycleAccurate, nil
	case Sampled:
		return Sampled, nil
	case Analytic:
		return Analytic, nil
	}
	return "", fmt.Errorf("fidelity: unknown tier %q (want cycle-accurate, sampled or analytic)", s)
}

// Valid reports whether t is a known tier (the empty string counts, as
// the cycle-accurate default).
func (t Tier) Valid() bool {
	_, err := Parse(string(t))
	return err == nil
}

// String returns the wire form; the zero value prints as cycle-accurate.
func (t Tier) String() string {
	if t == "" {
		return string(CycleAccurate)
	}
	return string(t)
}

// Key returns the result-cache / journal identity of one (tier, config,
// workload) request. Cycle-accurate requests keep the bare snapshot
// fingerprint — the identity every existing cache, journal and job store
// was built on — so enabling tiers invalidates nothing; the cheaper tiers
// are tagged so their estimates can never be confused with (or served in
// place of) full-detail results.
func Key(t Tier, cfg config.Config, benchmarks []string) string {
	fp := snapshot.Fingerprint(cfg, benchmarks)
	if t == "" || t == CycleAccurate {
		return fp
	}
	return string(t) + ":" + fp
}

// Run executes one simulation request at tier t. Results from the cheaper
// tiers carry a non-nil Results.Estimate describing the estimation
// (tier name, confidence interval, cost accounting); cycle-accurate
// results do not, which is itself the marker of full detail.
func Run(ctx context.Context, t Tier, cfg config.Config, benchmarks []string) (system.Results, error) {
	switch t {
	case "", CycleAccurate:
		return system.RunWorkloadContext(ctx, cfg, benchmarks)
	case Sampled:
		return sample.Run(ctx, cfg, benchmarks, sample.Options{})
	case Analytic:
		return analytic.Run(ctx, cfg, benchmarks, analytic.Options{})
	}
	return system.Results{}, fmt.Errorf("fidelity: unknown tier %q", t)
}
