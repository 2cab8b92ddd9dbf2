package sweep

import (
	"context"
	"sync"

	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/system"
)

// WarmupKey returns the identity hash of a grid point's warmup prefix: the
// snapshot fingerprint of its configuration with the warmup-inert knobs
// masked out.
// Two points with equal WarmupKeys execute identical simulations from cycle
// zero through the warmup boundary, so one point's warm-boundary snapshot is
// a valid starting state for the others. Masked knobs:
//
//   - MaxInsts: the measurement budget only decides when the run stops, long
//     after warmup.
//   - Mem.RegionLines: the prefetch group size K steers the address mapping
//     only under multi-cacheline interleaving (the mapper pins it to 1
//     otherwise), so for the other interleaving schemes a K-sweep shares one
//     warmup.
//
// Everything else — seed, workload, timing, geometry, fault plan — changes
// machine state from cycle zero and stays in the key.
func WarmupKey(cfg config.Config, benchmarks []string) string {
	cfg.MaxInsts = 0
	if cfg.Mem.Interleave != config.MultiCachelineInterleave {
		cfg.Mem.RegionLines = 0
	}
	return snapshot.Fingerprint(cfg, benchmarks)
}

// warmupGroup is the shared-warmup rendezvous of one WarmupKey: the first
// point to arrive becomes the leader and runs from cycle zero with a
// warm-boundary checkpoint armed; the rest wait on ready and restore the
// leader's snapshot instead of re-warming. A leader that finishes without
// producing a snapshot (checkpoint-free RunFunc, cancellation, failure
// before warmup) leaves data nil and the waiters fall back to full runs.
type warmupGroup struct {
	ready chan struct{}
	once  sync.Once
	data  []byte
}

func (g *warmupGroup) publish(data []byte) {
	g.once.Do(func() {
		g.data = data
		close(g.ready)
	})
}

// warmupGroupFor returns def's rendezvous and whether this caller is its
// leader. Returns nil when warmup sharing is off or the point has no warmup
// phase to share.
func (e *Engine) warmupGroupFor(def PointDef) (g *warmupGroup, leader bool) {
	if !e.spec.ShareWarmup || def.Cfg.WarmupInsts <= 0 {
		return nil, false
	}
	key := WarmupKey(def.Cfg, def.Benchmarks)
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	g, ok := e.warmGroups[key]
	if !ok {
		g = &warmupGroup{ready: make(chan struct{})}
		e.warmGroups[key] = g
	}
	return g, !ok
}

// runShard executes one grid point's simulation, sharing warmup state across
// the point's warmup group when the spec enables it. The context plumbing is
// advisory: a RunFunc that ignores the checkpoint/restore specs (fakes,
// instrumented wrappers) degrades to plain runs with no correctness impact.
func (e *Engine) runShard(ctx context.Context, def PointDef) (system.Results, error) {
	// Estimate tiers manage their own warmup (sampled: functional
	// warming; analytic: a memoized probe) and bypass the
	// warmup-sharing machinery entirely.
	if def.Fidelity != "" {
		return e.run(ctx, def.Fidelity, def.Cfg, def.Benchmarks)
	}
	g, leader := e.warmupGroupFor(def)
	switch {
	case g == nil:
		if def.Cfg.WarmupInsts > 0 {
			e.warmups.Add(1)
		}
		return e.run(ctx, "", def.Cfg, def.Benchmarks)

	case leader:
		// Leader: warm up from cycle zero, snapshotting the machine at the
		// warmup boundary under the group's key (not the point's own, so
		// every group member can restore it). The rendezvous is always
		// released, even when the run ends without a checkpoint.
		key := WarmupKey(def.Cfg, def.Benchmarks)
		e.warmups.Add(1)
		defer g.publish(nil)
		ctx := system.WithCheckpoint(ctx, system.CheckpointSpec{
			AtWarm:      true,
			Fingerprint: key,
			OnCheckpoint: func(cp system.Checkpoint) error {
				g.publish(cp.Data)
				return nil
			},
		})
		return e.run(ctx, "", def.Cfg, def.Benchmarks)

	default:
		// Follower: wait for the leader's warm snapshot, then run the
		// measurement phase on top of it.
		select {
		case <-g.ready:
		case <-ctx.Done():
			return system.Results{}, ctx.Err()
		}
		if g.data == nil {
			// The leader produced no snapshot; warm up independently.
			e.warmups.Add(1)
			return e.run(ctx, "", def.Cfg, def.Benchmarks)
		}
		key := WarmupKey(def.Cfg, def.Benchmarks)
		ctx := system.WithRestore(ctx, system.RestoreSpec{Data: g.data, Fingerprint: key})
		return e.run(ctx, "", def.Cfg, def.Benchmarks)
	}
}
