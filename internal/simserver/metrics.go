package simserver

import (
	"sync"
	"time"

	"fbdsim/internal/clock"
	"fbdsim/internal/stats"
)

// Metrics is the server's counter set, published through a stats.Registry
// on /metrics. All counters are goroutine-safe.
type Metrics struct {
	reg *stats.Registry

	// Job lifecycle.
	Accepted  *stats.Counter // submissions admitted (including coalesced)
	Completed *stats.Counter // jobs that finished successfully
	Cancelled *stats.Counter // jobs cancelled before completing
	Failed    *stats.Counter // jobs that errored
	Paused    *stats.Counter // jobs checkpointed and stopped via pause
	Rejected  *stats.Counter // submissions refused with 429 (queue full)
	Panics    *stats.Counter // simulation panics recovered by Cache.Do, any door
	Retries   *stats.Counter // transient-failure job retries performed
	SimCycles *stats.Counter // simulated CPU cycles of completed jobs that led their run

	// Result cache.
	CacheHits   *stats.Counter // served from cache or coalesced onto a run
	CacheMisses *stats.Counter // submissions that required a simulation

	// Sweeps.
	SweepsAccepted  *stats.Counter // sweep submissions admitted
	SweepsCompleted *stats.Counter // sweeps whose every grid point emitted
	SweepsCancelled *stats.Counter // sweeps stopped before completing
	SweepsFailed    *stats.Counter // sweeps that errored (journal, cluster)
	SweepPoints     *stats.Counter // grid points emitted across all sweeps

	// Cluster worker side: leases accepted by /v1/cluster/execute and the
	// points answered for them (fresh, cached or journal-replayed). The
	// coordinator-side cluster_* gauges live on the cluster.Coordinator
	// and are registered in New when one is configured.
	LeasesExecuted *stats.Counter
	LeasePoints    *stats.Counter

	// Per-tenant counters, keyed by tenant name (keyfile tenants only, so
	// cardinality is bounded by configuration). Registered by New when
	// multi-tenant mode is on; nil-safe to index when it is off.
	tenantAccepted map[string]*stats.Counter // admitted submissions per tenant
	tenantRejected map[string]*stats.Counter // 429s (rate or quota) per tenant

	// Full wall-time distributions: queueWait is submission→start for every
	// job that reached a worker; runDur is the start→terminal wall time of
	// every executed job, whatever its outcome. Both histograms observe
	// durations as clock.Time picoseconds, the registry's histogram
	// convention, and export as native Prometheus histograms in seconds.
	histMu    sync.Mutex
	queueWait stats.Histogram
	runDur    stats.Histogram
}

func newMetrics() *Metrics {
	reg := &stats.Registry{}
	m := &Metrics{
		reg:         reg,
		Accepted:    reg.Counter("jobs_accepted"),
		Completed:   reg.Counter("jobs_completed"),
		Cancelled:   reg.Counter("jobs_cancelled"),
		Failed:      reg.Counter("jobs_failed"),
		Paused:      reg.Counter("jobs_paused"),
		Rejected:    reg.Counter("jobs_rejected"),
		Panics:      reg.Counter("job_panics"),
		Retries:     reg.Counter("job_retries"),
		SimCycles:   reg.Counter("sim_cycles_total"),
		CacheHits:   reg.Counter("cache_hits"),
		CacheMisses: reg.Counter("cache_misses"),

		SweepsAccepted:  reg.Counter("sweeps_accepted"),
		SweepsCompleted: reg.Counter("sweeps_completed"),
		SweepsCancelled: reg.Counter("sweeps_cancelled"),
		SweepsFailed:    reg.Counter("sweeps_failed"),
		SweepPoints:     reg.Counter("sweep_points_total"),

		LeasesExecuted: reg.Counter("cluster_leases_executed"),
		LeasePoints:    reg.Counter("cluster_lease_points_total"),

		tenantAccepted: make(map[string]*stats.Counter),
		tenantRejected: make(map[string]*stats.Counter),
	}
	reg.Func("job_queue_wait_seconds", func() any {
		m.histMu.Lock()
		defer m.histMu.Unlock()
		return m.queueWait.Clone()
	})
	reg.Func("job_run_seconds", func() any {
		m.histMu.Lock()
		defer m.histMu.Unlock()
		return m.runDur.Clone()
	})
	return m
}

// durationTime converts a wall duration to the histogram domain
// (clock.Time picoseconds), saturating instead of overflowing.
func durationTime(d time.Duration) clock.Time {
	if d < 0 {
		return 0
	}
	ns := d.Nanoseconds()
	if ns > (1<<62)/1000 {
		return clock.Time(1 << 62)
	}
	return clock.Time(ns * 1000)
}

// ObserveQueueWait records one job's submission→start wait.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.histMu.Lock()
	m.queueWait.Observe(durationTime(d))
	m.histMu.Unlock()
}

// ObserveRunDuration records one executed job's start→terminal wall time.
func (m *Metrics) ObserveRunDuration(d time.Duration) {
	m.histMu.Lock()
	m.runDur.Observe(durationTime(d))
	m.histMu.Unlock()
}

// Registry exposes the underlying registry so the server can attach
// gauges (queue depth, busy workers).
func (m *Metrics) Registry() *stats.Registry { return m.reg }
