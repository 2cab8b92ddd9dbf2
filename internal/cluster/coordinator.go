package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbdsim/internal/retry"
	"fbdsim/internal/sweep"
	"fbdsim/pkg/fbdclient"
)

// Executor dispatches one lease to one worker and calls commit for every
// point the worker streams back, in arrival order, on the dispatching
// goroutine. A nil return means the worker's stream ended cleanly — it
// does NOT promise every point was delivered (a shutting-down worker
// finishes what it started and closes the stream); the coordinator
// re-queues whatever is missing either way. The default is HTTPExecutor;
// tests substitute fakes to script worker failures.
type Executor interface {
	Execute(ctx context.Context, w fbdclient.WorkerInfo, lease fbdclient.Lease, commit func(sweep.Point)) error
}

// Options tunes the coordinator's failure detection. The zero value is
// production-ready; tests shrink the intervals.
type Options struct {
	// LeaseTTL is the no-progress deadline: a lease that has not
	// delivered a point for this long is cancelled and its remainder
	// re-queued (default 30s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the beat interval told to joining workers
	// (default 2s); HeartbeatTimeout marks a worker dead when its last
	// beat is older than this (default 3×HeartbeatEvery).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// BatchPoints caps the points per lease (default 16). Smaller leases
	// re-queue less on failure; larger ones amortize dispatch overhead.
	BatchPoints int
	// SpeculateAfter re-issues a stalled lease's remainder to an idle
	// worker when nothing else is pending (default LeaseTTL/2).
	SpeculateAfter time.Duration
	// DispatchAttempts caps Execute tries per lease (default 3), backed
	// off by Retry (default: 100ms doubling to 2s, full jitter).
	DispatchAttempts int
	Retry            retry.Policy
	// RingReplicas is the consistent-hash virtual-node count
	// (default DefaultRingReplicas).
	RingReplicas int
	// Executor dispatches leases (default: HTTPExecutor over the
	// workers' advertised URLs).
	Executor Executor
	// Logger receives membership and failure events (default: discard).
	Logger *slog.Logger
}

func (o Options) norm() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatEvery
	}
	if o.BatchPoints <= 0 {
		o.BatchPoints = 16
	}
	if o.SpeculateAfter <= 0 {
		o.SpeculateAfter = o.LeaseTTL / 2
	}
	if o.DispatchAttempts <= 0 {
		o.DispatchAttempts = 3
	}
	if o.Retry.Initial <= 0 && o.Retry.Max <= 0 {
		o.Retry = retry.Policy{Initial: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: true}
	}
	if o.RingReplicas <= 0 {
		o.RingReplicas = DefaultRingReplicas
	}
	if o.Executor == nil {
		o.Executor = &HTTPExecutor{}
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	return o
}

// workerState is the coordinator's view of one registered worker.
// All fields are guarded by Coordinator.mu.
type workerState struct {
	id       string
	url      string
	joined   time.Time
	lastBeat time.Time
	// failedAt records the last dispatch failure; the worker is only
	// eligible for new leases once a heartbeat lands after it (a dead
	// worker's clock never advances past its failure, so consistent
	// hashing cannot bounce re-queued points straight back to it).
	failedAt time.Time
	wasLive  bool // last evaluated liveness, for WorkersLost edges

	activeLeases  int
	pendingPoints int
	pointsDone    int64
}

// Coordinator owns cluster membership and executes sweeps by leasing
// their grid points to workers. One Coordinator serves many sweeps
// (Runs) concurrently; workers are shared across them.
type Coordinator struct {
	opts Options
	log  *slog.Logger

	mu        sync.Mutex
	workers   map[string]*workerState
	runs      map[*Run]struct{}
	nextLease int64

	workersJoined    atomic.Int64
	workersLost      atomic.Int64
	leasesGranted    atomic.Int64
	leasesExpired    atomic.Int64
	pointsRequeued   atomic.Int64
	pointsDuplicate  atomic.Int64
	leasesSpeculated atomic.Int64
}

// NewCoordinator builds a coordinator with no workers; workers arrive
// via Join (the /v1/cluster/join handler).
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.norm()
	return &Coordinator{
		opts:    opts,
		log:     opts.Logger,
		workers: make(map[string]*workerState),
		runs:    make(map[*Run]struct{}),
	}
}

// Join registers (or re-registers) a worker and wakes every run that may
// have points waiting for capacity. Re-joining clears any failure
// suspicion: the worker proved it is alive and reachable.
func (c *Coordinator) Join(id, url string) fbdclient.JoinResponse {
	now := time.Now()
	c.mu.Lock()
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{id: id, joined: now}
		c.workers[id] = w
		c.workersJoined.Add(1)
	}
	w.url = url
	w.lastBeat = now
	w.failedAt = time.Time{}
	w.wasLive = true
	for r := range c.runs {
		r.poke()
	}
	c.mu.Unlock()
	if ok {
		c.log.Info("cluster: worker re-joined", "worker", id, "url", url)
	} else {
		c.log.Info("cluster: worker joined", "worker", id, "url", url)
	}
	return fbdclient.JoinResponse{
		HeartbeatMS: c.opts.HeartbeatEvery.Milliseconds(),
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
	}
}

// Heartbeat records a worker's liveness beacon. It returns false when the
// worker is unknown (e.g. the coordinator restarted); the worker must
// re-join.
func (c *Coordinator) Heartbeat(id string) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	wasLive := c.liveLocked(w, now)
	w.lastBeat = now
	if !wasLive {
		// Revival: a failed or timed-out worker is eligible again; runs
		// with starved pending queues should re-grant.
		w.wasLive = true
		for r := range c.runs {
			r.poke()
		}
	}
	return true
}

// liveLocked evaluates w's liveness at now and records the live→dead
// edge in WorkersLost. Caller holds c.mu.
func (c *Coordinator) liveLocked(w *workerState, now time.Time) bool {
	live := now.Sub(w.lastBeat) <= c.opts.HeartbeatTimeout &&
		(w.failedAt.IsZero() || w.lastBeat.After(w.failedAt))
	if w.wasLive && !live {
		w.wasLive = false
		c.workersLost.Add(1)
		c.log.Warn("cluster: worker lost", "worker", w.id, "last_heartbeat", w.lastBeat)
	} else if live {
		w.wasLive = true
	}
	return live
}

func (c *Coordinator) infoLocked(w *workerState, now time.Time) fbdclient.WorkerInfo {
	return fbdclient.WorkerInfo{
		ID:            w.id,
		URL:           w.url,
		Joined:        w.joined,
		LastHeartbeat: w.lastBeat,
		Live:          c.liveLocked(w, now),
		ActiveLeases:  w.activeLeases,
		PendingPoints: w.pendingPoints,
		PointsDone:    w.pointsDone,
	}
}

// Workers returns the membership view, sorted by ID.
func (c *Coordinator) Workers() []fbdclient.WorkerInfo {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]fbdclient.WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, c.infoLocked(w, now))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// liveWorkers returns only the currently lease-eligible workers.
func (c *Coordinator) liveWorkers() []fbdclient.WorkerInfo {
	var out []fbdclient.WorkerInfo
	for _, w := range c.Workers() {
		if w.Live {
			out = append(out, w)
		}
	}
	return out
}

// LiveWorkerCount returns the number of lease-eligible workers (the
// readyz / metrics gauge).
func (c *Coordinator) LiveWorkerCount() int { return len(c.liveWorkers()) }

// Counters returns the failure-visibility counters.
func (c *Coordinator) Counters() fbdclient.Counters {
	return fbdclient.Counters{
		WorkersJoined:    c.workersJoined.Load(),
		WorkersLost:      c.workersLost.Load(),
		LeasesGranted:    c.leasesGranted.Load(),
		LeasesExpired:    c.leasesExpired.Load(),
		PointsRequeued:   c.pointsRequeued.Load(),
		PointsDuplicate:  c.pointsDuplicate.Load(),
		LeasesSpeculated: c.leasesSpeculated.Load(),
	}
}

func (c *Coordinator) workerInfo(id string) (fbdclient.WorkerInfo, bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return fbdclient.WorkerInfo{}, false
	}
	return c.infoLocked(w, now), true
}

// markWorkerFailed records a dispatch failure: the worker leaves the
// lease-eligible set until a heartbeat newer than the failure proves it
// reachable again.
func (c *Coordinator) markWorkerFailed(id string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		w.failedAt = now
		c.liveLocked(w, now)
	}
}

func (c *Coordinator) leaseIssued(worker string, points int) {
	c.leasesGranted.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[worker]; ok {
		w.activeLeases++
		w.pendingPoints += points
	}
}

func (c *Coordinator) leaseSettled(worker string, undelivered int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[worker]; ok {
		w.activeLeases--
		w.pendingPoints -= undelivered
	}
}

func (c *Coordinator) pointDelivered(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[worker]; ok {
		w.pendingPoints--
		w.pointsDone++
	}
}

func (c *Coordinator) addRun(r *Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs[r] = struct{}{}
}

func (c *Coordinator) removeRun(r *Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.runs, r)
}

// scanEvery is the run loop's housekeeping tick: a quarter of the
// tightest deadline, clamped to [5ms, 1s].
func (c *Coordinator) scanEvery() time.Duration {
	d := c.opts.HeartbeatTimeout
	if c.opts.LeaseTTL < d {
		d = c.opts.LeaseTTL
	}
	if c.opts.SpeculateAfter < d {
		d = c.opts.SpeculateAfter
	}
	d /= 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// Run is one sweep executing on the cluster. Build with NewRun, drive
// with Execute; Progress mirrors sweep.Engine.Progress for the serving
// layer's sweep views.
type Run struct {
	c       *Coordinator
	spec    sweep.Spec
	fp      string
	defs    []sweep.PointDef
	started atomic.Bool

	// Tenant is the submitting principal's name, stamped onto every lease
	// minted for this run so workers attribute the points to the right
	// tenant. Set (before Execute) by the serving layer in multi-tenant
	// mode; empty otherwise. Deliberately not part of sweep.Spec — the
	// spec's fingerprint identifies the simulation work, which is
	// tenant-neutral, and journals must stay replayable across tenants.
	Tenant string

	mu          sync.Mutex
	pending     []sweep.PointDef
	banned      map[int]map[string]bool // point index → workers that broke a lease on it
	outstanding map[string]*leaseState
	done        map[int]bool
	completed   int
	failed      int
	replayed    int
	lastStarve  time.Time // throttles the "no live workers" log

	parentCtx  context.Context
	journal    *sweep.Journal
	emit       func(sweep.Point)
	wake       chan struct{}
	dispatchWG sync.WaitGroup
}

// leaseState tracks one outstanding lease. Mutable fields are guarded by
// Run.mu.
type leaseState struct {
	lease        fbdclient.Lease
	worker       string
	info         fbdclient.WorkerInfo
	issued       time.Time
	lastProgress time.Time
	remaining    int
	cancel       context.CancelFunc
	expired      bool
	speculative  bool
	speculated   bool
}

// NewRun validates and expands spec into a cluster run. The spec's
// Parallel knob is ignored (parallelism is the cluster's width);
// ShareWarmup is worker-local and leases do not group warmups across
// workers.
func (c *Coordinator) NewRun(spec sweep.Spec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Run{
		c:           c,
		spec:        spec,
		fp:          spec.Fingerprint(),
		defs:        spec.Points(),
		banned:      make(map[int]map[string]bool),
		outstanding: make(map[string]*leaseState),
		done:        make(map[int]bool),
		wake:        make(chan struct{}, 1),
	}, nil
}

// Total returns the grid size.
func (r *Run) Total() int { return len(r.defs) }

// Progress returns the run's execution counters (cache hits and warmups
// happen worker-side and are not visible here).
func (r *Run) Progress() sweep.Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sweep.Progress{
		Total:     len(r.defs),
		Completed: r.completed,
		Failed:    r.failed,
		Replayed:  r.replayed,
	}
}

// Execute runs the sweep to completion: journal replay first (emitted in
// index order), then lease grant / failure-recovery rounds until every
// grid point has committed. It blocks until done or ctx ends; cancelled
// leases are awaited either way, so no dispatch goroutine outlives the
// call. Execute may be called once per Run.
func (r *Run) Execute(ctx context.Context, emit func(sweep.Point)) error {
	if r.started.Swap(true) {
		return errors.New("cluster: run already executed")
	}
	r.parentCtx = ctx
	r.emit = emit

	j, replayed, err := sweep.Resume(r.spec, r.defs)
	if err != nil {
		return err
	}
	if j != nil {
		r.journal = j
		defer j.Close()
	}
	// Replay committed points first, in index order.
	for _, p := range replayed {
		r.done[p.Index] = true
		r.completed++
		r.replayed++
		emit(p)
	}
	for _, def := range r.defs {
		if !r.done[def.Index] {
			r.pending = append(r.pending, def)
		}
	}

	r.c.addRun(r)
	defer r.c.removeRun(r)

	leaseCtx, cancelLeases := context.WithCancel(ctx)
	defer cancelLeases()
	tick := time.NewTicker(r.c.scanEvery())
	defer tick.Stop()

	for !r.finished() {
		r.grant(leaseCtx)
		r.expireAndSpeculate(leaseCtx)
		select {
		case <-ctx.Done():
			cancelLeases()
			r.dispatchWG.Wait()
			return ctx.Err()
		case <-r.wake:
		case <-tick.C:
		}
	}
	// Done: cancel surviving stragglers (speculation losers) and wait
	// them out so no dispatch goroutine outlives the run.
	cancelLeases()
	r.dispatchWG.Wait()
	return nil
}

func (r *Run) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.done) == len(r.defs)
}

// poke nudges the run loop without blocking (callers may hold locks).
func (r *Run) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// grant assigns every pending point to a live worker by consistent
// hashing over the point's result key, skipping workers that previously
// broke a lease on that point (the ban list — without it, a hung-but-
// heartbeating worker would receive its own expired points back forever).
func (r *Run) grant(ctx context.Context) {
	c := r.c
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) == 0 {
		return
	}
	workers := c.liveWorkers()
	if len(workers) == 0 {
		if time.Since(r.lastStarve) > 5*time.Second {
			r.lastStarve = time.Now()
			c.log.Warn("cluster: sweep starved, no live workers",
				"sweep", r.spec.Name, "pending", len(r.pending))
		}
		return
	}
	byID := make(map[string]fbdclient.WorkerInfo, len(workers))
	ids := make([]string, 0, len(workers))
	for _, w := range workers {
		byID[w.ID] = w
		ids = append(ids, w.ID)
	}
	ring := NewRing(c.opts.RingReplicas, ids)
	assign := make(map[string][]sweep.PointDef)
	for _, def := range r.pending {
		owner := ""
		for _, id := range ring.Sequence(def.Key) {
			if !r.banned[def.Index][id] {
				owner = id
				break
			}
		}
		if owner == "" {
			// Every live worker has broken a lease on this point; clear
			// the slate and try the hash owner again.
			delete(r.banned, def.Index)
			owner = ring.Owner(def.Key)
		}
		assign[owner] = append(assign[owner], def)
	}
	r.pending = r.pending[:0]
	owners := make([]string, 0, len(assign))
	for id := range assign {
		owners = append(owners, id)
	}
	sort.Strings(owners)
	for _, id := range owners {
		pts := assign[id]
		for s := 0; s < len(pts); s += c.opts.BatchPoints {
			e := s + c.opts.BatchPoints
			if e > len(pts) {
				e = len(pts)
			}
			r.issueLocked(ctx, byID[id], pts[s:e], false)
		}
	}
}

// issueLocked creates and dispatches one lease. Caller holds r.mu.
func (r *Run) issueLocked(ctx context.Context, w fbdclient.WorkerInfo, pts []sweep.PointDef, speculative bool) {
	c := r.c
	c.mu.Lock()
	c.nextLease++
	id := fmt.Sprintf("lease-%d", c.nextLease)
	c.mu.Unlock()
	lctx, cancel := context.WithCancel(ctx)
	now := time.Now()
	ls := &leaseState{
		lease:        fbdclient.Lease{ID: id, Sweep: r.spec.Name, Fingerprint: r.fp, Tenant: r.Tenant, Points: slices.Clone(pts)},
		worker:       w.ID,
		info:         w,
		issued:       now,
		lastProgress: now,
		remaining:    len(pts),
		cancel:       cancel,
		speculative:  speculative,
	}
	r.outstanding[id] = ls
	c.leaseIssued(w.ID, len(pts))
	if speculative {
		c.leasesSpeculated.Add(1)
	}
	c.log.Debug("cluster: lease granted", "lease", id, "worker", w.ID,
		"points", len(pts), "speculative", speculative)
	r.dispatchWG.Add(1)
	go r.dispatch(lctx, ls)
}

// dispatch drives one lease: Execute with capped jittered retries, then
// settlement (requeue of whatever the worker did not deliver).
func (r *Run) dispatch(ctx context.Context, ls *leaseState) {
	defer r.dispatchWG.Done()
	defer ls.cancel()
	c := r.c
	var err error
	for attempt := 1; ; attempt++ {
		// A retried Execute re-sends the whole lease; the worker answers
		// already-finished points from its cache or local journal and
		// commit dedups, so retries are idempotent.
		err = c.opts.Executor.Execute(ctx, ls.info, ls.lease, func(p sweep.Point) { r.commit(ls, p) })
		if err == nil || ctx.Err() != nil || attempt >= c.opts.DispatchAttempts {
			break
		}
		c.log.Warn("cluster: lease dispatch failed, retrying",
			"lease", ls.lease.ID, "worker", ls.worker, "attempt", attempt, "err", err)
		if c.opts.Retry.Sleep(ctx, attempt) != nil {
			break
		}
	}
	r.settle(ls, err)
}

// commit is the exactly-once point sink: the first delivery of a grid
// index claims it (under the run lock), journals it, and emits it; every
// later delivery — requeue race, speculative loser, dispatch retry — is
// counted as a duplicate and dropped.
func (r *Run) commit(ls *leaseState, p sweep.Point) {
	r.mu.Lock()
	if p.Index < 0 || p.Index >= len(r.defs) || r.defs[p.Index].Key != p.Key {
		r.mu.Unlock()
		r.c.log.Warn("cluster: dropping foreign point", "sweep", r.spec.Name,
			"index", p.Index, "worker", ls.worker)
		return
	}
	ls.lastProgress = time.Now()
	if ls.remaining > 0 {
		ls.remaining--
	}
	dup := r.done[p.Index]
	if !dup {
		r.done[p.Index] = true
		if p.Err == "" {
			r.completed++
		} else {
			r.failed++
		}
	}
	j := r.journal
	r.mu.Unlock()
	r.c.pointDelivered(ls.worker)
	if dup {
		r.c.pointsDuplicate.Add(1)
		return
	}
	// Journal before emit, outside the run lock (Journal serializes its
	// own appends): once a consumer sees a point, a crash cannot lose it.
	// Failed points are emitted but never journaled — a resumed sweep
	// re-runs them, mirroring the single-process engine.
	if p.Err == "" && j != nil {
		j.Append(p)
	}
	r.emit(p)
	r.poke()
}

// settle closes out a finished (or broken) lease: any point neither
// committed nor covered by another outstanding lease goes back on the
// pending queue, and a broken lease bans its worker from those points so
// consistent hashing cannot hand them straight back.
func (r *Run) settle(ls *leaseState, err error) {
	c := r.c
	r.mu.Lock()
	delete(r.outstanding, ls.lease.ID)
	var missing []sweep.PointDef
	for _, def := range ls.lease.Points {
		if !r.done[def.Index] && !r.coveredLocked(def.Index) {
			missing = append(missing, def)
		}
	}
	broken := err != nil || ls.expired
	requeued := false
	if len(missing) > 0 && r.parentCtx.Err() == nil {
		if broken {
			for _, def := range missing {
				if r.banned[def.Index] == nil {
					r.banned[def.Index] = make(map[string]bool)
				}
				r.banned[def.Index][ls.worker] = true
			}
		}
		r.pending = append(r.pending, missing...)
		c.pointsRequeued.Add(int64(len(missing)))
		requeued = true
	}
	if broken && (ls.expired || len(missing) > 0) && r.parentCtx.Err() == nil {
		c.leasesExpired.Add(1)
		c.log.Warn("cluster: lease broken, remainder requeued", "lease", ls.lease.ID,
			"worker", ls.worker, "requeued", len(missing), "expired", ls.expired, "err", err)
	}
	undelivered := ls.remaining
	r.mu.Unlock()
	c.leaseSettled(ls.worker, undelivered)
	if err != nil && len(missing) > 0 && r.parentCtx.Err() == nil {
		// A transport failure with undelivered points: keep the worker
		// out of the ring until a fresh heartbeat proves it reachable.
		c.markWorkerFailed(ls.worker)
	}
	if requeued {
		r.poke()
	}
}

// coveredLocked reports whether another outstanding, unexpired lease
// already carries the point. Caller holds r.mu.
func (r *Run) coveredLocked(idx int) bool {
	for _, ls := range r.outstanding {
		if ls.expired {
			continue
		}
		for _, d := range ls.lease.Points {
			if d.Index == idx {
				return true
			}
		}
	}
	return false
}

// expireAndSpeculate is the failure-detection scan: leases on dead
// workers or stalled past the TTL are cancelled (their settlement
// re-queues the remainder), and when nothing else is pending the slowest
// stragglers are speculatively re-issued to an idle worker — first
// delivery wins, the loser commits duplicates that are dropped.
func (r *Run) expireAndSpeculate(ctx context.Context) {
	c := r.c
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []fbdclient.WorkerInfo // fetched lazily, only if a speculation candidate appears
	for _, ls := range r.outstanding {
		if ls.expired {
			continue
		}
		w, known := c.workerInfo(ls.worker)
		dead := !known || !w.Live
		stalled := now.Sub(ls.lastProgress)
		if dead || stalled > c.opts.LeaseTTL {
			ls.expired = true
			ls.cancel()
			c.log.Warn("cluster: lease expired", "lease", ls.lease.ID, "worker", ls.worker,
				"dead", dead, "stalled", stalled.Truncate(time.Millisecond))
			continue
		}
		if len(r.pending) > 0 || ls.speculative || ls.speculated || stalled <= c.opts.SpeculateAfter {
			continue
		}
		if live == nil {
			live = c.liveWorkers()
		}
		var best *fbdclient.WorkerInfo
		for i := range live {
			if live[i].ID == ls.worker {
				continue
			}
			if best == nil || live[i].PendingPoints < best.PendingPoints {
				best = &live[i]
			}
		}
		if best == nil {
			continue
		}
		var missing []sweep.PointDef
		for _, d := range ls.lease.Points {
			if !r.done[d.Index] {
				missing = append(missing, d)
			}
		}
		if len(missing) == 0 {
			continue
		}
		ls.speculated = true
		c.log.Info("cluster: speculative re-issue of straggler lease",
			"lease", ls.lease.ID, "worker", ls.worker, "to", best.ID, "points", len(missing))
		r.issueLocked(ctx, *best, missing, true)
	}
}

// discardHandler is a slog.Handler that drops everything (slog.DiscardHandler
// arrives in go 1.24; this repo pins 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
