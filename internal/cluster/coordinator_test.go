package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/retry"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
	"fbdsim/pkg/fbdclient"
)

// testSpec builds a small deterministic grid (nConfigs × nWorkloads).
func testSpec(nConfigs, nWorkloads int) sweep.Spec {
	var cfgs []sweep.NamedConfig
	for i := 0; i < nConfigs; i++ {
		c := config.Default()
		c.Seed = int64(i + 1)
		cfgs = append(cfgs, sweep.NamedConfig{Name: fmt.Sprintf("cfg-%d", i), Config: c})
	}
	var wls []workload.Workload
	for i := 0; i < nWorkloads; i++ {
		wls = append(wls, workload.Workload{
			Name:       fmt.Sprintf("wl-%d", i),
			Benchmarks: []string{"swim", "mgrid"}[:i%2+1],
		})
	}
	return sweep.Spec{
		Name:        "cluster-test",
		Configs:     cfgs,
		Workloads:   wls,
		MaxInsts:    10_000,
		WarmupInsts: 1_000,
	}
}

// pointFor is the fake workers' deterministic "simulation": a pure
// function of the point definition, so any worker (or a duplicate
// delivery) produces the identical point.
func pointFor(d sweep.PointDef) sweep.Point {
	return sweep.Point{
		Index:    d.Index,
		Config:   d.Config,
		Workload: d.Workload,
		Seed:     d.Seed,
		Key:      d.Key,
		Results:  system.Results{Cycles: int64(d.Index)*1000 + 7, Reads: d.Cfg.Seed * 3},
	}
}

func deliverAll(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
	for _, d := range lease.Points {
		if err := ctx.Err(); err != nil {
			return err
		}
		commit(pointFor(d))
	}
	return nil
}

// fakeExec scripts per-worker behavior; unscripted workers deliver every
// leased point instantly.
type fakeExec struct {
	mu     sync.Mutex
	behave map[string]func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error
	leases map[string]int // worker → leases dispatched
}

func newFakeExec() *fakeExec {
	return &fakeExec{
		behave: make(map[string]func(context.Context, fbdclient.Lease, func(sweep.Point)) error),
		leases: make(map[string]int),
	}
}

func (f *fakeExec) set(worker string, fn func(context.Context, fbdclient.Lease, func(sweep.Point)) error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.behave[worker] = fn
}

func (f *fakeExec) leaseCount(worker string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leases[worker]
}

func (f *fakeExec) Execute(ctx context.Context, w fbdclient.WorkerInfo, lease fbdclient.Lease, commit func(sweep.Point)) error {
	f.mu.Lock()
	f.leases[w.ID]++
	fn := f.behave[w.ID]
	f.mu.Unlock()
	if fn == nil {
		return deliverAll(ctx, lease, commit)
	}
	return fn(ctx, lease, commit)
}

// testOpts are coordinator options shrunk to test time scales.
func testOpts(exec Executor) Options {
	return Options{
		LeaseTTL:         500 * time.Millisecond,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		BatchPoints:      2,
		SpeculateAfter:   time.Hour, // off unless a test opts in
		DispatchAttempts: 2,
		Retry:            retry.Policy{Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Executor:         exec,
	}
}

// keepAlive heartbeats the given workers every 20ms until the returned
// stop func is called.
func keepAlive(c *Coordinator, ids ...string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, id := range ids {
					c.Heartbeat(id)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// execute runs the sweep on c and returns the emitted points sorted by
// index.
func execute(t *testing.T, c *Coordinator, spec sweep.Spec) []sweep.Point {
	t.Helper()
	run, err := c.NewRun(spec)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var got []sweep.Point
	if err := run.Execute(ctx, func(p sweep.Point) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sort.Slice(got, func(i, k int) bool { return got[i].Index < got[k].Index })
	return got
}

// wantPoints is the full expected result set of spec under the fake
// workers' pointFor simulation.
func wantPoints(spec sweep.Spec) []sweep.Point {
	var out []sweep.Point
	for _, d := range spec.Points() {
		out = append(out, pointFor(d))
	}
	return out
}

func TestClusterSweepAllPointsExactlyOnce(t *testing.T) {
	exec := newFakeExec()
	c := NewCoordinator(testOpts(exec))
	c.Join("w0", "fake://w0")
	c.Join("w1", "fake://w1")
	defer keepAlive(c, "w0", "w1")()

	spec := testSpec(3, 2) // 6 points
	got := execute(t, c, spec)
	if want := wantPoints(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("emitted points differ from expected grid\ngot:  %+v\nwant: %+v", got, want)
	}
	if n := c.Counters().LeasesGranted; n < 3 { // 6 points / batch 2
		t.Fatalf("LeasesGranted = %d, want >= 3", n)
	}
	// Both workers should have seen work (the ring spreads 6 keys).
	if exec.leaseCount("w0")+exec.leaseCount("w1") < 3 {
		t.Fatalf("leases: w0=%d w1=%d", exec.leaseCount("w0"), exec.leaseCount("w1"))
	}
}

// A worker that delivers every point twice (requeue race, retried
// dispatch) must not double-emit: commit claims each index once.
func TestClusterDuplicateDeliveriesDropped(t *testing.T) {
	exec := newFakeExec()
	dup := func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
		for _, d := range lease.Points {
			commit(pointFor(d))
			commit(pointFor(d))
		}
		return nil
	}
	c := NewCoordinator(testOpts(exec))
	exec.set("w0", dup)
	exec.set("w1", dup)
	c.Join("w0", "fake://w0")
	c.Join("w1", "fake://w1")
	defer keepAlive(c, "w0", "w1")()

	spec := testSpec(2, 2)
	got := execute(t, c, spec)
	if want := wantPoints(spec); !reflect.DeepEqual(got, want) {
		t.Fatal("duplicate deliveries leaked into the emitted stream")
	}
	if n := c.Counters().PointsDuplicate; n != int64(len(got)) {
		t.Fatalf("PointsDuplicate = %d, want %d", n, len(got))
	}
}

// A hung worker — accepts leases, heartbeats happily, never delivers —
// must lose its leases to the no-progress TTL, and the ban list must
// push the requeued points to the healthy worker instead of hashing them
// straight back.
func TestClusterHungWorkerLeaseExpiresAndRequeues(t *testing.T) {
	exec := newFakeExec()
	exec.set("hung", func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
		<-ctx.Done()
		return ctx.Err()
	})
	opts := testOpts(exec)
	opts.LeaseTTL = 200 * time.Millisecond
	c := NewCoordinator(opts)
	c.Join("hung", "fake://hung")
	c.Join("ok", "fake://ok")
	defer keepAlive(c, "hung", "ok")()

	spec := testSpec(3, 2)
	got := execute(t, c, spec)
	if want := wantPoints(spec); !reflect.DeepEqual(got, want) {
		t.Fatal("sweep did not recover the hung worker's points")
	}
	ctr := c.Counters()
	if ctr.LeasesExpired == 0 {
		t.Fatalf("LeasesExpired = 0, want > 0 (counters: %+v)", ctr)
	}
	if ctr.PointsRequeued == 0 {
		t.Fatalf("PointsRequeued = 0, want > 0 (counters: %+v)", ctr)
	}
}

// A worker whose heartbeats stop (process death) must be declared dead
// and its leases' points requeued to the survivor.
func TestClusterWorkerDeathRequeues(t *testing.T) {
	exec := newFakeExec()
	dead := make(chan struct{})
	exec.set("victim", func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
		// Deliver the first point, then die mid-lease.
		if len(lease.Points) > 0 {
			commit(pointFor(lease.Points[0]))
		}
		<-dead
		return errors.New("connection reset")
	})
	opts := testOpts(exec)
	c := NewCoordinator(opts)
	c.Join("victim", "fake://victim")
	c.Join("ok", "fake://ok")
	stopVictim := keepAlive(c, "victim")
	defer keepAlive(c, "ok")()

	go func() {
		time.Sleep(150 * time.Millisecond)
		stopVictim() // heartbeats stop...
		close(dead)  // ...and the in-flight connection breaks
	}()

	spec := testSpec(3, 2)
	got := execute(t, c, spec)
	if want := wantPoints(spec); !reflect.DeepEqual(got, want) {
		t.Fatal("sweep did not recover the dead worker's points")
	}
	ctr := c.Counters()
	if ctr.PointsRequeued == 0 {
		t.Fatalf("PointsRequeued = 0, want > 0 (counters: %+v)", ctr)
	}
	if ctr.WorkersLost == 0 {
		t.Fatalf("WorkersLost = 0, want > 0 (counters: %+v)", ctr)
	}
}

// With an empty queue and one straggling lease, the coordinator must
// speculatively re-issue the remainder to an idle worker; the fast
// worker's delivery wins and the straggler's late duplicates are
// dropped.
func TestClusterSpeculativeReissue(t *testing.T) {
	exec := newFakeExec()
	release := make(chan struct{})
	exec.set("slow", func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		return deliverAll(ctx, lease, commit)
	})
	opts := testOpts(exec)
	opts.SpeculateAfter = 150 * time.Millisecond
	opts.LeaseTTL = time.Hour // isolate speculation from expiry
	c := NewCoordinator(opts)
	c.Join("slow", "fake://slow")
	c.Join("fast", "fake://fast")
	defer keepAlive(c, "slow", "fast")()
	defer close(release)

	spec := testSpec(3, 2)
	got := execute(t, c, spec)
	if want := wantPoints(spec); !reflect.DeepEqual(got, want) {
		t.Fatal("speculation changed the result set")
	}
	if n := c.Counters().LeasesSpeculated; n == 0 {
		t.Fatal("LeasesSpeculated = 0, want > 0")
	}
}

// A journaled cluster sweep interrupted and re-run must replay committed
// points without re-dispatching them, and the merged output must be
// bit-identical to an unbroken run.
func TestClusterJournalResumeExactlyOnce(t *testing.T) {
	spec := testSpec(3, 2) // 6 points
	ref := wantPoints(spec)
	journal := filepath.Join(t.TempDir(), "cluster.ndjson")

	// Phase 1: a worker that delivers only the first point of each lease
	// then breaks, under a single-attempt dispatch policy — some points
	// commit and journal, the rest would requeue; cancel the run after
	// the first few commits.
	exec1 := newFakeExec()
	var committed sync.WaitGroup
	committed.Add(2)
	var once sync.Once
	exec1.set("w0", func(ctx context.Context, lease fbdclient.Lease, commit func(sweep.Point)) error {
		commit(pointFor(lease.Points[0]))
		once.Do(func() { committed.Done(); committed.Done() })
		<-ctx.Done()
		return ctx.Err()
	})
	c1 := NewCoordinator(testOpts(exec1))
	c1.Join("w0", "fake://w0")
	stop1 := keepAlive(c1, "w0")
	run1, err := c1.NewRun(withJournal(spec, journal))
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		_ = run1.Execute(ctx1, func(sweep.Point) {})
	}()
	committed.Wait()
	cancel1()
	<-done1
	stop1()

	// Phase 2: fresh coordinator, healthy worker. Journal replays what
	// phase 1 committed; only the remainder is dispatched.
	exec2 := newFakeExec()
	c2 := NewCoordinator(testOpts(exec2))
	c2.Join("w1", "fake://w1")
	defer keepAlive(c2, "w1")()
	run2, err := c2.NewRun(withJournal(spec, journal))
	if err != nil {
		t.Fatalf("NewRun phase 2: %v", err)
	}
	var mu sync.Mutex
	var got []sweep.Point
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := run2.Execute(ctx2, func(p sweep.Point) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Execute phase 2: %v", err)
	}
	sort.Slice(got, func(i, k int) bool { return got[i].Index < got[k].Index })
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("resumed cluster sweep differs from reference\ngot:  %+v\nwant: %+v", got, ref)
	}
	prog := run2.Progress()
	if prog.Replayed == 0 {
		t.Fatal("phase 2 replayed nothing; journal was not used")
	}
	if prog.Completed != len(ref) {
		t.Fatalf("Completed = %d, want %d", prog.Completed, len(ref))
	}
}

// A run with no live workers waits instead of failing, and proceeds the
// moment one joins.
func TestClusterRunWaitsForFirstWorker(t *testing.T) {
	exec := newFakeExec()
	c := NewCoordinator(testOpts(exec))
	spec := testSpec(1, 2)
	run, err := c.NewRun(spec)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var mu sync.Mutex
	var got []sweep.Point
	done := make(chan error, 1)
	go func() {
		done <- run.Execute(ctx, func(p sweep.Point) {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
		})
	}()
	select {
	case err := <-done:
		t.Fatalf("run finished with no workers: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	c.Join("late", "fake://late")
	defer keepAlive(c, "late")()
	if err := <-done; err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(got) != run.Total() {
		t.Fatalf("emitted %d points, want %d", len(got), run.Total())
	}
}

func TestClusterExecuteTwiceRejected(t *testing.T) {
	c := NewCoordinator(testOpts(newFakeExec()))
	c.Join("w0", "fake://w0")
	defer keepAlive(c, "w0")()
	run, err := c.NewRun(testSpec(1, 1))
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	ctx := context.Background()
	if err := run.Execute(ctx, func(sweep.Point) {}); err != nil {
		t.Fatalf("first Execute: %v", err)
	}
	if err := run.Execute(ctx, func(sweep.Point) {}); err == nil {
		t.Fatal("second Execute succeeded, want error")
	}
}

func TestHeartbeatUnknownWorker(t *testing.T) {
	c := NewCoordinator(testOpts(newFakeExec()))
	if c.Heartbeat("ghost") {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	c.Join("real", "fake://real")
	if !c.Heartbeat("real") {
		t.Fatal("heartbeat for joined worker rejected")
	}
}

func withJournal(spec sweep.Spec, path string) sweep.Spec {
	spec.Journal = path
	return spec
}
