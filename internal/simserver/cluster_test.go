package simserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/cluster"
	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/pkg/fbdclient"
)

// detRun is a deterministic fake simulation whose results distinguish grid
// points, so byte-identity comparisons between distributed and local runs
// are meaningful.
func detRun(calls *atomic.Int64) RunFunc {
	return func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
		if calls != nil {
			calls.Add(1)
		}
		return system.Results{
			Benchmarks: benchmarks,
			Cores:      len(benchmarks),
			IPC:        []float64{float64(cfg.Seed) / 8},
			Cycles:     100_000 + cfg.Seed*1000,
			Reads:      cfg.Seed * 7,
		}, nil
	}
}

// testCoordOptions are cluster timings tight enough for unit tests.
func testCoordOptions() cluster.Options {
	return cluster.Options{
		LeaseTTL:         2 * time.Second,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
		BatchPoints:      2,
		SpeculateAfter:   time.Hour,
	}
}

const clusterSweepBody = `{
	"name": "cluster",
	"configs": [{"name": "fbd", "preset": "fbd"}, {"name": "ap", "preset": "fbd-ap"}],
	"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["mgrid"]}],
	"seeds": [1, 2, 3],
	"max_insts": 10000
}`

// startWorker brings up one worker server plus its agent loop, joined to
// the coordinator at coordURL.
func startWorker(t *testing.T, id, coordURL string, run RunFunc, journalDir string) *httptest.Server {
	t.Helper()
	s := New(Options{Workers: 2, Run: run, Role: "worker", JournalDir: journalDir})
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	agent := &cluster.Agent{ID: id, URL: ts.URL, Coordinator: coordURL}
	agentDone := make(chan struct{})
	go func() { defer close(agentDone); _ = agent.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-agentDone
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return ts
}

func waitLiveWorkers(t *testing.T, co *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for co.LiveWorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers became live", co.LiveWorkerCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchPoints reads a sweep's NDJSON result stream sorted by index.
func fetchPoints(t *testing.T, ts *httptest.Server, id string) []sweep.Point {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pts []sweep.Point
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Bytes())
		}
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, k int) bool { return pts[i].Index < pts[k].Index })
	return pts
}

// TestClusterSweepOverHTTP runs a sweep through a coordinator with two
// joined workers, end to end over real HTTP, and asserts the distributed
// result set is identical to the same sweep on a standalone server.
func TestClusterSweepOverHTTP(t *testing.T) {
	co := cluster.NewCoordinator(testCoordOptions())
	coord, cts := newTestServer(t, Options{Workers: 2, Coordinator: co, Run: detRun(nil)})
	if coord.opts.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", coord.opts.Role)
	}
	startWorker(t, "w0", cts.URL, detRun(nil), "")
	startWorker(t, "w1", cts.URL, detRun(nil), "")
	waitLiveWorkers(t, co, 2)

	status, v := postSweep(t, cts, clusterSweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", status)
	}
	final := waitSweepState(t, cts, v.ID, StateDone)
	if final.Progress.Completed != 12 || final.Progress.Failed != 0 {
		t.Fatalf("progress = %+v, want 12 completed", final.Progress)
	}
	got := fetchPoints(t, cts, v.ID)

	_, sts := newTestServer(t, Options{Workers: 2, Run: detRun(nil)})
	_, sv := postSweep(t, sts, clusterSweepBody)
	waitSweepState(t, sts, sv.ID, StateDone)
	want := fetchPoints(t, sts, sv.ID)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed points differ from standalone run\ngot:  %+v\nwant: %+v", got, want)
	}
	if n := co.Counters().LeasesGranted; n < 2 {
		t.Errorf("LeasesGranted = %d, want >= 2 (two workers, batch 2)", n)
	}
}

// TestClusterRoleChecks pins the role gating of the membership endpoints:
// 409 on a non-coordinator, 404 for an unknown worker's heartbeat.
func TestClusterRoleChecks(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: detRun(nil)})
	for _, path := range []string{"/v1/cluster/join", "/v1/cluster/heartbeat"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(`{"id":"w0","url":"http://x"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s on standalone = %d, want 409", path, resp.StatusCode)
		}
	}
	var cv clusterView
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()
	if cv.Role != "standalone" {
		t.Errorf("role = %q, want standalone", cv.Role)
	}

	co := cluster.NewCoordinator(testCoordOptions())
	_, cts := newTestServer(t, Options{Workers: 1, Coordinator: co, Run: detRun(nil)})
	resp, err = http.Post(cts.URL+"/v1/cluster/heartbeat", "application/json",
		bytes.NewReader([]byte(`{"id":"ghost"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown heartbeat = %d, want 404", resp.StatusCode)
	}
}

// postLease sends one lease to /v1/cluster/execute and decodes the NDJSON
// stream.
func postLease(t *testing.T, ts *httptest.Server, lease fbdclient.Lease) (int, []sweep.Point) {
	t.Helper()
	body, err := json.Marshal(lease)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cluster/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var pts []sweep.Point
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p sweep.Point
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad lease stream line: %v", err)
		}
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, k int) bool { return pts[i].Index < pts[k].Index })
	return resp.StatusCode, pts
}

// TestClusterExecuteValidation pins the lease admission checks.
func TestClusterExecuteValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Run: detRun(nil)})

	status, _ := postLease(t, ts, fbdclient.Lease{ID: "l1"})
	if status != http.StatusBadRequest {
		t.Errorf("empty lease = %d, want 400", status)
	}

	cfg := config.Default()
	cfg.MaxInsts = 10000
	cfg.CPU.Cores = 1
	def := sweep.PointDef{
		Index: 0, Config: "fbd", Workload: "swim", Seed: cfg.Seed,
		Cfg: cfg, Benchmarks: []string{"swim"},
		Key: "not-the-right-key",
	}
	status, _ = postLease(t, ts, fbdclient.Lease{ID: "l2", Sweep: "s", Points: []sweep.PointDef{def}})
	if status != http.StatusBadRequest {
		t.Errorf("key-mismatch lease = %d, want 400", status)
	}

	def.Key = fidelity.Key("", cfg, def.Benchmarks)
	def.Benchmarks = []string{"no-such-benchmark"}
	status, _ = postLease(t, ts, fbdclient.Lease{ID: "l3", Sweep: "s", Points: []sweep.PointDef{def}})
	if status != http.StatusBadRequest {
		t.Errorf("unknown-benchmark lease = %d, want 400", status)
	}
}

// TestClusterExecuteJournalReplay proves worker-local persistence: a lease
// executed by one server process is answered from the journal by a fresh
// process sharing the journal directory, without re-simulating.
func TestClusterExecuteJournalReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := config.Default()
	cfg.MaxInsts = 10000
	cfg.CPU.Cores = 1
	mkLease := func() fbdclient.Lease {
		lease := fbdclient.Lease{ID: "l1", Sweep: "replay", Fingerprint: "fp-replay-test"}
		for i, seed := range []int64{1, 2, 3} {
			c := cfg
			c.Seed = seed
			lease.Points = append(lease.Points, sweep.PointDef{
				Index: i, Config: "fbd", Workload: "swim", Seed: seed,
				Cfg: c, Benchmarks: []string{"swim"}, Key: fidelity.Key("", c, []string{"swim"}),
			})
		}
		return lease
	}

	var calls1 atomic.Int64
	s1 := New(Options{Workers: 2, Run: detRun(&calls1), JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	status, first := postLease(t, ts1, mkLease())
	if status != http.StatusOK || len(first) != 3 {
		t.Fatalf("first lease = %d with %d points, want 200 with 3", status, len(first))
	}
	if calls1.Load() != 3 {
		t.Fatalf("first lease simulated %d points, want 3", calls1.Load())
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var calls2 atomic.Int64
	s2, ts2 := newTestServer(t, Options{Workers: 2, Run: detRun(&calls2), JournalDir: dir})
	status, second := postLease(t, ts2, mkLease())
	if status != http.StatusOK {
		t.Fatalf("replayed lease = %d, want 200", status)
	}
	if calls2.Load() != 0 {
		t.Errorf("replayed lease simulated %d points, want 0 (journal replay)", calls2.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replayed points differ from originals\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if got := s2.metrics.LeasePoints.Value(); got != 3 {
		t.Errorf("cluster_lease_points_total = %d, want 3", got)
	}
}

// TestClusterSweepSurvivesWorkerChurn kills one worker's agent (heartbeats
// stop) mid-sweep while its server keeps serving, and checks the sweep
// still completes with the correct result set.
func TestClusterSweepSurvivesWorkerChurn(t *testing.T) {
	co := cluster.NewCoordinator(testCoordOptions())
	_, cts := newTestServer(t, Options{Workers: 2, Coordinator: co, Run: detRun(nil)})

	// Worker 0: joined through the normal helper, lives for the whole test.
	startWorker(t, "w0", cts.URL, detRun(nil), "")
	// Worker 1: manually managed agent we can kill.
	ws := New(Options{Workers: 2, Run: detRun(nil), Role: "worker"})
	wts := httptest.NewServer(ws.Handler())
	t.Cleanup(func() {
		wts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
	})
	actx, acancel := context.WithCancel(context.Background())
	agent := &cluster.Agent{ID: "w1", URL: wts.URL, Coordinator: cts.URL}
	agentDone := make(chan struct{})
	go func() { defer close(agentDone); _ = agent.Run(actx) }()
	waitLiveWorkers(t, co, 2)

	// Kill w1's heartbeats, then submit: the coordinator will mark it dead
	// shortly and the whole grid must converge onto w0.
	acancel()
	<-agentDone

	status, v := postSweep(t, cts, clusterSweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", status)
	}
	final := waitSweepState(t, cts, v.ID, StateDone)
	if final.Progress.Completed != 12 {
		t.Fatalf("progress = %+v, want 12 completed", final.Progress)
	}
	got := fetchPoints(t, cts, v.ID)
	if len(got) != 12 {
		t.Fatalf("got %d points, want 12", len(got))
	}
	for i, p := range got {
		if p.Index != i || p.Err != "" {
			t.Fatalf("point %d = %+v, want index %d with no error", i, p, i)
		}
	}
}
