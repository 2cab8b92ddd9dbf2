package simserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/pkg/fbdclient"
)

// The tests in this file drive the three doors a simulation can come in
// through — a job, a local sweep point, a leased cluster point — and check
// that all of them meet in the one fault boundary and the one coalescing
// path, sweep.Cache.Do.

// okResults is what the fakes below return for a successful run.
func okResults(benchmarks []string) system.Results {
	return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{1}}
}

// metricValue reads one counter from the JSON /metrics endpoint.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	v, ok := m[name].(float64)
	if !ok {
		t.Fatalf("metric %q = %v, want a number", name, m[name])
	}
	return v
}

// waitFollowers blocks until at least n goroutines are parked as followers
// inside sweep.Cache.Do (in its select, waiting on another call's flight).
// Goroutine stacks are the only place that state is visible from outside
// the sweep package.
func waitFollowers(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		parked := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			// A follower's innermost frame is Do itself, blocked in a select.
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[select") &&
				strings.HasPrefix(lines[1], "fbdsim/internal/sweep.(*Cache).Do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d followers parked in Cache.Do, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicFailsOnlyItsDoor injects a panicking simulation through each
// door. Each time the job or point fails with the panic, job_panics rises
// by exactly one, the server stays live and ready, and a later job runs to
// completion.
func TestPanicFailsOnlyItsDoor(t *testing.T) {
	const poison = 666
	run := func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
		if cfg.Seed == poison {
			panic("model corrupted its own state")
		}
		return okResults(benchmarks), nil
	}
	doors := []struct {
		name string
		// fail sends the poisoned request and returns the failure message
		// the job or point reported.
		fail func(t *testing.T, ts *httptest.Server) string
	}{
		{"job", func(t *testing.T, ts *httptest.Server) string {
			_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 666}`)
			return waitState(t, ts, v.ID, StateFailed).Error
		}},
		{"sweep point", func(t *testing.T, ts *httptest.Server) string {
			_, v := postSweep(t, ts, `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}], "seeds": [666]}`)
			waitSweepState(t, ts, v.ID, StateDone)
			pts := readSweepPoints(t, ts, v.ID, "")
			if len(pts) != 1 {
				t.Fatalf("sweep emitted %d points, want 1", len(pts))
			}
			return pts[0].Err
		}},
		{"lease point", func(t *testing.T, ts *httptest.Server) string {
			cfg := config.Default()
			cfg.Seed = poison
			cfg.CPU.Cores = 1
			def := sweep.PointDef{
				Config: "fbd", Workload: "swim", Seed: poison,
				Cfg: cfg, Benchmarks: []string{"swim"}, Key: fidelity.Key("", cfg, []string{"swim"}),
			}
			status, pts := postLease(t, ts, fbdclient.Lease{ID: "l1", Sweep: "s", Points: []sweep.PointDef{def}})
			if status != http.StatusOK || len(pts) != 1 {
				t.Fatalf("lease = %d with %d points, want 200 with 1", status, len(pts))
			}
			return pts[0].Err
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{Workers: 1, Run: run})

			if msg := door.fail(t, ts); !strings.Contains(msg, "simulation panicked") ||
				!strings.Contains(msg, "model corrupted") {
				t.Errorf("failure = %q, want the panic message", msg)
			}
			if n := metricValue(t, ts, "job_panics"); n != 1 {
				t.Errorf("job_panics = %v, want 1", n)
			}
			for _, path := range []string{"/healthz", "/readyz"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s after a panic = %d, want 200", path, resp.StatusCode)
				}
			}
			_, v, _ := postJob(t, ts, `{"benchmarks": ["swim"], "seed": 1}`)
			waitState(t, ts, v.ID, StateDone)
		})
	}
}

// TestSweepSurvivesCancelledLeaderSweep: two local sweeps share one grid
// point while it runs. Cancelling the sweep that leads it must not cost
// the other sweep that point: the follower re-runs it and its sweep ends
// done with every point emitted.
func TestSweepSurvivesCancelledLeaderSweep(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	run := func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // the leader's run lasts until its sweep is cancelled
			return system.Results{}, ctx.Err()
		}
		return okResults(benchmarks), nil
	}
	_, ts := newTestServer(t, Options{Workers: 2, Run: run})

	_, leader := postSweep(t, ts, `{"name": "leader", "configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}], "seeds": [1]}`)
	<-started
	_, other := postSweep(t, ts, `{"name": "other", "configs": [{"preset": "fbd"}],
		"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["mgrid"]}], "seeds": [1], "parallel": 1}`)
	waitFollowers(t, 1)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+leader.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitSweepState(t, ts, leader.ID, StateCancelled)

	final := waitSweepState(t, ts, other.ID, StateDone)
	pts := readSweepPoints(t, ts, other.ID, "")
	if len(pts) != 2 || final.Progress.Completed != 2 {
		t.Fatalf("other sweep emitted %d points (%d completed), want 2", len(pts), final.Progress.Completed)
	}
	for _, p := range pts {
		if p.Err != "" {
			t.Errorf("point %d failed: %s", p.Index, p.Err)
		}
	}
}

// TestJobSharesInFlightSweepPoint: a job submitted while an identical
// sweep point runs follows that run instead of simulating again.
func TestJobSharesInFlightSweepPoint(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 2, Run: fakeRun(&calls, started, release)})

	_, sv := postSweep(t, ts, `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}],
		"seeds": [5], "max_insts": 20000}`)
	<-started
	_, jv, _ := postJob(t, ts, `{"preset": "fbd", "benchmarks": ["swim"], "seed": 5, "max_insts": 20000}`)
	waitFollowers(t, 1)
	close(release)

	final := waitState(t, ts, jv.ID, StateDone)
	waitSweepState(t, ts, sv.ID, StateDone)
	pts := readSweepPoints(t, ts, sv.ID, "")
	if len(pts) != 1 || pts[0].Key != final.Key {
		t.Fatalf("sweep points %+v do not share the job's key %s", pts, final.Key)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("Run called %d times, want 1 (the job must follow the sweep point)", n)
	}
	if final.Attempts != 0 {
		t.Errorf("follower job reports %d attempts, want 0", final.Attempts)
	}
}

// TestJobLendsWorkerToSweepLeader: with one worker, a sweep point that
// leads its flight waits for that worker while a job identical to it is
// dispatched first and parks behind the flight. The parked job lends its
// worker, so the point runs, once, and both finish.
func TestJobLendsWorkerToSweepLeader(t *testing.T) {
	var calls, others atomic.Int64
	first := make(chan int64, 1) // the seed of the point holding the worker
	release := make(chan struct{})
	run := func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
		if calls.Add(1) == 1 {
			first <- cfg.Seed
			select {
			case <-release:
			case <-ctx.Done():
				return system.Results{}, ctx.Err()
			}
		} else {
			others.Add(1)
		}
		return okResults(benchmarks), nil
	}
	s, ts := newTestServer(t, Options{Workers: 1, SweepParallel: 2, Run: run})

	_, sv := postSweep(t, ts, `{"configs": [{"preset": "fbd"}], "workloads": [{"benchmarks": ["swim"]}],
		"seeds": [1, 2], "parallel": 2}`)
	// One point holds the only worker; the other leads its own flight and
	// queues a slot ticket behind it.
	other := 3 - <-first
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.queuedTotal() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the second sweep point never queued for a slot")
		}
		time.Sleep(time.Millisecond)
	}
	_, jv, _ := postJob(t, ts, fmt.Sprintf(`{"benchmarks": ["swim"], "seed": %d}`, other))
	close(release)

	waitState(t, ts, jv.ID, StateDone)
	waitSweepState(t, ts, sv.ID, StateDone)
	if n := others.Load(); n != 1 {
		t.Errorf("the shared point ran %d times, want 1", n)
	}
}
