package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/stats"
	"fbdsim/internal/system"
	"fbdsim/internal/workload"
)

// fakeRun is a deterministic stand-in simulator: results are a pure
// function of (config, benchmarks), including a populated latency
// histogram, so bit-identity assertions exercise the full Results shape.
func fakeRun(_ context.Context, _ string, cfg config.Config, benchmarks []string) (system.Results, error) {
	h := &stats.Histogram{}
	mix := cfg.Seed*31 + cfg.MaxInsts + int64(len(benchmarks))*7
	for i := int64(1); i <= 64; i++ {
		h.Observe(clock.Time(mix*i%97_000 + 1))
	}
	ipc := make([]float64, len(benchmarks))
	committed := make([]int64, len(benchmarks))
	for i := range benchmarks {
		ipc[i] = float64(mix%11+int64(i)+1) / 4
		committed[i] = cfg.MaxInsts
	}
	return system.Results{
		Benchmarks:       append([]string(nil), benchmarks...),
		Cores:            len(benchmarks),
		IPC:              ipc,
		Committed:        committed,
		Cycles:           cfg.MaxInsts * 3,
		Reads:            mix % 5000,
		AvgReadLatencyNS: float64(mix%300) + 0.5,
		LatencyHist:      h,
	}, nil
}

// collect executes eng and returns its points sorted by Index — the merged
// result set in grid order — along with Execute's error.
func collect(ctx context.Context, eng *Engine) ([]Point, error) {
	var (
		mu  sync.Mutex
		pts []Point
	)
	err := eng.Execute(ctx, func(p Point) {
		mu.Lock()
		pts = append(pts, p)
		mu.Unlock()
	})
	sort.Slice(pts, func(i, k int) bool { return pts[i].Index < pts[k].Index })
	return pts, err
}

func testSpec(nConfigs, nWorkloads int) Spec {
	var cfgs []NamedConfig
	for i := 0; i < nConfigs; i++ {
		c := config.Default()
		if i%2 == 1 {
			c = config.WithAMBPrefetch(c)
		}
		c.Seed = int64(i + 1)
		cfgs = append(cfgs, NamedConfig{Name: fmt.Sprintf("cfg-%d", i), Config: c})
	}
	var wls []workload.Workload
	for i := 0; i < nWorkloads; i++ {
		wls = append(wls, workload.Workload{
			Name:       fmt.Sprintf("wl-%d", i),
			Benchmarks: []string{"swim", "mgrid"}[:i%2+1],
		})
	}
	return Spec{
		Name:        "test",
		Configs:     cfgs,
		Workloads:   wls,
		MaxInsts:    10_000,
		WarmupInsts: 1_000,
		Parallel:    2,
	}
}

func TestSpecValidate(t *testing.T) {
	ok := testSpec(2, 2)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no configs", func(s *Spec) { s.Configs = nil }, "no configs"},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "no workloads"},
		{"negative parallel", func(s *Spec) { s.Parallel = -4 }, "negative parallelism"},
		{"negative budget", func(s *Spec) { s.MaxInsts = -1 }, "negative instruction budget"},
		{"dup config", func(s *Spec) { s.Configs[1].Name = s.Configs[0].Name }, "duplicate config"},
		{"dup workload", func(s *Spec) { s.Workloads[1].Name = s.Workloads[0].Name }, "duplicate workload"},
		{"dup seed", func(s *Spec) { s.Seeds = []int64{3, 3} }, "duplicate seed"},
		{"empty benchmarks", func(s *Spec) { s.Workloads[0].Benchmarks = nil }, "no benchmarks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec(2, 2)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandOrderAndOverrides(t *testing.T) {
	s := testSpec(2, 2)
	s.Seeds = []int64{5, 9}
	defs := s.Points()
	if len(defs) != 8 {
		t.Fatalf("expanded %d points, want 8", len(defs))
	}
	// Config-major, then workload, then seed; indices dense.
	want := []struct {
		cfg, wl string
		seed    int64
	}{
		{"cfg-0", "wl-0", 5}, {"cfg-0", "wl-0", 9},
		{"cfg-0", "wl-1", 5}, {"cfg-0", "wl-1", 9},
		{"cfg-1", "wl-0", 5}, {"cfg-1", "wl-0", 9},
		{"cfg-1", "wl-1", 5}, {"cfg-1", "wl-1", 9},
	}
	for i, d := range defs {
		if d.Index != i || d.Config != want[i].cfg || d.Workload != want[i].wl || d.Seed != want[i].seed {
			t.Fatalf("point %d = {%d %s %s %d}, want {%d %s %s %d}",
				i, d.Index, d.Config, d.Workload, d.Seed, i, want[i].cfg, want[i].wl, want[i].seed)
		}
		if d.Cfg.MaxInsts != 10_000 || d.Cfg.WarmupInsts != 1_000 {
			t.Fatalf("point %d budgets not overridden: %+v", i, d.Cfg)
		}
		if d.Cfg.CPU.Cores != len(d.Benchmarks) {
			t.Fatalf("point %d cores %d != %d benchmarks", i, d.Cfg.CPU.Cores, len(d.Benchmarks))
		}
	}
}

func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	a := testSpec(2, 2)
	b := a
	b.Name = "other"
	b.Parallel = 7
	b.Journal = "/tmp/x"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint changed with execution-only knobs")
	}
	c := a
	c.MaxInsts = 20_000
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignored a budget change")
	}
}

func TestRunStreamsAllPoints(t *testing.T) {
	s := testSpec(3, 2)
	eng, err := New(s, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := collect(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Err != "" {
			t.Fatalf("point %d failed: %s", i, p.Err)
		}
		if p.Results.LatencyHist == nil {
			t.Fatalf("point %d lost its histogram", i)
		}
		if p.Key == "" {
			t.Fatalf("point %d has no key", i)
		}
	}
	pr := eng.Progress()
	if pr.Total != 6 || pr.Completed != 6 || pr.Failed != 0 || pr.Replayed != 0 {
		t.Fatalf("progress %+v", pr)
	}
}

// TestSingleFlightAcrossPoints: two config dimension values with identical
// content must simulate once; the second point is a cache hit.
func TestSingleFlightAcrossPoints(t *testing.T) {
	c := config.Default()
	s := Spec{
		Name: "dedup",
		Configs: []NamedConfig{
			{Name: "a", Config: c},
			{Name: "b", Config: c}, // same content, different label
		},
		Workloads:   []workload.Workload{{Name: "w", Benchmarks: []string{"swim"}}},
		MaxInsts:    5_000,
		WarmupInsts: 0,
		Parallel:    1,
	}
	var runs atomic.Int64
	eng, err := New(s, Options{Run: func(ctx context.Context, tier string, cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return fakeRun(ctx, tier, cfg, b)
	}})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := collect(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if runs.Load() != 1 {
		t.Fatalf("simulated %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(pts[0].Results, pts[1].Results) {
		t.Fatal("deduped points differ")
	}
	if eng.Progress().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", eng.Progress().CacheHits)
	}
}

func TestParallelBound(t *testing.T) {
	s := testSpec(4, 2)
	s.Parallel = 2
	var cur, peak atomic.Int64
	eng, err := New(s, Options{Run: func(ctx context.Context, tier string, cfg config.Config, b []string) (system.Results, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return fakeRun(ctx, tier, cfg, b)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds Parallel=2", got)
	}
}

func TestErrorPointsEmittedNotJournaled(t *testing.T) {
	dir := t.TempDir()
	s := testSpec(1, 2)
	s.Journal = filepath.Join(dir, "j.ndjson")
	boom := errors.New("bank exploded")
	eng, err := New(s, Options{Run: func(ctx context.Context, tier string, cfg config.Config, b []string) (system.Results, error) {
		if len(b) == 2 { // wl-1 has two benchmarks
			return system.Results{}, boom
		}
		return fakeRun(ctx, tier, cfg, b)
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Failed points still count as emitted: the sweep completes.
	pts, err := collect(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	var failed int
	for _, p := range pts {
		if p.Err != "" {
			failed++
			if !strings.Contains(p.Err, "bank exploded") {
				t.Fatalf("wrong error: %s", p.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed points, want 1", failed)
	}
	if pr := eng.Progress(); pr.Failed != 1 || pr.Completed != 1 {
		t.Fatalf("progress %+v", pr)
	}

	// The failed point must not be in the journal: a resumed sweep
	// re-attempts it.
	eng2, err := New(s, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := collect(context.Background(), eng2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts2 {
		if p.Err != "" {
			t.Fatalf("resumed point %d still failing: %s", p.Index, p.Err)
		}
	}
	if pr := eng2.Progress(); pr.Replayed != 1 {
		t.Fatalf("resumed progress %+v, want Replayed=1", pr)
	}
}

// TestKillAndResumeBitIdentical is the resume property test: a sweep
// killed after ≥1 completed shard and resumed from its journal yields a
// merged point set reflect.DeepEqual to an uninterrupted run of the same
// spec.
func TestKillAndResumeBitIdentical(t *testing.T) {
	base := testSpec(3, 2) // 6 points
	base.Seeds = []int64{11, 22}
	base.Parallel = 2 // 12 points total

	// Reference: uninterrupted, no journal.
	ref, err := New(base, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	want, err := collect(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 12 {
		t.Fatalf("reference run produced %d points", len(want))
	}

	for _, killAfter := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("killAfter=%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			s := base
			s.Journal = filepath.Join(dir, "sweep.ndjson")

			// First run: cancel the context once killAfter points have
			// completed — the moral equivalent of kill -9 mid-sweep
			// (the journal additionally tolerates torn writes, covered
			// by TestJournalTruncatedTail).
			ctx, cancel := context.WithCancel(context.Background())
			var done atomic.Int64
			killed, err := New(s, Options{Run: func(c context.Context, tier string, cfg config.Config, b []string) (system.Results, error) {
				res, err := fakeRun(c, tier, cfg, b)
				if done.Add(1) >= int64(killAfter) {
					cancel()
				}
				return res, err
			}})
			if err != nil {
				t.Fatal(err)
			}
			partial, err := collect(ctx, killed)
			cancel()
			if len(partial) == 0 {
				t.Fatal("interrupted run completed nothing — cannot exercise resume")
			}
			if len(partial) == 12 {
				t.Skip("interrupted run finished before cancellation took effect")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}

			// Resume: same spec, same journal, fresh engine.
			resumed, err := New(s, Options{Run: fakeRun})
			if err != nil {
				t.Fatal(err)
			}
			got, err := collect(context.Background(), resumed)
			if err != nil {
				t.Fatal(err)
			}

			if pr := resumed.Progress(); pr.Replayed < 1 {
				t.Fatalf("resume replayed nothing: %+v", pr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed sweep diverged from uninterrupted run\ngot  %d points\nwant %d points", len(got), len(want))
			}
		})
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s := testSpec(1, 1)
	s.Journal = filepath.Join(dir, "j.ndjson")
	eng, err := New(s, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(context.Background(), eng); err != nil {
		t.Fatal(err)
	}

	other := s
	other.MaxInsts = 99_999 // different grid identity, same journal path
	eng2, err := New(other, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(context.Background(), eng2); err == nil || !strings.Contains(err.Error(), "different sweep spec") {
		t.Fatalf("mismatched journal accepted: %v", err)
	}
}

// TestJournalTruncatedTail: a torn final record (the classic kill -9
// mid-write artifact) is discarded; everything before it replays.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := testSpec(2, 2)
	s.Journal = filepath.Join(dir, "j.ndjson")
	eng, err := New(s, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	want, err := collect(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the journal: chop the last record in half.
	b, err := os.ReadFile(s.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Journal, b[:len(b)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := New(s, Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(context.Background(), eng2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("torn-tail resume diverged from original run")
	}
	pr := eng2.Progress()
	if pr.Replayed != 3 || pr.Completed != 4 {
		t.Fatalf("progress %+v, want 3 replayed + 1 recomputed", pr)
	}
}

func TestStartTwiceRejected(t *testing.T) {
	eng, err := New(testSpec(1, 1), Options{Run: fakeRun})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(context.Background(), eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Execute(context.Background(), func(Point) {}); err == nil {
		t.Fatal("second Execute accepted")
	}
}

func TestCancelBeforeStartEmitsNothingFresh(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	eng, err := New(testSpec(2, 2), Options{Run: func(c context.Context, tier string, cfg config.Config, b []string) (system.Results, error) {
		runs.Add(1)
		return system.Results{}, c.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := collect(ctx, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if len(pts) != 0 {
		t.Fatalf("cancelled sweep emitted %d points", len(pts))
	}
}

// TestCanonicalizeIsIdentityOnRealRun pins the whole-pipeline property the
// resume guarantee needs: for a real (untraced) simulation, Canonicalize
// is the identity — nothing in Results is lossy under JSON.
func TestCanonicalizeIsIdentityOnRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	cfg := config.Default()
	cfg.MaxInsts = 5_000
	cfg.WarmupInsts = 1_000
	cfg.CPU.Cores = 1
	res, err := system.RunWorkloadContext(context.Background(), cfg, []string{"swim"})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonicalize(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, canon) {
		t.Fatal("canonicalization is not the identity on a real untraced run")
	}
}

// Concurrency smoke: many goroutines share one cache through Do.
func TestCacheConcurrentDo(t *testing.T) {
	c := NewCache(0)
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do(context.Background(), "k", func() (system.Results, error) {
				runs.Add(1)
				return system.Results{Cores: 4}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
}
