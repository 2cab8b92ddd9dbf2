package fbdclient_test

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/simserver"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/pkg/fbdclient"
)

// blockSeed marks the grid points the fake simulator holds until their
// context ends, so a sweep of them runs until it is cancelled.
const blockSeed = 99

// TestSweepLifecycle drives both ends of a sweep's life through the public
// client against an in-process server: one sweep that runs to completion
// (results, view and event stream all agree) and one that is cancelled.
func TestSweepLifecycle(t *testing.T) {
	sim := simserver.New(simserver.Options{
		Workers: 2,
		Run: func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
			if cfg.Seed == blockSeed {
				<-ctx.Done()
				return system.Results{}, ctx.Err()
			}
			return system.Results{Benchmarks: benchmarks, Cores: len(benchmarks), IPC: []float64{float64(cfg.Seed) / 10}}, nil
		},
	})
	ts := httptest.NewServer(sim.Handler())
	defer ts.Close()
	client := &fbdclient.Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sw, err := client.SubmitSweep(ctx, fbdclient.SubmitSweepRequest{
		Configs:   []fbdclient.SweepConfig{{Preset: "fbd"}, {Preset: "fbd-ap"}},
		Workloads: []fbdclient.SweepWorkload{{Benchmarks: []string{"swim"}}},
		Seeds:     []int64{1, 2, 3},
		MaxInsts:  1000,
	})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	const total = 6

	var indices []int
	if err := client.SweepResults(ctx, sw.ID, true, func(p sweep.Point) error {
		if p.Err != "" {
			t.Errorf("point %d failed: %s", p.Index, p.Err)
		}
		indices = append(indices, p.Index)
		return nil
	}); err != nil {
		t.Fatalf("SweepResults: %v", err)
	}
	sort.Ints(indices)
	if len(indices) != total {
		t.Fatalf("followed %d points, want %d", len(indices), total)
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("point indices %v, want 0..%d once each", indices, total-1)
		}
	}

	view, err := client.Sweep(ctx, sw.ID)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if view.State != "done" || view.Progress.Total != total || view.Points != total || !view.Terminal() {
		t.Fatalf("finished sweep view %+v, want state done with %d points", view, total)
	}

	var events []fbdclient.Event
	if err := client.SweepEvents(ctx, sw.ID, 0, func(ev fbdclient.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("SweepEvents: %v", err)
	}
	points := 0
	for _, ev := range events {
		if ev.Type == "point" {
			points++
		}
	}
	last := events[len(events)-1]
	if last.Type != "end" || !strings.Contains(last.Data, "done") || points != total {
		t.Fatalf("event stream ends with %+v after %d point events, want end/done after %d", last, points, total)
	}

	blocked, err := client.SubmitSweep(ctx, fbdclient.SubmitSweepRequest{
		Configs:   []fbdclient.SweepConfig{{Preset: "fbd"}},
		Workloads: []fbdclient.SweepWorkload{{Benchmarks: []string{"swim"}}},
		Seeds:     []int64{blockSeed},
		MaxInsts:  1000,
	})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if blocked.State != "running" {
		t.Fatalf("blocked sweep submitted in state %q, want running", blocked.State)
	}
	cancelled, err := client.CancelSweep(ctx, blocked.ID)
	if err != nil {
		t.Fatalf("CancelSweep: %v", err)
	}
	if cancelled.State != "cancelled" || cancelled.Points != 0 {
		t.Fatalf("cancelled sweep view %+v, want state cancelled with no points", cancelled)
	}
}
