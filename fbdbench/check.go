package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"fbdsim/internal/system"
)

// checkCase is one simulation of the fixed check set. The set does not
// depend on the workload seed: its Results digests are committed in
// checkset.json, and a change that only speeds the simulator up must leave
// every one of them identical.
type checkCase struct {
	simRequest
	Digest string `json:"digest"`
}

// checkRequests lists the check set: every preset the workloads use, on
// three mixes and seeds, at budgets small enough to replay in well under a
// second outside the timed window.
func checkRequests() []simRequest {
	mixes := [][]string{
		{"wupwise", "swim", "mgrid", "applu"},
		{"mcf", "art"},
		{"vpr", "equake"},
	}
	var out []simRequest
	for _, preset := range servePresets {
		for i, mix := range mixes {
			out = append(out, simRequest{Preset: preset, Benchmarks: mix,
				Seed: int64(i + 1), Warmup: 5_000, MaxInsts: 30_000})
		}
	}
	return out
}

//go:embed checkset.json
var checksetJSON []byte

func loadCheckset() ([]checkCase, error) {
	var cs []checkCase
	if err := json.Unmarshal(checksetJSON, &cs); err != nil {
		return nil, fmt.Errorf("checkset.json: %w", err)
	}
	if len(cs) != len(checkRequests()) {
		return nil, fmt.Errorf("checkset.json holds %d cases, the check set has %d; regenerate it", len(cs), len(checkRequests()))
	}
	return cs, nil
}

// digest is the SHA-256 of a Results' JSON encoding: every simulated
// statistic, including the full latency histogram.
func digest(r system.Results) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runDirect runs one simulation in-process, as fbdsim.Run does.
func runDirect(ctx context.Context, req simRequest) (system.Results, error) {
	out, err := simulate(ctx, req, nil, 0)
	return out.res, err
}

// regenCheckset reruns the check set and writes its digests to path.
func regenCheckset(ctx context.Context, path string) error {
	var cs []checkCase
	for _, req := range checkRequests() {
		res, err := runDirect(ctx, req)
		if err != nil {
			return err
		}
		d, err := digest(res)
		if err != nil {
			return err
		}
		cs = append(cs, checkCase{simRequest: req, Digest: d})
	}
	b, err := json.MarshalIndent(cs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// replayCheckset runs every check case through run and returns how many
// cases mismatched their committed digest, with a message for each.
func replayCheckset(ctx context.Context, run func(context.Context, simRequest) (system.Results, error)) (failed int, msgs []string) {
	cs, err := loadCheckset()
	if err != nil {
		return len(checkRequests()), []string{err.Error()}
	}
	for i, want := range checkRequests() {
		c := cs[i]
		if fmt.Sprint(c.simRequest) != fmt.Sprint(want) {
			failed++
			msgs = append(msgs, fmt.Sprintf("check case %d: checkset.json has %+v, want %+v", i, c.simRequest, want))
			continue
		}
		res, err := run(ctx, c.simRequest)
		var d string
		if err == nil {
			d, err = digest(res)
		}
		switch {
		case err != nil:
			failed++
			msgs = append(msgs, fmt.Sprintf("check case %d: %v", i, err))
		case d != c.Digest:
			failed++
			msgs = append(msgs, fmt.Sprintf("check case %d (%s %v seed %d): results digest %s, committed %s",
				i, c.Preset, c.Benchmarks, c.Seed, d[:12], c.Digest[:min(12, len(c.Digest))]))
		}
	}
	return failed, msgs
}

// checkSim validates one simulation's Results against its request.
func checkSim(req simRequest, r system.Results) error {
	if len(r.Committed) != len(req.Benchmarks) || len(r.IPC) != len(req.Benchmarks) {
		return fmt.Errorf("results cover %d cores, want %d", len(r.Committed), len(req.Benchmarks))
	}
	var most int64
	for _, c := range r.Committed {
		most = max(most, c)
	}
	ipc := r.TotalIPC()
	switch {
	case most < req.MaxInsts:
		return fmt.Errorf("committed %d instructions on the busiest core, budget %d", most, req.MaxInsts)
	case r.Cycles <= 0 || r.Reads <= 0:
		return fmt.Errorf("no cycles (%d) or reads (%d) measured", r.Cycles, r.Reads)
	case ipc <= 0 || math.IsNaN(ipc) || math.IsInf(ipc, 0):
		return fmt.Errorf("total IPC %v", ipc)
	case r.AvgReadLatencyNS <= 0:
		return fmt.Errorf("mean read latency %v ns", r.AvgReadLatencyNS)
	}
	return nil
}
