package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fbdsim/internal/config"
	"fbdsim/internal/system"
)

// FuzzSubmitDecode drives arbitrary POST /v1/jobs and POST /v1/sweeps
// bodies through the full handler, so the strict decoders and
// resolveConfig's config overlay see every mutation. The property: every
// response is 2xx, or 4xx with the {"error": {code, message}} envelope —
// never a 5xx, never a panic. Runs use instant fakes, so an accepted body
// costs no simulation.
//
//	go test -run '^$' -fuzz FuzzSubmitDecode -fuzztime 20s ./internal/simserver/
func FuzzSubmitDecode(f *testing.F) {
	for _, body := range []string{
		`{"benchmarks": ["swim"], "seed": 42, "max_insts": 10000}`,
		`{"benchmarks": ["swim"], "seed": 1, "trace": true}`,
		`{"benchmarks": ["swim"], "seed": 42, "max_insts": 10000, "fidelity": "sampled"}`,
		`{"preset": "fbd-ap", "benchmarks": ["swim", "applu"], "config": {"Seed": 3}, "retries": 2}`,
		`{"benchmarks": ["swim"], "max_insts": 2000000, "warmup_insts": 5000}`,
		`{"from_checkpoint": "job-1"}`,
	} {
		f.Add(false, []byte(body))
	}
	for _, body := range []string{
		clusterSweepBody,
		`{"name": "golden", "configs": [{"name": "fbd", "preset": "fbd"}],
			"workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}],
			"seeds": [42], "max_insts": 10000, "parallel": 1}`,
		`{"configs": [{"preset": "ddr2", "fidelity": "analytic"}, {"preset": "fbd-apfl", "config": {"Seed": 9}}],
			"workloads": [{"name": "pair", "benchmarks": ["swim", "mgrid"]}], "fidelity": "sampled", "warmup_insts": 100}`,
	} {
		f.Add(true, []byte(body))
	}
	goldens, _ := filepath.Glob(filepath.Join("testdata", "*.golden.*"))
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, data)
		f.Add(true, data)
	}

	instant := func(ctx context.Context, cfg config.Config, benchmarks []string) (system.Results, error) {
		return okResults(benchmarks), nil
	}
	instantTier := func(ctx context.Context, tier string, cfg config.Config, benchmarks []string) (system.Results, error) {
		return okResults(benchmarks), nil
	}
	newServer := func() *Server {
		return New(Options{Workers: 1, QueueDepth: 4, MaxSweepPoints: 16, Run: instant, RunTier: instantTier})
	}
	shutdown := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}
	// Every accepted body leaves a job or sweep record behind, so the
	// server is replaced periodically to keep a long fuzz run's heap flat.
	var (
		srv  *Server
		h    http.Handler
		uses int
	)
	f.Cleanup(func() {
		if srv != nil {
			shutdown(srv)
		}
	})
	f.Fuzz(func(t *testing.T, sweepRoute bool, body []byte) {
		if uses%256 == 0 {
			if srv != nil {
				shutdown(srv)
			}
			srv = newServer()
			h = srv.Handler()
		}
		uses++
		path := "/v1/jobs"
		if sweepRoute {
			path = "/v1/sweeps"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 200 && code < 300:
		case code >= 400 && code < 500:
			var env errorView
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil ||
				env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("POST %s %q = %d without the error envelope: %s", path, body, code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("POST %s %q = %d: %s", path, body, code, rec.Body.Bytes())
		}
	})
}
