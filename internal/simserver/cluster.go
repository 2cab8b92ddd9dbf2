package simserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"fbdsim/internal/cluster"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/sweep"
	"fbdsim/internal/system"
	"fbdsim/pkg/fbdclient"
)

// This file is the cluster half of the API — both sides of it. On a
// coordinator, /v1/cluster/join and /v1/cluster/heartbeat maintain worker
// membership and /v1/sweeps submissions are leased out to the registered
// workers (see sweeps.go). On a worker (or any server — the handler is
// role-agnostic), /v1/cluster/execute runs one lease's points through the
// point executor of local sweeps (sweep.ExecPoint) and the result cache
// jobs share too, streams them back as NDJSON, and journals them locally
// so a worker that loses its coordinator mid-lease still finishes,
// persists, and can answer the retried lease instantly after
// re-registering. GET /v1/cluster reports
// role, membership and the failure counters on every node.

// clusterView is the GET /v1/cluster body.
type clusterView struct {
	Role        string                 `json:"role"`
	LiveWorkers int                    `json:"live_workers"`
	Workers     []fbdclient.WorkerInfo `json:"workers,omitempty"`
	Counters    *fbdclient.Counters    `json:"counters,omitempty"`
	// LeasesExecuted / LeasePoints are this node's worker-side counters:
	// leases accepted by /v1/cluster/execute and points answered.
	LeasesExecuted int64 `json:"leases_executed"`
	LeasePoints    int64 `json:"lease_points"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	v := clusterView{
		Role:           s.opts.Role,
		LeasesExecuted: s.metrics.LeasesExecuted.Value(),
		LeasePoints:    s.metrics.LeasePoints.Value(),
	}
	if co := s.opts.Coordinator; co != nil {
		v.Workers = co.Workers()
		for _, wi := range v.Workers {
			if wi.Live {
				v.LiveWorkers++
			}
		}
		cnt := co.Counters()
		v.Counters = &cnt
	}
	writeJSON(w, http.StatusOK, v)
}

// requireCoordinator writes the 409 for membership calls on a
// non-coordinator node; nil return means the error was already sent.
func (s *Server) requireCoordinator(w http.ResponseWriter) *cluster.Coordinator {
	if s.opts.Coordinator == nil {
		writeError(w, http.StatusConflict, codeConflict,
			"this server is not a coordinator (role %q)", s.opts.Role)
		return nil
	}
	return s.opts.Coordinator
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	co := s.requireCoordinator(w)
	if co == nil {
		return
	}
	var req fbdclient.JoinRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "join requires id and url")
		return
	}
	writeJSON(w, http.StatusOK, co.Join(req.ID, req.URL))
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	co := s.requireCoordinator(w)
	if co == nil {
		return
	}
	var req fbdclient.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return
	}
	if !co.Heartbeat(req.ID) {
		// Unknown worker — the coordinator restarted or evicted it; 404
		// tells the agent to re-join.
		writeError(w, http.StatusNotFound, codeNotFound, "unknown worker %q; re-join", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// workerJournal is one fingerprint's lease-execution journal plus its
// replayed (and since-appended) points, the worker-local half of the
// exactly-once story: a point simulated here survives worker restarts and
// answers retried leases without re-simulating.
type workerJournal struct {
	mu  sync.Mutex
	j   *sweep.Journal
	pts map[int]sweep.Point
}

// lookup returns the journaled point for def, guarding against index
// collisions with the same key-match defense the engines apply.
func (wj *workerJournal) lookup(def sweep.PointDef) (sweep.Point, bool) {
	if wj == nil {
		return sweep.Point{}, false
	}
	wj.mu.Lock()
	defer wj.mu.Unlock()
	p, ok := wj.pts[def.Index]
	if !ok || p.Key != def.Key {
		return sweep.Point{}, false
	}
	return p, true
}

// record journals one fresh successful point (failed points are never
// journaled — a retried lease re-runs them, mirroring the sweep engine).
func (wj *workerJournal) record(p sweep.Point) {
	if wj == nil || p.Err != "" {
		return
	}
	wj.mu.Lock()
	defer wj.mu.Unlock()
	if _, ok := wj.pts[p.Index]; ok {
		return
	}
	wj.pts[p.Index] = p
	wj.j.Append(p)
}

// shortFP abbreviates a sweep fingerprint for file names.
func shortFP(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}

// workerJournal lazily opens (or returns) the lease journal for one sweep
// fingerprint. Returns (nil, nil) when journaling is disabled. A journal
// held by another process surfaces as sweep.ErrLocked.
func (s *Server) workerJournal(fp, name string) (*workerJournal, error) {
	if s.opts.JournalDir == "" || fp == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if wj, ok := s.clusterJournals[fp]; ok {
		return wj, nil
	}
	path := filepath.Join(s.opts.JournalDir, "worker-"+shortFP(fp)+".ndjson")
	j, replayed, err := sweep.OpenJournal(path, name, fp)
	if err != nil {
		return nil, err
	}
	wj := &workerJournal{j: j, pts: replayed}
	s.clusterJournals[fp] = wj
	return wj, nil
}

// closeClusterJournals fsyncs and releases every lease journal; called at
// the end of Shutdown, after lease executions have drained.
func (s *Server) closeClusterJournals() {
	s.mu.Lock()
	journals := s.clusterJournals
	s.clusterJournals = make(map[string]*workerJournal)
	s.mu.Unlock()
	for _, wj := range journals {
		wj.mu.Lock()
		wj.j.Close()
		wj.mu.Unlock()
	}
}

// validateLease applies the same admission checks a direct job or sweep
// submission would pass: known benchmarks, a valid effective config, the
// server's instruction-budget cap, and a result key that matches the
// point's content (a coordinator/worker version or data mismatch must fail
// the lease, not poison the cache).
func (s *Server) validateLease(lease *fbdclient.Lease) error {
	if lease.ID == "" {
		return errors.New("lease has no id")
	}
	if len(lease.Points) == 0 {
		return errors.New("lease has no points")
	}
	for _, def := range lease.Points {
		if err := validBenchmarks(def.Benchmarks); err != nil {
			return fmt.Errorf("point %d: %v", def.Index, err)
		}
		if s.opts.MaxInsts > 0 && def.Cfg.MaxInsts > s.opts.MaxInsts {
			return fmt.Errorf("point %d: max_insts %d exceeds server cap %d",
				def.Index, def.Cfg.MaxInsts, s.opts.MaxInsts)
		}
		if err := def.Cfg.Validate(); err != nil {
			return fmt.Errorf("point %d: %v", def.Index, err)
		}
		if _, err := fidelity.Parse(def.Fidelity); err != nil {
			return fmt.Errorf("point %d: %v", def.Index, err)
		}
		if key := fidelity.Key(fidelity.Tier(def.Fidelity), def.Cfg, def.Benchmarks); key != def.Key {
			return fmt.Errorf("point %d: key mismatch (lease %s, computed %s)", def.Index, def.Key, key)
		}
	}
	return nil
}

// handleClusterExecute runs one lease and streams its points back as
// NDJSON, one sweep.Point per line in completion order.
//
// Execution runs under the server's lifecycle context, not the request's:
// when the coordinator dies (or cancels the lease) mid-stream, the worker
// deliberately finishes the remaining points and journals them locally, so
// the re-issued lease after it re-registers answers from the journal
// instead of re-simulating. Delivered points are flushed line by line, so
// the coordinator commits every point that made it out before a crash.
func (s *Server) handleClusterExecute(w http.ResponseWriter, r *http.Request) {
	var lease fbdclient.Lease
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&lease); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding lease: %v", err)
		return
	}
	if err := s.validateLease(&lease); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		return
	}
	s.sweepWG.Add(1)
	s.mu.Unlock()
	defer s.sweepWG.Done()

	wj, err := s.workerJournal(lease.Fingerprint, lease.Sweep)
	if err != nil {
		if errors.Is(err, sweep.ErrLocked) {
			writeError(w, http.StatusConflict, codeConflict, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, "opening lease journal: %v", err)
		return
	}
	s.metrics.LeasesExecuted.Inc()
	s.log.Info("lease accepted", "lease", lease.ID, "sweep", lease.Sweep,
		"points", len(lease.Points), "tenant", lease.Tenant)

	// The lease carries the owning tenant's name from the coordinator;
	// resolve it against this worker's keyfile (when one is configured) so
	// lease execution is scheduled and accounted under the right flow.
	// Unknown names fall back to the default flow — the work still runs at
	// batch priority.
	tenant := s.tenants.ByName(lease.Tenant)
	tenantFlow := lease.Tenant
	if tenant != nil {
		tenantFlow = tenant.Name
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex // serializes point lines from parallel shards
	emit := func(p sweep.Point) {
		data, err := json.Marshal(p)
		if err != nil {
			return
		}
		wmu.Lock()
		defer wmu.Unlock()
		// A dead coordinator makes these writes fail; that is fine — the
		// results are journaled and the retried lease replays them.
		if _, err := w.Write(append(data, '\n')); err == nil && flusher != nil {
			flusher.Flush()
		}
	}

	sem := make(chan struct{}, s.opts.SweepParallel)
	var wg sync.WaitGroup
	for _, def := range lease.Points {
		if p, ok := wj.lookup(def); ok {
			s.metrics.LeasePoints.Inc()
			emit(p)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(def sweep.PointDef) {
			defer wg.Done()
			defer func() { <-sem }()
			// A lease point that leads its flight borrows a worker slot at
			// batch priority under the lease's tenant flow, exactly like a
			// local sweep point: leased bulk work cannot crowd out this
			// node's interactive jobs, and cache hits take no slot.
			p, _, err := sweep.ExecPoint(s.baseCtx, s.cache, def, func() (system.Results, error) {
				release := s.leaderSlot(s.baseCtx, def.Key, tenantFlow, tenant.weight())
				defer release()
				return s.run(s.baseCtx, def.Fidelity, def.Cfg, def.Benchmarks)
			})
			if err != nil {
				return // shutdown cancelled the run: emit nothing, journal nothing
			}
			wj.record(p)
			s.metrics.LeasePoints.Inc()
			emit(p)
		}(def)
	}
	wg.Wait()
}
