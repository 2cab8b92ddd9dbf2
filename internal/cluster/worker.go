package cluster

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"fbdsim/internal/retry"
	"fbdsim/internal/sweep"
	"fbdsim/pkg/fbdclient"
)

// All coordinator↔worker HTTP in this package goes through the typed
// client in pkg/fbdclient: lease dispatch (HTTPExecutor) and the worker
// liveness loop (Agent) are thin orchestration over fbdclient.Client, so
// the cluster protocol has exactly one wire implementation.

// HTTPExecutor dispatches leases over POST /v1/cluster/execute and
// commits the worker's streamed NDJSON points. It is the production
// Executor of Coordinator.
type HTTPExecutor struct {
	// Client overrides the HTTP client (nil: fbdclient's shared default
	// with no timeout — lease lifetime is governed by the dispatch
	// context).
	Client *http.Client
	// ClusterKey authenticates lease dispatch to workers running in
	// multi-tenant mode (the shared cluster secret). Empty against
	// open-access workers.
	ClusterKey string
}

// Execute implements Executor. Points are committed as their lines
// arrive, so a stream severed mid-lease still commits its delivered
// prefix; a line without its newline (the worker died mid-record) is an
// error, never a half-parsed point. It never retries: lease re-issue is
// the coordinator's failure model.
func (e *HTTPExecutor) Execute(ctx context.Context, w fbdclient.WorkerInfo, lease fbdclient.Lease, commit func(sweep.Point)) error {
	api := &fbdclient.Client{
		BaseURL:    w.URL,
		APIKey:     e.ClusterKey,
		HTTPClient: e.Client,
	}
	return api.ExecuteLease(ctx, lease, commit)
}

// errUnknownWorker signals a heartbeat 404: the coordinator does not
// know us (it restarted, or evicted us); the agent re-joins immediately.
var errUnknownWorker = errors.New("coordinator does not recognize this worker")

// Agent is the worker side of the cluster protocol: it registers the
// local server with a coordinator and keeps heartbeating it. Lease
// execution itself is served by the local HTTP server's
// /v1/cluster/execute handler — the agent is only the liveness loop.
//
// The agent is deliberately stubborn: a lost coordinator (crash,
// partition) triggers re-join attempts with capped jittered backoff,
// forever, while the local server independently finishes and journals
// any lease it already accepted. That pairing is what lets a worker
// "finish its lease, journal locally, and re-register".
type Agent struct {
	// ID uniquely names this worker across the cluster (stable across
	// re-joins, unique per process).
	ID string
	// URL is the advertised base URL of the local server, where the
	// coordinator will dispatch leases.
	URL string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ClusterKey authenticates join/heartbeat calls to a coordinator
	// running in multi-tenant mode (the shared cluster secret).
	ClusterKey string
	// Client overrides the HTTP client (nil: fbdclient's shared default).
	Client *http.Client
	// Logger receives join/heartbeat transitions (nil: discard).
	Logger *slog.Logger
	// Retry backs off failed joins (zero value: 100ms doubling to 5s,
	// full jitter).
	Retry retry.Policy
	// HeartbeatEvery is the beat interval used until the coordinator
	// states its own in the join response (default 2s).
	HeartbeatEvery time.Duration
}

// api builds the typed client for the coordinator. MaxAttempts is 1:
// the agent owns its retry loop (join backoff, heartbeat strikes), and
// stacking the client's retries under it would stretch every failure
// detection window.
func (a *Agent) api() *fbdclient.Client {
	return &fbdclient.Client{
		BaseURL:     a.Coordinator,
		APIKey:      a.ClusterKey,
		HTTPClient:  a.Client,
		MaxAttempts: 1,
	}
}

// Run joins and heartbeats until ctx ends, re-joining whenever the
// coordinator is lost or forgets us. It always returns ctx's error.
func (a *Agent) Run(ctx context.Context) error {
	log := a.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	pol := a.Retry
	if pol.Initial <= 0 && pol.Max <= 0 {
		pol = retry.Policy{Initial: 100 * time.Millisecond, Max: 5 * time.Second, Jitter: true}
	}
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		interval, err := a.join(ctx)
		if err != nil {
			attempt++
			log.Warn("cluster: join failed, backing off",
				"coordinator", a.Coordinator, "attempt", attempt, "err", err)
			if pol.Sleep(ctx, attempt) != nil {
				return ctx.Err()
			}
			continue
		}
		attempt = 0
		log.Info("cluster: joined coordinator",
			"coordinator", a.Coordinator, "worker", a.ID, "heartbeat", interval)
		if err := a.beat(ctx, interval); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			log.Warn("cluster: heartbeat lost, re-joining", "err", err)
		}
	}
}

// join registers with the coordinator and returns the heartbeat interval
// it demands.
func (a *Agent) join(ctx context.Context) (time.Duration, error) {
	jr, err := a.api().Join(ctx, fbdclient.JoinRequest{ID: a.ID, URL: a.URL})
	if err != nil {
		return 0, err
	}
	interval := time.Duration(jr.HeartbeatMS) * time.Millisecond
	if interval <= 0 {
		interval = a.HeartbeatEvery
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return interval, nil
}

// beat heartbeats at interval until the context ends, the coordinator
// forgets us (re-join immediately), or three consecutive beats fail
// (coordinator unreachable; re-join with backoff).
func (a *Agent) beat(ctx context.Context, interval time.Duration) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		err := a.api().Heartbeat(ctx, a.ID)
		var apiErr *fbdclient.Error
		switch {
		case err == nil:
			fails = 0
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound:
			// The coordinator answered but does not know us: re-join now.
			return errUnknownWorker
		default:
			if fails++; fails >= 3 {
				return err
			}
		}
	}
}
