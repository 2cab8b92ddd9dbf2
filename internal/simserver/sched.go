package simserver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// The scheduler replaces the old pair of FIFO channels (main queue + analytic
// fast lane) with a two-level arbiter, mirroring how the paper's AMB
// prefetcher keeps latency-critical demand reads ahead of bulk fill traffic:
//
//   - Strict priority across four classes mapped onto the fidelity tiers:
//     analytic (0) > sampled-interactive (1) > cycle-accurate (2) > batch
//     sweep/lease points (3). A class is served only when every class above
//     it is empty.
//   - Weighted deficit round-robin across tenants inside each class: every
//     tenant flow is visited in ring order and may dispatch up to `weight`
//     items per visit, so a tenant flooding 10k submissions advances the
//     ring by at most its weight before the next tenant is served. With at
//     most W items dispatched per full ring rotation (W = sum of weights),
//     a tenant with weight w waits at most (W-w)/w service slots between
//     its own dispatches — the starvation-freedom bound DESIGN §15 argues.
//
// Workers pull with next(maxClass): the dedicated fast pool passes
// maxClass=classAnalytic and so never gets stuck behind queued
// cycle-accurate work; general workers pass classBatch and drain every
// class in priority order.

const (
	classAnalytic = iota // fidelity "analytic": microsecond closed-form estimates
	classSampled         // fidelity "sampled": interactive statistical runs
	classCycle           // fidelity "" / cycle-accurate jobs
	classBatch           // sweep points and cluster lease execution
	numClasses
)

// classNames are the wire names of the scheduler classes (jobView.Class,
// sweepView.Class, the OpenAPI enum).
var classNames = [numClasses]string{"analytic", "sampled", "cycle-accurate", "batch"}

// classForFidelity maps a job's fidelity tier onto its scheduler class.
func classForFidelity(fid string) int {
	switch fid {
	case "analytic":
		return classAnalytic
	case "sampled":
		return classSampled
	default:
		return classCycle
	}
}

// defaultTenant is the flow name used when authentication is disabled (or
// for internal traffic such as cluster lease execution without a tenant):
// single-tenant mode degenerates to plain priority scheduling.
const defaultTenant = ""

// ticket is a worker-slot loan for work that does not run on a worker
// goroutine itself (sweep points, cluster lease points): the holder
// enqueues it, a worker dispatches it by closing grant and then parks on
// done until the holder finishes. The claimed flag arbitrates the race
// between a dispatching worker and a holder abandoning the wait (context
// cancellation): whichever side wins the CAS owns the ticket's fate.
type ticket struct {
	grant   chan struct{}
	done    chan struct{}
	claimed atomic.Bool
}

// schedItem is one queue entry: exactly one of j or tk is non-nil.
type schedItem struct {
	j  *job
	tk *ticket
}

// tenantFlow is one tenant's FIFO inside one class, with its DRR deficit.
type tenantFlow struct {
	tenant  string
	weight  int
	items   []schedItem
	deficit int
	inRing  bool
}

// classQueue is one priority class: active tenant flows in round-robin
// ring order.
type classQueue struct {
	flows map[string]*tenantFlow
	ring  []*tenantFlow
	cur   int
}

// pop serves one item by weighted deficit round-robin, or reports the
// class empty. Flows in the ring are never empty, so a non-empty ring
// always serves: on a flow's turn its deficit is refreshed by its weight,
// each dispatch costs 1, and the ring advances when the deficit is spent.
func (cq *classQueue) pop() (schedItem, bool) {
	if len(cq.ring) == 0 {
		return schedItem{}, false
	}
	if cq.cur >= len(cq.ring) {
		cq.cur = 0
	}
	f := cq.ring[cq.cur]
	if f.deficit < 1 {
		f.deficit += f.weight
	}
	it := f.items[0]
	f.items[0] = schedItem{}
	f.items = f.items[1:]
	f.deficit--
	if len(f.items) == 0 {
		// Empty flows leave the ring and forfeit leftover deficit — the
		// standard DRR reset, so an idle tenant cannot bank credit.
		f.deficit = 0
		f.inRing = false
		cq.ring = append(cq.ring[:cq.cur], cq.ring[cq.cur+1:]...)
	} else if f.deficit < 1 {
		cq.cur++
	}
	return it, true
}

// push appends an item to the tenant's flow, entering it into the ring
// behind the current position if it was idle.
func (cq *classQueue) push(tenant string, weight int, it schedItem) {
	if cq.flows == nil {
		cq.flows = make(map[string]*tenantFlow)
	}
	f := cq.flows[tenant]
	if f == nil {
		f = &tenantFlow{tenant: tenant}
		cq.flows[tenant] = f
	}
	f.weight = weight
	if f.weight < 1 {
		f.weight = 1
	}
	f.items = append(f.items, it)
	if !f.inRing {
		f.inRing = true
		cq.ring = append(cq.ring, f)
	}
}

// queued counts items waiting in the class, optionally for one tenant.
func (cq *classQueue) queued(tenant string, all bool) int {
	n := 0
	for _, f := range cq.flows {
		if all || f.tenant == tenant {
			n += len(f.items)
		}
	}
	return n
}

var errSchedClosed = errors.New("scheduler closed")

// scheduler is the server's admission queue: strict priority across
// classes, WDRR across tenants within a class. Closing stops intake but
// next() keeps draining queued items, preserving the old channel-close
// semantics Shutdown relies on.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	classes [numClasses]classQueue
	// fastJobs / slowJobs count queued jobs per lane for the 429
	// queue-full check, preserving the old per-channel capacity split:
	// analytic jobs had their own buffer, everything else shared one.
	fastJobs int
	slowJobs int
	capacity int
	closed   bool
}

func newScheduler(capacity int) *scheduler {
	sc := &scheduler{capacity: capacity}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// offerJob enqueues a job, or reports the job's lane full (the caller
// answers 429). The caller checks s.closed under s.mu before calling, so
// an offer can never race the scheduler's close.
func (sc *scheduler) offerJob(j *job) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return false
	}
	count := &sc.slowJobs
	if j.class == classAnalytic {
		count = &sc.fastJobs
	}
	if *count >= sc.capacity {
		return false
	}
	*count++
	sc.classes[j.class].push(j.tenantName(), j.tenant.weight(), schedItem{j: j})
	sc.cond.Broadcast()
	return true
}

// enqueueTicket queues a worker-slot loan in the given class. After close
// it fails, and the holder runs ungated — shutdown must drain sweeps even
// though the workers that would serve their tickets are exiting.
func (sc *scheduler) enqueueTicket(tk *ticket, class int, tenant string, weight int) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return errSchedClosed
	}
	sc.classes[class].push(tenant, weight, schedItem{tk: tk})
	sc.cond.Broadcast()
	return nil
}

// next blocks until an item in classes [0, maxClass] is available and
// returns it; ok=false means the scheduler is closed and those classes are
// drained. Priority is strict: class c is served only when 0..c-1 are empty.
func (sc *scheduler) next(maxClass int) (schedItem, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		for c := 0; c <= maxClass; c++ {
			if it, ok := sc.classes[c].pop(); ok {
				if it.j != nil {
					if c == classAnalytic {
						sc.fastJobs--
					} else {
						sc.slowJobs--
					}
				}
				return it, true
			}
		}
		if sc.closed {
			return schedItem{}, false
		}
		sc.cond.Wait()
	}
}

// close stops intake and wakes every worker so they can drain and exit.
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// depths reports queued jobs per lane (the queue_depth / fast_queue_depth
// gauges and the /readyz saturation check).
func (sc *scheduler) depths() (fast, slow int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.fastJobs, sc.slowJobs
}

// queuedFor counts every queued item (jobs and tickets, all classes) for
// one tenant — the per-tenant dashboard panel and metrics gauge.
func (sc *scheduler) queuedFor(tenant string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for c := range sc.classes {
		n += sc.classes[c].queued(tenant, false)
	}
	return n
}

// queuedTotal counts every queued item across classes and tenants.
func (sc *scheduler) queuedTotal() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for c := range sc.classes {
		n += sc.classes[c].queued("", true)
	}
	return n
}

// acquireSlotFlow borrows a worker slot for out-of-band work (a sweep point,
// a cluster lease point) under a flow name, blocking until the fair-share
// arbiter grants it. Lease execution on a worker schedules under the tenant
// name the lease carries even when that tenant is not in the worker's own
// keyfile. The returned release must be called when the work ends. Slots
// are granted ungated when the scheduler is closed (shutdown drain) or when
// ctx is cancelled mid-wait (the caller's work will fail fast anyway and
// must not deadlock against exiting workers).
func (s *Server) acquireSlotFlow(ctx context.Context, name string, weight, class int) (release func()) {
	tk := &ticket{grant: make(chan struct{}), done: make(chan struct{})}
	if err := s.sched.enqueueTicket(tk, class, name, weight); err != nil {
		return func() {}
	}
	select {
	case <-tk.grant:
		return func() { close(tk.done) }
	case <-ctx.Done():
		if tk.claimed.CompareAndSwap(false, true) {
			// Abandoned before dispatch; the worker that pops this ticket
			// sees the claim and skips it.
			return func() {}
		}
		// A worker dispatched concurrently: take the slot, hand back a
		// real release so the parked worker resumes.
		<-tk.grant
		return func() { close(tk.done) }
	}
}

// serveTicket dispatches one granted slot from a worker goroutine: wake
// the holder, park until it finishes. A ticket abandoned by its holder is
// skipped without parking.
func (s *Server) serveTicket(tk *ticket) {
	if !tk.claimed.CompareAndSwap(false, true) {
		return
	}
	close(tk.grant)
	s.busy.Add(1)
	<-tk.done
	s.busy.Add(-1)
}

// lend marks a job's worker as parked in Cache.Do on key until the
// returned idempotent stop. Sweep and lease points take their worker slot
// inside their flight (leaderSlot), so a job parked behind such a leader
// would otherwise hold the very worker the leader waits for. While the loan
// lasts, leaders of key run on it instead of waiting (DESIGN §10).
func (s *Server) lend(key string) (stop func()) {
	s.loanMu.Lock()
	s.lenders[key]++
	for cancel := range s.borrowers[key] {
		(*cancel)()
	}
	delete(s.borrowers, key)
	s.loanMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.loanMu.Lock()
			if s.lenders[key]--; s.lenders[key] == 0 {
				delete(s.lenders, key)
			}
			s.loanMu.Unlock()
		})
	}
}

// leaderSlot is acquireSlotFlow at batch priority for the leader of key's
// flight, except that a job lending its worker on key (see lend) ends the
// wait at once: the leader then runs on the loan, slotless.
func (s *Server) leaderSlot(ctx context.Context, key, flow string, weight int) (release func()) {
	s.loanMu.Lock()
	if s.lenders[key] > 0 {
		s.loanMu.Unlock()
		return func() {}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.borrowers[key] == nil {
		s.borrowers[key] = make(map[*context.CancelFunc]bool)
	}
	s.borrowers[key][&cancel] = true
	s.loanMu.Unlock()
	release = s.acquireSlotFlow(ctx, flow, weight, classBatch)
	s.loanMu.Lock()
	if delete(s.borrowers[key], &cancel); len(s.borrowers[key]) == 0 {
		delete(s.borrowers, key)
	}
	s.loanMu.Unlock()
	return release
}
