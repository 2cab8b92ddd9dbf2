package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbdsim/internal/config"
	"fbdsim/internal/fidelity"
	"fbdsim/internal/system"
)

// TestKeyDistinguishesInputs: the key a sweep point is cached and journaled
// under (fidelity.Key at the cycle-accurate tier) is deterministic and moves
// with the seed, the benchmark and the benchmark order.
func TestKeyDistinguishesInputs(t *testing.T) {
	key := func(cfg config.Config, benchmarks []string) string {
		return fidelity.Key(fidelity.CycleAccurate, cfg, benchmarks)
	}
	base := config.Default()
	other := base
	other.Seed = base.Seed + 1
	k1 := key(base, []string{"swim"})
	if k1 != key(base, []string{"swim"}) {
		t.Fatal("key not deterministic")
	}
	if k1 == key(other, []string{"swim"}) {
		t.Fatal("seed change did not change key")
	}
	if k1 == key(base, []string{"mgrid"}) {
		t.Fatal("benchmark change did not change key")
	}
	if key(base, []string{"swim", "mgrid"}) == key(base, []string{"mgrid", "swim"}) {
		t.Fatal("benchmark order did not change key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", system.Results{Cores: 1})
	c.Put("b", system.Results{Cores: 2})
	c.Get("a") // a is now most recent
	c.Put("c", system.Results{Cores: 3})
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 1000; i++ {
		c.Put(string(rune(i)), system.Results{Cores: i})
	}
	if c.Len() != 1000 {
		t.Fatalf("unbounded cache evicted: len=%d", c.Len())
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		calls++
		return system.Results{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		calls++
		return system.Results{Cores: 9}, nil
	})
	if err != nil || hit || res.Cores != 9 {
		t.Fatalf("retry: res=%+v hit=%v err=%v", res, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (error must not be cached)", calls)
	}
}

// TestCacheDoCoalescedWaiterSeesError: a Do call that finds an in-flight
// computation for its key observes that computation's error rather than
// running its own fn. White-box: the flight is planted and completed
// directly so the ordering is deterministic.
func TestCacheDoCoalescedWaiterSeesError(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	f := &flight{done: make(chan struct{}), err: boom}
	c.mu.Lock()
	c.flight["k"] = f
	c.mu.Unlock()
	close(f.done)

	_, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		t.Error("waiter ran its own fn despite in-flight computation")
		return system.Results{}, nil
	})
	if !hit {
		t.Error("coalesced waiter not reported as hit")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("waiter saw %v, want boom", err)
	}
}

// TestCacheDoWaiterContextCancel: a waiter whose context expires while the
// flight is still running gives up with ctx.Err().
func TestCacheDoWaiterContextCancel(t *testing.T) {
	c := NewCache(0)
	f := &flight{done: make(chan struct{})} // never completes
	c.mu.Lock()
	c.flight["k"] = f
	c.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (system.Results, error) {
		t.Error("cancelled waiter ran fn")
		return system.Results{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// doneProbe is a context that reports when Do first selects on it: Do
// reads ctx.Done only while following a flight, so a closed entered means
// the caller is parked behind the leader.
type doneProbe struct {
	context.Context
	once    sync.Once
	entered chan struct{}
}

func newDoneProbe(ctx context.Context) *doneProbe {
	return &doneProbe{Context: ctx, entered: make(chan struct{})}
}

func (p *doneProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.entered) })
	return p.Context.Done()
}

// TestCacheDoPanicIsOneFaultBoundary: a panicking fn fails its leader with
// *PanicError, a follower parked on the flight gets the very same error,
// OnPanic fires once, nothing is cached, and the next Do re-runs fn.
func TestCacheDoPanicIsOneFaultBoundary(t *testing.T) {
	c := NewCache(0)
	var hooks atomic.Int64
	c.OnPanic = func(key string, err *PanicError) {
		if key != "k" || err.Value != "model bug" {
			t.Errorf("OnPanic(%q, %v)", key, err)
		}
		hooks.Add(1)
	}
	started, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
			close(started)
			<-release
			panic("model bug")
		})
		if hit {
			t.Error("leader reported a hit")
		}
		leaderErr <- err
	}()
	<-started
	probe := newDoneProbe(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, hit, err := c.Do(probe, "k", func() (system.Results, error) {
			t.Error("follower ran its own fn")
			return system.Results{}, nil
		})
		if !hit {
			t.Error("follower not reported as hit")
		}
		followerErr <- err
	}()
	<-probe.entered
	close(release)

	lerr, ferr := <-leaderErr, <-followerErr
	var pe *PanicError
	if !errors.As(lerr, &pe) || !strings.Contains(lerr.Error(), "simulation panicked: model bug") {
		t.Fatalf("leader err = %v, want *PanicError", lerr)
	}
	if ferr != lerr {
		t.Errorf("follower err = %v, want the leader's %v", ferr, lerr)
	}
	if n := hooks.Load(); n != 1 {
		t.Errorf("OnPanic fired %d times, want 1", n)
	}
	res, hit, err := c.Do(context.Background(), "k", func() (system.Results, error) {
		return system.Results{Cores: 4}, nil
	})
	if err != nil || hit || res.Cores != 4 {
		t.Fatalf("after panic: res=%+v hit=%v err=%v, want a fresh run", res, hit, err)
	}
}

// TestCacheDoFollowerOutlivesCancelledLeader: cancellation belongs to the
// leader's context, not to the key. A follower whose own context is live
// re-enters Do, leads a new flight and succeeds.
func TestCacheDoFollowerOutlivesCancelledLeader(t *testing.T) {
	c := NewCache(0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (system.Results, error) {
			close(started)
			<-leaderCtx.Done()
			return system.Results{}, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started
	probe := newDoneProbe(context.Background())
	type outcome struct {
		res system.Results
		hit bool
		err error
	}
	follower := make(chan outcome, 1)
	var calls atomic.Int64
	go func() {
		res, hit, err := c.Do(probe, "k", func() (system.Results, error) {
			calls.Add(1)
			return system.Results{Cores: 7}, nil
		})
		follower <- outcome{res, hit, err}
	}()
	<-probe.entered
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	got := <-follower
	if got.err != nil || got.hit || got.res.Cores != 7 {
		t.Fatalf("follower: res=%+v hit=%v err=%v, want its own successful run", got.res, got.hit, got.err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("follower fn ran %d times, want 1", n)
	}
	if res, ok := c.Get("k"); !ok || res.Cores != 7 {
		t.Error("the follower's result was not cached")
	}
}

// TestCacheDoCancelledFollowerDoesNotLoop: a follower whose own context is
// already cancelled returns ctx.Err() at once, even when the flight it
// finds ended with an inherited error. White-box: the finished flight
// stays planted, so a follower that looped would spin forever.
func TestCacheDoCancelledFollowerDoesNotLoop(t *testing.T) {
	for _, inheritedErr := range []error{context.Canceled, context.DeadlineExceeded, system.ErrPaused} {
		c := NewCache(0)
		f := &flight{done: make(chan struct{}), err: inheritedErr}
		close(f.done)
		c.flight["k"] = f

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, hit, err := c.Do(ctx, "k", func() (system.Results, error) {
			t.Error("cancelled follower ran fn")
			return system.Results{}, nil
		})
		if hit || !errors.Is(err, context.Canceled) {
			t.Errorf("leader error %v: follower got hit=%v err=%v, want its own context.Canceled", inheritedErr, hit, err)
		}
	}
}
