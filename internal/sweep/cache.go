package sweep

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"fbdsim/internal/system"
)

// Cache is a goroutine-safe LRU cache of completed simulation results with
// single-flight execution: concurrent Do calls for the same key run the
// simulation once and share the outcome. A max of 0 (or negative) means
// unbounded — the exp.Runner memoization mode; the serving path bounds it.
type Cache struct {
	mu     sync.Mutex
	max    int
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*flight

	// OnPanic, when set, is called once for every panic Do recovers, on
	// the leader's goroutine — never for the followers that share the
	// error. Set it before the cache is first used.
	OnPanic func(key string, err *PanicError)
}

type cacheItem struct {
	key string
	res system.Results
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	res  system.Results
	err  error
}

// NewCache builds a Cache holding at most max results (max <= 0: unbounded).
func NewCache(max int) *Cache {
	return &Cache{
		max:    max,
		order:  list.New(),
		items:  make(map[string]*list.Element),
		flight: make(map[string]*flight),
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (system.Results, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

func (c *Cache) getLocked(key string) (system.Results, bool) {
	el, ok := c.items[key]
	if !ok {
		return system.Results{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// Put stores res under key, evicting the least recently used entry when the
// cache is bounded and full.
func (c *Cache) Put(key string, res system.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, res)
}

func (c *Cache) putLocked(key string, res system.Results) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, res: res})
	for c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// PanicError is the error Do returns when fn panicked: the panic is
// recovered at the cache, the one fault boundary every simulation passes
// through, so a model bug fails one point or job instead of the process.
// Panics are deterministic model bugs; callers never retry them.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("simulation panicked: %v", e.Value) }

// inherited reports whether a flight's error belongs to the leader's
// context rather than to the key: a cancelled, expired or paused leader
// says nothing about what a follower with a live context would get.
func inherited(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, system.ErrPaused)
}

// Do returns the result for key, computing it with fn on a miss. Concurrent
// calls for the same key coalesce onto one fn execution. hit reports whether
// the result came from the cache or an in-flight computation rather than
// this call's own fn.
//
// Errors are never cached: a failed flight is forgotten, so a later Do with
// the same key re-runs fn instead of replaying the error. Followers of a
// flight that fails deterministically (including a recovered panic, as
// *PanicError) get the same error. Followers of a flight whose leader was
// cancelled, timed out or paused re-enter Do while their own ctx is live,
// and one of them becomes the new leader. A follower whose own ctx ends
// first returns ctx.Err() at once.
func (c *Cache) Do(ctx context.Context, key string, fn func() (system.Results, error)) (res system.Results, hit bool, err error) {
	c.mu.Lock()
	for {
		if res, ok := c.getLocked(key); ok {
			c.mu.Unlock()
			return res, true, nil
		}
		f, ok := c.flight[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if !inherited(f.err) {
				return f.res, true, f.err
			}
			if ctx.Err() != nil {
				return system.Results{}, false, ctx.Err()
			}
		case <-ctx.Done():
			return system.Results{}, false, ctx.Err()
		}
		c.mu.Lock()
	}
	f := &flight{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r}
			f.res, f.err = system.Results{}, pe
			res, err = f.res, f.err
			if c.OnPanic != nil {
				c.OnPanic(key, pe)
			}
		}
		c.mu.Lock()
		delete(c.flight, key)
		if f.err == nil {
			c.putLocked(key, f.res)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = fn()
	return f.res, false, f.err
}
