package ambcache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
)

// refCache is the linear-scan AMB cache the indexed table replaced, with
// the channel-side map that held in-flight landing times beside it. It is
// the reference model the differential test compares the cache against.
type refCache struct {
	sets, ways int
	repl       config.Replacement
	data       []entry
	tick       int64
	inflight   map[int64]clock.Time
	Stats      Stats
}

func newRef(lines, assoc int, repl config.Replacement) *refCache {
	ways := assoc
	if assoc == config.FullAssoc || assoc >= lines {
		ways = lines
	}
	return &refCache{sets: lines / ways, ways: ways, repl: repl,
		data: make([]entry, lines), inflight: map[int64]clock.Time{}}
}

func (c *refCache) set(localID int64) []entry {
	i := int(localID & int64(c.sets-1))
	return c.data[i*c.ways : (i+1)*c.ways]
}

func refFind(set []entry, lineAddr int64) int {
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			return i
		}
	}
	return -1
}

func (c *refCache) LookupRead(lineAddr, localID int64) (clock.Time, bool) {
	c.Stats.Reads++
	set := c.set(localID)
	i := refFind(set, lineAddr)
	if i < 0 {
		return 0, false
	}
	c.tick++
	set[i].use = c.tick
	c.Stats.Hits++
	return c.inflight[lineAddr], true
}

func (c *refCache) Contains(lineAddr, localID int64) bool {
	return refFind(c.set(localID), lineAddr) >= 0
}

func (c *refCache) InsertPrefetch(lineAddr, localID int64, landing clock.Time) (int64, bool) {
	c.Stats.Prefetched++
	evicted, was := c.insert(lineAddr, localID)
	if was {
		delete(c.inflight, evicted)
	}
	if landing != 0 {
		c.inflight[lineAddr] = landing
	} else {
		delete(c.inflight, lineAddr)
	}
	return evicted, was
}

func (c *refCache) insert(lineAddr, localID int64) (evicted int64, wasEvicted bool) {
	set := c.set(localID)
	c.tick++
	free, victim := -1, 0
	for i := range set {
		switch {
		case !set[i].valid:
			if free < 0 {
				free = i
			}
		case set[i].addr == lineAddr:
			set[i].use = c.tick
			return 0, false
		case c.older(set[i], set[victim]):
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	} else {
		evicted, wasEvicted = set[victim].addr, true
		c.Stats.Evictions++
	}
	set[victim] = entry{addr: lineAddr, valid: true, seq: c.tick, use: c.tick}
	return evicted, wasEvicted
}

func (c *refCache) older(a, b entry) bool {
	if c.repl == config.LRU {
		return a.use < b.use
	}
	return a.seq < b.seq
}

func (c *refCache) drop(lineAddr, localID int64) bool {
	set := c.set(localID)
	i := refFind(set, lineAddr)
	if i >= 0 {
		set[i].valid = false
		delete(c.inflight, lineAddr)
	}
	return i >= 0
}

func (c *refCache) Invalidate(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Invalidations++
	return true
}

func (c *refCache) Scrub(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Scrubs++
	return true
}

func (c *refCache) Land(horizon clock.Time) {
	for line, t := range c.inflight {
		if t <= horizon {
			delete(c.inflight, line)
		}
	}
}

// sameState fails t unless c and ref hold the same frames (address,
// validity and both order keys), tick, statistics and in-flight landing
// times.
func sameState(t *testing.T, step int, c *Cache, ref *refCache) {
	t.Helper()
	for i := range ref.data {
		g, w := c.data[i], ref.data[i]
		if g.addr != w.addr || g.valid != w.valid || g.seq != w.seq || g.use != w.use {
			t.Fatalf("step %d: frame %d = {%#x %v %d %d}, reference {%#x %v %d %d}",
				step, i, g.addr, g.valid, g.seq, g.use, w.addr, w.valid, w.seq, w.use)
		}
	}
	if c.tick != ref.tick || c.Stats != ref.Stats {
		t.Fatalf("step %d: tick %d stats %+v, reference tick %d stats %+v", step, c.tick, c.Stats, ref.tick, ref.Stats)
	}
	got := c.AppendInFlight(nil)
	slices.SortFunc(got, byLine)
	var want []InFlight
	for line, at := range ref.inflight {
		want = append(want, InFlight{Line: line, Landing: at})
	}
	slices.SortFunc(want, byLine)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: in flight %v, reference %v", step, got, want)
	}
	if n := len(ref.data) - c.Occupancy(); n != freeFrames(ref.data) {
		t.Fatalf("step %d: %d free frames, reference %d", step, n, freeFrames(ref.data))
	}
}

func byLine(a, b InFlight) int { return cmp.Compare(a.Line, b.Line) }

func freeFrames(data []entry) int {
	n := 0
	for _, e := range data {
		if !e.valid {
			n++
		}
	}
	return n
}

// roundTrip snapshots c, restores it into a fresh cache with its landing
// times reapplied, as the owning channel does, and returns the copy: from
// then on the copy runs on an index, free bitmap and order queues rebuilt
// from the frames.
func roundTrip(t *testing.T, c *Cache, lines, assoc int, repl config.Replacement) *Cache {
	t.Helper()
	w := snapshot.NewWriter("ambcache")
	c.Snapshot(w.Section("amb"))
	r, err := snapshot.Open(w.Finish(), "ambcache")
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("amb")
	if err != nil {
		t.Fatal(err)
	}
	out := New(lines, assoc, repl)
	out.Restore(d)
	if err := d.Done(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, p := range c.AppendInFlight(nil) {
		if !out.SetLanding(p.Line, p.Landing) {
			t.Fatalf("restored cache lost in-flight line %#x", p.Line)
		}
	}
	return out
}

// TestIndexedMatchesLinearScan drives the indexed cache and the linear-scan
// reference with the same random operation sequences and compares every
// return value and, after every operation, the whole observable state. The
// geometries cover direct-mapped, set-associative and fully associative
// caches, and free bitmaps of one word, several words and a partial last
// word.
func TestIndexedMatchesLinearScan(t *testing.T) {
	geoms := []struct{ lines, assoc int }{
		{8, 1}, {16, 4}, {64, config.FullAssoc}, {256, 64}, {256, 128}, {200, config.FullAssoc},
	}
	for _, g := range geoms {
		for _, repl := range []config.Replacement{config.FIFO, config.LRU} {
			t.Run(fmt.Sprintf("%d-lines-assoc-%d-%v", g.lines, g.assoc, repl), func(t *testing.T) {
				differential(t, g.lines, g.assoc, repl, int64(g.lines*31+g.assoc)+int64(repl))
			})
		}
	}
}

func differential(t *testing.T, lines, assoc int, repl config.Replacement, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c, ref := New(lines, assoc, repl), newRef(lines, assoc, repl)
	var now clock.Time
	for step := 0; step < 20_000; step++ {
		// Half the traffic goes to a hot range a quarter of the capacity
		// wide, so LRU hits keep reordering the queues.
		span := int64(3 * lines)
		if rng.Intn(2) == 0 {
			span = int64(max(lines/4, 1))
		}
		line := rng.Int63n(span) * 64
		local := id(line)
		switch k := rng.Intn(100); {
		case k < 35:
			landing := clock.Time(0)
			if rng.Intn(4) != 0 {
				landing = now + clock.Time(1+rng.Intn(1000))
			}
			ge, gw := c.InsertPrefetch(line, local, landing)
			we, ww := ref.InsertPrefetch(line, local, landing)
			if ge != we || gw != ww {
				t.Fatalf("step %d: insert %#x evicted (%#x, %v), reference (%#x, %v)", step, line, ge, gw, we, ww)
			}
		case k < 60:
			ga, gh := c.LookupRead(line)
			wa, wh := ref.LookupRead(line, local)
			if ga != wa || gh != wh {
				t.Fatalf("step %d: lookup %#x = (%d, %v), reference (%d, %v)", step, line, ga, gh, wa, wh)
			}
		case k < 75:
			if g, w := c.Contains(line), ref.Contains(line, local); g != w {
				t.Fatalf("step %d: contains %#x = %v, reference %v", step, line, g, w)
			}
		case k < 85:
			if g, w := c.Invalidate(line), ref.Invalidate(line, local); g != w {
				t.Fatalf("step %d: invalidate %#x = %v, reference %v", step, line, g, w)
			}
		case k < 90:
			if g, w := c.Scrub(line), ref.Scrub(line, local); g != w {
				t.Fatalf("step %d: scrub %#x = %v, reference %v", step, line, g, w)
			}
		case k < 99:
			now += clock.Time(rng.Intn(400))
			c.Land(now)
			ref.Land(now)
		default:
			c = roundTrip(t, c, lines, assoc, repl)
		}
		sameState(t, step, c, ref)
	}
}
