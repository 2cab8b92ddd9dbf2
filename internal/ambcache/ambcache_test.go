package ambcache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"fbdsim/internal/config"
	"fbdsim/internal/snapshot"
)

// id derives the set-index key the way fbdchan does for a standalone cache
// (identity on the line number is fine for unit tests).
func id(lineAddr int64) int64 { return lineAddr / 64 }

// hit performs a demand lookup and reports whether it hit.
func hit(c *Cache, lineAddr int64) bool {
	_, ok := c.LookupRead(lineAddr)
	return ok
}

func fill(c *Cache, lines ...int64) {
	for _, l := range lines {
		c.InsertPrefetch(l*64, id(l*64), 0)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	if hit(c, 64) {
		t.Fatal("empty cache must miss")
	}
	fill(c, 1)
	if !hit(c, 64) {
		t.Fatal("inserted line must hit")
	}
	if c.Stats.Reads != 2 || c.Stats.Hits != 1 || c.Stats.Prefetched != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Stats.Coverage() != 0.5 || c.Stats.Efficiency() != 1.0 {
		t.Errorf("coverage %f efficiency %f", c.Stats.Coverage(), c.Stats.Efficiency())
	}
}

func TestFIFOEvictsInsertionOrderDespiteHits(t *testing.T) {
	c := New(2, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	// Hit line 1 repeatedly; FIFO must still evict it first (the paper's
	// argument: a hit block now lives in the processor cache).
	for i := 0; i < 5; i++ {
		if !hit(c, 64) {
			t.Fatal("expected hit")
		}
	}
	evicted, was := c.InsertPrefetch(3*64, id(3*64), 0)
	if !was || evicted != 64 {
		t.Errorf("FIFO evicted %d (was=%v), want line 1", evicted/64, was)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := New(2, config.FullAssoc, config.LRU)
	fill(c, 1, 2)
	hit(c, 64) // touch line 1
	evicted, was := c.InsertPrefetch(3*64, id(3*64), 0)
	if !was || evicted != 2*64 {
		t.Errorf("LRU evicted %d (was=%v), want line 2", evicted/64, was)
	}
}

func TestSetAssociativity(t *testing.T) {
	// 8 lines, 2-way: 4 sets. Lines with equal id mod 4 share a set.
	c := New(8, 2, config.FIFO)
	if c.Ways() != 2 || c.Lines() != 8 {
		t.Fatalf("geometry %d ways %d lines", c.Ways(), c.Lines())
	}
	fill(c, 0, 4, 8) // all set 0: third insert evicts line 0
	if c.Contains(0) {
		t.Error("line 0 should be evicted from its set")
	}
	if !c.Contains(4*64) || !c.Contains(8*64) {
		t.Error("lines 4 and 8 should be resident")
	}
	// A different set is unaffected.
	fill(c, 1)
	if !c.Contains(64) {
		t.Error("set 1 insert failed")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

func TestFullAssocCapacity(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 10, 20, 30, 40)
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	evicted, was := c.InsertPrefetch(50*64, id(50*64), 0)
	if !was || evicted != 10*64 {
		t.Errorf("evicted %d, want oldest (10)", evicted/64)
	}
	if c.Occupancy() != 4 {
		t.Errorf("occupancy after eviction = %d", c.Occupancy())
	}
}

func TestReinsertIsRefreshNotEviction(t *testing.T) {
	c := New(2, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if _, was := c.InsertPrefetch(64, id(64), 0); was {
		t.Error("reinserting a resident line must not evict")
	}
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d", c.Occupancy())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if !c.Invalidate(64) {
		t.Fatal("invalidate of resident line")
	}
	if c.Invalidate(64) {
		t.Fatal("second invalidate must report absent")
	}
	if c.Contains(64) {
		t.Fatal("line still resident after invalidate")
	}
	if c.Stats.Invalidations != 1 {
		t.Errorf("invalidations = %d", c.Stats.Invalidations)
	}
	// The freed frame is reused before any eviction.
	fill(c, 3)
	if c.Stats.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", c.Stats.Evictions)
	}
}

// TestScrub: a soft-error scrub removes the line like Invalidate but books
// the loss separately, so fault sweeps can tell scrubs from demand-hit
// consumption.
func TestScrub(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2)
	if !c.Scrub(64) {
		t.Fatal("scrubbing a present line must report true")
	}
	if c.Scrub(64) {
		t.Fatal("scrubbing an absent line must report false")
	}
	if c.Contains(64) {
		t.Error("scrubbed line still present")
	}
	if !c.Contains(2 * 64) {
		t.Error("scrub must not disturb other lines")
	}
	if c.Stats.Scrubs != 1 {
		t.Errorf("Scrubs = %d, want 1", c.Stats.Scrubs)
	}
	if c.Stats.Invalidations != 0 {
		t.Errorf("scrub must not count as an invalidation, got %d", c.Stats.Invalidations)
	}
	if hit(c, 64) {
		t.Error("scrubbed line must miss on the next demand")
	}
}

func TestReset(t *testing.T) {
	c := New(4, config.FullAssoc, config.FIFO)
	fill(c, 1, 2, 3)
	hit(c, 64)
	c.Reset()
	if c.Occupancy() != 0 || c.Stats != (Stats{}) {
		t.Errorf("Reset left occupancy %d stats %+v", c.Occupancy(), c.Stats)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Hits: 2, Prefetched: 3, Evictions: 4, Invalidations: 5}
	b := Stats{Reads: 10, Hits: 20, Prefetched: 30, Evictions: 40, Invalidations: 50}
	a.Add(b)
	if a != (Stats{Reads: 11, Hits: 22, Prefetched: 33, Evictions: 44, Invalidations: 55}) {
		t.Errorf("Add = %+v", a)
	}
}

func TestZeroDenominators(t *testing.T) {
	var s Stats
	if s.Coverage() != 0 || s.Efficiency() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, config.FullAssoc, config.FIFO) },
		func() { New(10, 4, config.FIFO) }, // 10 not divisible by 4
		func() { New(24, 2, config.FIFO) }, // 12 sets, not a power of two
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestOccupancyNeverExceedsCapacity is a property test across random
// operation sequences for several geometries and both policies.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		geoms := []struct{ lines, assoc int }{
			{64, config.FullAssoc}, {64, 1}, {64, 2}, {64, 4}, {32, 2}, {128, 8},
		}
		g := geoms[rng.Intn(len(geoms))]
		repl := config.FIFO
		if rng.Intn(2) == 1 {
			repl = config.LRU
		}
		c := New(g.lines, g.assoc, repl)
		for i := 0; i < 500; i++ {
			line := int64(rng.Intn(4096)) * 64
			switch rng.Intn(3) {
			case 0:
				c.InsertPrefetch(line, id(line), 0)
			case 1:
				hit(c, line)
			case 2:
				c.Invalidate(line)
			}
			if c.Occupancy() > c.Lines() {
				return false
			}
		}
		// Conservation: hits can never exceed reads or prefetched count.
		return c.Stats.Hits <= c.Stats.Reads && c.Stats.Evictions <= c.Stats.Prefetched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateEntries: inserting and looking up may never create two
// valid entries for one line.
func TestNoDuplicateEntries(t *testing.T) {
	c := New(8, 2, config.FIFO)
	for i := 0; i < 10; i++ {
		c.InsertPrefetch(4*64, id(4*64), 0)
	}
	count := 0
	for _, e := range c.data {
		if e.valid && e.addr == 4*64 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("line present %d times", count)
	}
}

// TestRestoreRefusesImpossibleFrames: a snapshot whose frames no operation
// sequence can produce — a line resident twice, or an order key beyond the
// tick — fails to restore instead of corrupting the index or the order
// queues.
func TestRestoreRefusesImpossibleFrames(t *testing.T) {
	type frame struct {
		addr     int64
		valid    bool
		seq, use int64
	}
	for _, tc := range []struct {
		name   string
		frames []frame
		tick   int64
	}{
		{"line resident twice", []frame{{64, true, 1, 1}, {64, true, 2, 2}}, 2},
		{"seq beyond tick", []frame{{64, true, 3, 1}}, 2},
		{"use beyond tick", []frame{{64, false, 1, 3}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.NewWriter("amb")
			e := w.Section("amb")
			e.Int(1)
			e.Int(4)
			for i := 0; i < 4; i++ {
				var f frame
				if i < len(tc.frames) {
					f = tc.frames[i]
				}
				e.I64(f.addr)
				e.Bool(f.valid)
				e.I64(f.seq)
				e.I64(f.use)
			}
			e.I64(tc.tick)
			for i := 0; i < 6; i++ {
				e.I64(0)
			}
			r, err := snapshot.Open(w.Finish(), "amb")
			if err != nil {
				t.Fatal(err)
			}
			d, err := r.Section("amb")
			if err != nil {
				t.Fatal(err)
			}
			New(4, config.FullAssoc, config.FIFO).Restore(d)
			if !errors.Is(d.Err(), snapshot.ErrCorrupt) {
				t.Errorf("restore error %v, want ErrCorrupt", d.Err())
			}
		})
	}
}
