package cache

import (
	"math/rand"
	"testing"

	"fbdsim/internal/snapshot"
)

// refLine and refCache are the cache as it stood before frames packed their
// flags into the address word: one 24-byte record per way with separate
// valid and dirty fields. They are the reference model for the
// differential test below.
type refLine struct {
	tag   int64
	valid bool
	dirty bool
	use   int64
}

type refCache struct {
	sets, ways int
	lineBytes  int64
	lineShift  uint
	data       []refLine
	tick       int64
	Stats      Stats
}

func newRef(c *Cache) *refCache {
	return &refCache{sets: c.sets, ways: c.ways, lineBytes: c.lineBytes, lineShift: c.lineShift,
		data: make([]refLine, len(c.data))}
}

func (c *refCache) set(la int64) []refLine {
	idx := int((la >> c.lineShift) & int64(c.sets-1))
	return c.data[idx*c.ways : (idx+1)*c.ways]
}

func (c *refCache) Access(addr int64, write bool) bool {
	c.Stats.Accesses++
	la := addr &^ (c.lineBytes - 1)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			c.tick++
			set[i].use = c.tick
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	return false
}

func (c *refCache) Contains(addr int64) bool {
	la := addr &^ (c.lineBytes - 1)
	for _, l := range c.set(la) {
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr int64, dirty bool) Victim {
	la := addr &^ (c.lineBytes - 1)
	set := c.set(la)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].use = c.tick
			if dirty {
				set[i].dirty = true
			}
			return Victim{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
	out := Victim{}
	if set[victim].valid {
		out = Victim{Addr: set[victim].tag, Dirty: set[victim].dirty, Valid: true}
		c.Stats.Evictions++
		if out.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	set[victim] = refLine{tag: la, valid: true, dirty: dirty, use: c.tick}
	return out
}

func (c *refCache) FillPrefetch(addr int64) Victim {
	c.Stats.PrefetchFills++
	return c.Fill(addr, false)
}

func (c *refCache) Invalidate(addr int64) (wasDirty, wasPresent bool) {
	la := addr &^ (c.lineBytes - 1)
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].valid = false
			return set[i].dirty, true
		}
	}
	return false, false
}

// snapshot writes the reference in the committed snapshot layout.
func (c *refCache) snapshot(e *snapshot.Encoder) {
	e.Int(c.sets)
	e.Int(c.ways)
	for _, l := range c.data {
		e.I64(l.tag)
		e.Bool(l.valid)
		e.Bool(l.dirty)
		e.I64(l.use)
	}
	e.I64(c.tick)
	e.I64(c.Stats.Accesses)
	e.I64(c.Stats.Misses)
	e.I64(c.Stats.Evictions)
	e.I64(c.Stats.DirtyEvicts)
	e.I64(c.Stats.PrefetchFills)
}

// sectionBytes runs write into a one-section snapshot and returns the file.
func sectionBytes(write func(*snapshot.Encoder)) []byte {
	w := snapshot.NewWriter("cache")
	write(w.Section("c"))
	return w.Finish()
}

// restoreFrom restores a fresh cache shaped like c from data and returns it
// with the decoder's verdict.
func restoreFrom(t *testing.T, c *Cache, data []byte) (*Cache, error) {
	t.Helper()
	r, err := snapshot.Open(data, "cache")
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("c")
	if err != nil {
		t.Fatal(err)
	}
	out := New(c.sets*c.ways*int(c.lineBytes)/1024, c.ways, int(c.lineBytes))
	out.Restore(d)
	return out, d.Done()
}

// sameFrames compares frames [lo, hi) of c against the reference.
func sameFrames(t *testing.T, step int, c *Cache, ref *refCache, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		f, l := c.data[i], ref.data[i]
		if f.key&^flagBits != l.tag || (f.key&validBit != 0) != l.valid ||
			(f.key&dirtyBit != 0) != l.dirty || f.use != l.use {
			t.Fatalf("step %d: frame %d = {key %#x use %d}, reference %+v", step, i, f.key, f.use, l)
		}
	}
}

// TestFramesMatchReference drives the packed-frame cache and the 24-byte
// reference with the same random Access, Contains, Fill, FillPrefetch and
// Invalidate sequences, with a snapshot round trip every 500 operations. Every return value must
// agree, and so must the touched set after every operation and every
// frame, the LRU tick and the statistics at each round trip and at the
// end. Addresses concentrate on a few sets so evictions are frequent, and
// some carry high address bits (the L2 prewarm placeholders live at 2⁶⁰).
func TestFramesMatchReference(t *testing.T) {
	geoms := []struct {
		name              string
		kb, ways, lineLen int
	}{
		{"L1", 64, 2, 64},
		{"L2", 4096, 4, 64},
		{"16way", 64, 16, 64},
		{"16way-32B", 32, 16, 32},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			c := New(g.kb, g.ways, g.lineLen)
			ref := newRef(c)
			rng := rand.New(rand.NewSource(seed))
			hotSets := min(c.sets, 8)
			addr := func() int64 {
				set := int64(rng.Intn(hotSets))
				if rng.Intn(16) == 0 {
					set = rng.Int63n(int64(c.sets))
				}
				tag := int64(rng.Intn(2*c.ways + 1))
				a := (tag*int64(c.sets)+set)*c.lineBytes + rng.Int63n(c.lineBytes)
				if rng.Intn(8) == 0 {
					a += 1 << 60
				}
				return a
			}
			for step := 0; step < 4000; step++ {
				a := addr()
				switch op := rng.Intn(11); {
				case op < 4:
					w := rng.Intn(2) == 0
					if got, want := c.Access(a, w), ref.Access(a, w); got != want {
						t.Fatalf("%s seed %d step %d: Access(%#x, %v) = %v, reference %v", g.name, seed, step, a, w, got, want)
					}
				case op < 6:
					if got, want := c.Contains(a), ref.Contains(a); got != want {
						t.Fatalf("%s seed %d step %d: Contains(%#x) = %v, reference %v", g.name, seed, step, a, got, want)
					}
				case op < 9:
					d := rng.Intn(2) == 0
					if got, want := c.Fill(a, d), ref.Fill(a, d); got != want {
						t.Fatalf("%s seed %d step %d: Fill(%#x, %v) = %+v, reference %+v", g.name, seed, step, a, d, got, want)
					}
				case op < 10:
					if got, want := c.FillPrefetch(a), ref.FillPrefetch(a); got != want {
						t.Fatalf("%s seed %d step %d: FillPrefetch(%#x) = %+v, reference %+v", g.name, seed, step, a, got, want)
					}
				default:
					gd, gp := c.Invalidate(a)
					wd, wp := ref.Invalidate(a)
					if gd != wd || gp != wp {
						t.Fatalf("%s seed %d step %d: Invalidate(%#x) = %v,%v, reference %v,%v", g.name, seed, step, a, gd, gp, wd, wp)
					}
				}
				if step%500 == 499 {
					got := sectionBytes(c.Snapshot)
					if want := sectionBytes(ref.snapshot); string(got) != string(want) {
						t.Fatalf("%s seed %d step %d: snapshot bytes differ from the reference layout", g.name, seed, step)
					}
					restored, err := restoreFrom(t, c, got)
					if err != nil {
						t.Fatalf("%s seed %d step %d: restore: %v", g.name, seed, step, err)
					}
					c = restored
				}
				idx := int((a >> c.lineShift) & int64(c.sets-1))
				sameFrames(t, step, c, ref, idx*c.ways, (idx+1)*c.ways)
			}
			sameFrames(t, -1, c, ref, 0, len(c.data))
			if c.tick != ref.tick || c.Stats != ref.Stats {
				t.Fatalf("%s seed %d: tick %d stats %+v, reference tick %d stats %+v", g.name, seed, c.tick, c.Stats, ref.tick, ref.Stats)
			}
			if got, want := c.Occupancy(), refOccupancy(ref); got != want {
				t.Fatalf("%s seed %d: occupancy %d, reference %d", g.name, seed, got, want)
			}
		}
	}
}

func refOccupancy(c *refCache) int {
	n := 0
	for _, l := range c.data {
		if l.valid {
			n++
		}
	}
	return n
}

// TestRestoreRejectsUnalignedTag: a frame tag with a bit set below the line
// size cannot come from a line address, and would alias the packed valid
// and dirty flags, so Restore fails the decoder instead of loading it.
func TestRestoreRejectsUnalignedTag(t *testing.T) {
	c := New(4, 2, 64)
	c.Fill(0x1000, true)
	for _, bad := range []int64{1, 2, 3, 32, 0x1000 | 0x20} {
		ref := newRef(c)
		ref.Fill(0x1000, true)
		ref.data[3].tag = bad
		data := sectionBytes(ref.snapshot)
		if _, err := restoreFrom(t, c, data); err == nil {
			t.Errorf("restore accepted tag %#x in a 64-byte-line cache", bad)
		}
	}
	if _, err := restoreFrom(t, c, sectionBytes(c.Snapshot)); err != nil {
		t.Fatalf("restore of an intact snapshot: %v", err)
	}
}

// TestTinyLinePanics: the packed flags need two free address bits.
func TestTinyLinePanics(t *testing.T) {
	for _, lb := range []int{1, 2, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %dB lines did not panic", lb)
				}
			}()
			New(4, 2, lb)
		}()
	}
}
