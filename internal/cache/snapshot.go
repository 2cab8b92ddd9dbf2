package cache

import "fbdsim/internal/snapshot"

// Snapshot serializes the cache's mutable state: every frame (as tag,
// valid, dirty, use), the LRU tick, and the statistics. Geometry is
// construction-derived and not written.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Int(c.sets)
	e.Int(c.ways)
	for _, f := range c.data {
		e.I64(f.key &^ flagBits)
		e.Bool(f.key&validBit != 0)
		e.Bool(f.key&dirtyBit != 0)
		e.I64(f.use)
	}
	e.I64(c.tick)
	e.I64(c.Stats.Accesses)
	e.I64(c.Stats.Misses)
	e.I64(c.Stats.Evictions)
	e.I64(c.Stats.DirtyEvicts)
	e.I64(c.Stats.PrefetchFills)
}

// Restore overwrites the cache's mutable state from d. The geometry must
// match the constructed cache, and every tag must be line-aligned.
func (c *Cache) Restore(d *snapshot.Decoder) {
	if sets, ways := d.Int(), d.Int(); sets != c.sets || ways != c.ways {
		d.Fail("cache: snapshot geometry %dx%d, machine %dx%d", sets, ways, c.sets, c.ways)
		return
	}
	for i := range c.data {
		key := d.I64()
		if key&(c.lineBytes-1) != 0 {
			d.Fail("cache: snapshot tag %#x is not %d-byte aligned", key, c.lineBytes)
			return
		}
		if d.Bool() {
			key |= validBit
		}
		if d.Bool() {
			key |= dirtyBit
		}
		c.data[i] = frame{key: key, use: d.I64()}
	}
	c.tick = d.I64()
	c.Stats = Stats{
		Accesses:      d.I64(),
		Misses:        d.I64(),
		Evictions:     d.I64(),
		DirtyEvicts:   d.I64(),
		PrefetchFills: d.I64(),
	}
}
