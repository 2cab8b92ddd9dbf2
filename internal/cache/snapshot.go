package cache

import "fbdsim/internal/snapshot"

// Snapshot serializes the cache's mutable state: every frame, the LRU
// tick, and the statistics. Geometry is construction-derived and not
// written.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
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

// Restore overwrites the cache's mutable state from d. The geometry must
// match the constructed cache.
func (c *Cache) Restore(d *snapshot.Decoder) {
	if sets, ways := d.Int(), d.Int(); sets != c.sets || ways != c.ways {
		d.Fail("cache: snapshot geometry %dx%d, machine %dx%d", sets, ways, c.sets, c.ways)
		return
	}
	for i := range c.data {
		c.data[i] = line{tag: d.I64(), valid: d.Bool(), dirty: d.Bool(), use: d.I64()}
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
