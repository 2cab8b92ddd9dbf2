package ambcache

import "fbdsim/internal/snapshot"

// Snapshot serializes the prefetch buffer's mutable state: every tag
// entry, the insertion/recency tick, and the coverage statistics.
// Geometry and replacement policy are construction-derived and not
// written.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Int(c.sets)
	e.Int(c.ways)
	for _, en := range c.data {
		e.I64(en.addr)
		e.Bool(en.valid)
		e.I64(en.seq)
		e.I64(en.use)
	}
	e.I64(c.tick)
	e.I64(c.Stats.Reads)
	e.I64(c.Stats.Hits)
	e.I64(c.Stats.Prefetched)
	e.I64(c.Stats.Evictions)
	e.I64(c.Stats.Invalidations)
	e.I64(c.Stats.Scrubs)
}

// Restore overwrites the buffer's mutable state from d. The geometry must
// match the constructed cache.
func (c *Cache) Restore(d *snapshot.Decoder) {
	if sets, ways := d.Int(), d.Int(); sets != c.sets || ways != c.ways {
		d.Fail("ambcache: snapshot geometry %dx%d, machine %dx%d", sets, ways, c.sets, c.ways)
		return
	}
	for i := range c.data {
		c.data[i] = entry{addr: d.I64(), valid: d.Bool(), seq: d.I64(), use: d.I64()}
	}
	c.tick = d.I64()
	c.Stats = Stats{
		Reads:         d.I64(),
		Hits:          d.I64(),
		Prefetched:    d.I64(),
		Evictions:     d.I64(),
		Invalidations: d.I64(),
		Scrubs:        d.I64(),
	}
}
