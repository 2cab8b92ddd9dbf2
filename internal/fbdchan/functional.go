package fbdchan

// Functional-warming twins of ScheduleRead/ScheduleWrite: they mirror the
// AMB prefetch-cache tag effects of an access — lookup bookkeeping, group
// fills, write invalidations — without reserving link or bus timelines,
// advancing bank state, or drawing from the fault injector. The sampling
// tier uses them to keep AMB caches warm across functionally-executed spans
// so the first measured cycles after a span see representative hit rates.

// FunctionalRead mirrors a demand read's AMB-cache effects. On a miss with
// prefetching enabled the K-1 companion lines of the group are installed
// immediately (a timed group fetch would land them a few bursts later; with
// the clock frozen "immediately" is the faithful limit).
func (c *Channel) FunctionalRead(addr int64) {
	if !c.cfg.AMBPrefetch {
		return
	}
	amb := c.ambs[c.mapper.Map(addr).DIMM]
	if _, hit := amb.LookupRead(c.mapper.LineAddr(addr)); hit {
		return
	}
	c.group = c.mapper.Group(c.group[:0], addr)
	for _, la := range c.group[1:] {
		// Landing time 0: the line is resident as of now.
		amb.InsertPrefetch(la, c.mapper.LocalLineID(la), 0)
	}
}

// FunctionalWrite mirrors a write's AMB-cache effect: under the paper's
// write-invalidate design the cached copy is dropped so the AMB never
// serves stale data.
func (c *Channel) FunctionalWrite(addr int64) {
	if !c.cfg.AMBPrefetch || c.cfg.AMBWriteUpdate {
		return
	}
	c.ambs[c.mapper.Map(addr).DIMM].Invalidate(c.mapper.LineAddr(addr))
}
