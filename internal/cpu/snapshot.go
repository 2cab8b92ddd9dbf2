package cpu

import (
	"slices"

	"fbdsim/internal/clock"
	"fbdsim/internal/memreq"
	"fbdsim/internal/snapshot"
	"fbdsim/internal/trace"
)

// Snapshot serializes the core's mutable state: the ROB ring, the queue
// occupancies, the dispatch stream (including the trace generator's PRNG
// position), the dependence tracker and the counters.
func (c *Core) Snapshot(e *snapshot.Encoder) {
	gen, ok := c.gen.(*trace.Synthetic)
	if !ok {
		e.Fail("cpu: core %d trace generator %T is not serializable", c.id, c.gen)
		return
	}
	gen.Snapshot(e)
	e.Int(len(c.ring))
	for _, it := range c.ring {
		e.Int(it.gapBefore)
		e.Bool(it.hasOp)
		e.Bool(it.done)
		e.I64(it.doneCycle)
	}
	e.Int(c.head)
	e.Int(c.n)
	e.Int(c.robCount)
	e.Int(c.lqInUse)
	e.Int(c.sqInUse)
	trace.SnapshotItem(e, c.cur)
	e.Int(c.gapLeft)
	e.Bool(c.opPending)
	e.I64(c.loadSeq)
	e.I64(c.lastLoadSeq)
	e.Bool(c.lastLoadDone)
	e.I64(c.Committed)
	e.I64(c.Stalls)
}

// Restore overwrites the core's mutable state from d. The ring size is
// ROBEntries-derived and must match the constructed machine.
func (c *Core) Restore(d *snapshot.Decoder) {
	gen, ok := c.gen.(*trace.Synthetic)
	if !ok {
		d.Fail("cpu: core %d trace generator %T is not restorable", c.id, c.gen)
		return
	}
	gen.Restore(d)
	if n := d.Int(); n != len(c.ring) {
		d.Fail("cpu: snapshot ROB ring %d, machine %d", n, len(c.ring))
		return
	}
	for i := range c.ring {
		c.ring[i] = robItem{
			gapBefore: d.Int(),
			hasOp:     d.Bool(),
			done:      d.Bool(),
			doneCycle: d.I64(),
		}
	}
	c.head = d.Int()
	c.n = d.Int()
	c.robCount = d.Int()
	c.lqInUse = d.Int()
	c.sqInUse = d.Int()
	c.cur = trace.RestoreItem(d)
	c.gapLeft = d.Int()
	c.opPending = d.Bool()
	c.loadSeq = d.I64()
	c.lastLoadSeq = d.I64()
	c.lastLoadDone = d.Bool()
	c.Committed = d.I64()
	c.Stalls = d.I64()
}

// Snapshot serializes the hierarchy's mutable state: the caches, the MSHR
// table (outstanding misses with their typed waiters), the unissued and
// writeback queues, and the counters. Outstanding entries are written in
// line-address order so identical machine states produce identical bytes;
// unissued entries alias outstanding ones, so they serialize as line
// references. The request pool and MSHR free list are capacity caches with
// no behavioural state and restore empty.
func (h *Hierarchy) Snapshot(e *snapshot.Encoder) {
	e.Int(len(h.l1))
	for _, l1 := range h.l1 {
		l1.Snapshot(e)
	}
	h.l2.Snapshot(e)
	e.Bool(h.hwpf != nil)
	if h.hwpf != nil {
		h.hwpf.Snapshot(e)
	}

	lines := h.outstanding.AppendKeys(make([]int64, 0, h.outstanding.Len()))
	slices.Sort(lines)
	e.Int(len(lines))
	for _, line := range lines {
		me, _ := h.outstanding.Get(line)
		e.I64(me.line)
		e.Int(me.core)
		e.Bool(me.dirty)
		e.Bool(me.sw)
		e.Bool(me.issued)
		e.I64(int64(me.created))
		e.Int(len(me.waiters))
		for _, w := range me.waiters {
			if w.fn != nil {
				e.Fail("cpu: closure waiter on line %#x is not serializable", me.line)
				return
			}
			e.Int(w.core)
			e.Int(w.ringIdx)
			e.I64(w.seq)
		}
	}
	e.Int(len(h.unissued))
	for _, me := range h.unissued {
		e.I64(me.line)
	}
	e.Int(len(h.writebacks))
	for _, wb := range h.writebacks {
		e.I64(wb.addr)
		e.I64(int64(wb.created))
	}
	e.Int(h.wbHead)
	e.Int(h.l2MSHRInUse)
	e.I64(h.reqID)
	e.I64(int64(h.now))
	e.I64(h.DemandMisses)
	e.I64(h.SWPrefetches)
	e.I64(h.HWPrefetches)
	e.I64(h.WBCount)
	e.I64(h.DroppedPF)
}

// Restore overwrites the hierarchy's mutable state from d. Structural
// shapes (core count, cache geometry, prefetcher presence) must match the
// constructed machine.
func (h *Hierarchy) Restore(d *snapshot.Decoder) {
	if n := d.Int(); n != len(h.l1) {
		d.Fail("cpu: snapshot has %d L1 caches, machine has %d", n, len(h.l1))
		return
	}
	for _, l1 := range h.l1 {
		l1.Restore(d)
	}
	h.l2.Restore(d)
	if havePF := d.Bool(); havePF != (h.hwpf != nil) {
		d.Fail("cpu: snapshot HW prefetcher %v, machine %v", havePF, h.hwpf != nil)
		return
	}
	if h.hwpf != nil {
		h.hwpf.Restore(d)
	}

	n := d.Count(32)
	h.outstanding.Clear()
	for i := 0; i < n; i++ {
		me := &missEntry{
			line:    d.I64(),
			core:    d.Int(),
			dirty:   d.Bool(),
			sw:      d.Bool(),
			issued:  d.Bool(),
			created: clock.Time(d.I64()),
		}
		nw := d.Count(24)
		for j := 0; j < nw; j++ {
			me.waiters = append(me.waiters, waiter{core: d.Int(), ringIdx: d.Int(), seq: d.I64()})
		}
		if d.Err() != nil {
			return
		}
		h.outstanding.Put(me.line, me)
	}
	n = d.Count(8)
	h.unissued = h.unissued[:0]
	for i := 0; i < n; i++ {
		line := d.I64()
		me, ok := h.outstanding.Get(line)
		if !ok {
			d.Fail("cpu: unissued miss %#x has no outstanding entry", line)
			return
		}
		h.unissued = append(h.unissued, me)
	}
	n = d.Count(16)
	h.writebacks = h.writebacks[:0]
	for i := 0; i < n; i++ {
		h.writebacks = append(h.writebacks, wbEntry{addr: d.I64(), created: clock.Time(d.I64())})
	}
	h.wbHead = d.Int()
	if h.wbHead < 0 || h.wbHead > len(h.writebacks) {
		d.Fail("cpu: writeback head %d outside queue of %d", h.wbHead, len(h.writebacks))
		return
	}
	h.l2MSHRInUse = d.Int()
	h.reqID = d.I64()
	h.now = clock.Time(d.I64())
	h.DemandMisses = d.I64()
	h.SWPrefetches = d.I64()
	h.HWPrefetches = d.I64()
	h.WBCount = d.I64()
	h.DroppedPF = d.I64()
	h.entryFree = h.entryFree[:0]
}

// RequestCallbacks exposes the hierarchy's shared completion callbacks; the
// controller's Restore rewires each deserialized in-flight request's OnDone
// to them by transaction kind.
func (h *Hierarchy) RequestCallbacks() (onRead, onWrite func(r *memreq.Request)) {
	return h.onReadDone, h.onWriteDone
}
