package fbdchan

import (
	"cmp"
	"slices"

	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/snapshot"
)

// Snapshot serializes the channel's mutable state: link and DIMM-bus
// timelines, bank FSMs, AMB caches, the landing times of prefetches still
// in flight and the accumulated counters. Geometry and timing are construction-derived and
// not written. The fault injector is owned (and serialized) by the
// controller, which shares it across channels.
func (c *Channel) Snapshot(e *snapshot.Encoder) {
	c.south.Snapshot(e)
	c.north.Snapshot(e)
	e.Int(len(c.dimmBus))
	for _, b := range c.dimmBus {
		b.Snapshot(e)
	}
	e.Int(len(c.dimms))
	for _, d := range c.dimms {
		d.Snapshot(e)
	}
	e.Bool(c.ambs != nil)
	for _, a := range c.ambs {
		a.Snapshot(e)
	}
	// In-flight prefetches are written as (line, landing) records in line
	// order, so identical machine states produce identical snapshot bytes.
	var pending []ambcache.InFlight
	for _, a := range c.ambs {
		pending = a.AppendInFlight(pending)
	}
	slices.SortFunc(pending, func(a, b ambcache.InFlight) int { return cmp.Compare(a.Line, b.Line) })
	e.Int(len(pending))
	for _, p := range pending {
		e.I64(p.Line)
		e.I64(int64(p.Landing))
	}
	c.Counters.Snapshot(e)
	e.I64(c.Links.BytesNorth)
	e.I64(c.Links.BytesSouth)
	e.I64(c.BankConflicts)
	e.I64(int64(c.lastCmdAt))
	e.I64(int64(c.lastServiceAt))
}

// Restore overwrites the channel's mutable state from d. Structural counts
// must match the constructed configuration, and every in-flight record
// must name a line resident in its DIMM's AMB cache, in line order, with a
// positive landing time — the only records Snapshot writes.
func (c *Channel) Restore(d *snapshot.Decoder) {
	c.south.Restore(d)
	c.north.Restore(d)
	if n := d.Int(); n != len(c.dimmBus) {
		d.Fail("fbdchan: snapshot has %d DIMM buses, machine has %d", n, len(c.dimmBus))
		return
	}
	for _, b := range c.dimmBus {
		b.Restore(d)
	}
	if n := d.Int(); n != len(c.dimms) {
		d.Fail("fbdchan: snapshot has %d DIMMs, machine has %d", n, len(c.dimms))
		return
	}
	for _, dimm := range c.dimms {
		dimm.Restore(d)
	}
	if haveAMB := d.Bool(); haveAMB != (c.ambs != nil) {
		d.Fail("fbdchan: snapshot AMB caches %v, machine %v", haveAMB, c.ambs != nil)
		return
	}
	for _, a := range c.ambs {
		a.Restore(d)
	}
	n := d.Count(16)
	for i, prev := 0, int64(0); i < n; i++ {
		line, landing := d.I64(), clock.Time(d.I64())
		switch {
		case d.Err() != nil:
			return
		case i > 0 && line <= prev:
			d.Fail("fbdchan: in-flight line %#x follows %#x", line, prev)
			return
		case landing <= 0:
			d.Fail("fbdchan: in-flight line %#x lands at %d", line, landing)
			return
		case c.ambs == nil || !c.ambs[c.mapper.Map(line).DIMM].SetLanding(line, landing):
			d.Fail("fbdchan: in-flight line %#x is not resident in its AMB cache", line)
			return
		}
		prev = line
	}
	c.Counters.Restore(d)
	c.Links = LinkStats{BytesNorth: d.I64(), BytesSouth: d.I64()}
	c.BankConflicts = d.I64()
	c.lastCmdAt = clock.Time(d.I64())
	c.lastServiceAt = clock.Time(d.I64())
}
