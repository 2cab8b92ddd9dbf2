package memctrl

import (
	"fbdsim/internal/clock"
	"fbdsim/internal/memreq"
	"fbdsim/internal/snapshot"
)

// Snapshot serializes the controller's mutable state: every channel model,
// the per-channel transaction queues, the completion heap (as its raw
// backing array, preserving the hand-rolled heap's exact layout and hence
// its equal-time pop order), the drain/in-flight bookkeeping, the stats,
// and the attached recorder and injector. The scratch buffers are dead
// between ticks and not written.
func (c *Controller) Snapshot(e *snapshot.Encoder) {
	e.Int(len(c.chans))
	for i := range c.chans {
		if c.fbd != nil {
			c.fbd[i].Snapshot(e)
		} else {
			c.ddr[i].Snapshot(e)
		}
	}
	for ch := range c.chans {
		e.Int(len(c.readQ[ch]))
		for _, req := range c.readQ[ch] {
			snapshotReq(e, req)
		}
		e.Int(len(c.writeQ[ch]))
		for _, req := range c.writeQ[ch] {
			snapshotReq(e, req)
		}
		e.Bool(c.draining[ch])
		e.Int(c.inflight[ch])
	}
	e.Int(len(c.completions))
	for _, comp := range c.completions {
		e.I64(int64(comp.at))
		snapshotReq(e, comp.req)
		e.Int(comp.ch)
	}
	e.I64(c.housekept)
	e.I64(c.Stats.Reads)
	e.I64(c.Stats.Writes)
	e.I64(c.Stats.AMBHits)
	e.I64(int64(c.Stats.ReadLatency))
	e.I64(c.Stats.ReadsDone)
	e.I64(c.Stats.QueueRejects)
	c.LatHist.Snapshot(e)
	c.rec.Snapshot(e)
	c.inj.Snapshot(e)
}

// Restore overwrites the controller's mutable state from d. Every restored
// in-flight request gets its completion callback rewired by kind: onRead
// and onWrite are the cache hierarchy's shared callbacks (requests cannot
// serialize their closures).
func (c *Controller) Restore(d *snapshot.Decoder, onRead, onWrite func(*memreq.Request)) {
	if n := d.Int(); n != len(c.chans) {
		d.Fail("memctrl: snapshot has %d channels, machine has %d", n, len(c.chans))
		return
	}
	for i := range c.chans {
		if c.fbd != nil {
			c.fbd[i].Restore(d)
		} else {
			c.ddr[i].Restore(d)
		}
	}
	rewire := func(req *memreq.Request) {
		if req.Kind == memreq.Read {
			req.OnDone = onRead
		} else {
			req.OnDone = onWrite
		}
	}
	for ch := range c.chans {
		n := d.Count(64)
		c.readQ[ch] = c.readQ[ch][:0]
		for i := 0; i < n; i++ {
			req := c.restoreReq(d)
			rewire(req)
			c.readQ[ch] = append(c.readQ[ch], req)
		}
		n = d.Count(64)
		c.writeQ[ch] = c.writeQ[ch][:0]
		for i := 0; i < n; i++ {
			req := c.restoreReq(d)
			rewire(req)
			c.writeQ[ch] = append(c.writeQ[ch], req)
		}
		c.draining[ch] = d.Bool()
		c.inflight[ch] = d.Int()
	}
	n := d.Count(72)
	c.completions = c.completions[:0]
	for i := 0; i < n; i++ {
		comp := completion{at: clock.Time(d.I64())}
		comp.req = c.restoreReq(d)
		rewire(comp.req)
		comp.ch = d.Int()
		if comp.ch < 0 || comp.ch >= len(c.chans) {
			d.Fail("memctrl: completion channel %d out of range", comp.ch)
			return
		}
		c.completions = append(c.completions, comp)
	}
	c.housekept = d.I64()
	c.Stats = Stats{
		Reads:        d.I64(),
		Writes:       d.I64(),
		AMBHits:      d.I64(),
		ReadLatency:  clock.Time(d.I64()),
		ReadsDone:    d.I64(),
		QueueRejects: d.I64(),
	}
	c.LatHist.Restore(d)
	c.rec.Restore(d)
	c.inj.Restore(d)
}

// snapshotReq serializes one transaction. OnDone is a closure and is
// rewired at restore time by kind.
func snapshotReq(e *snapshot.Encoder, req *memreq.Request) {
	e.I64(req.ID)
	e.I64(req.Addr)
	e.Int(int(req.Kind))
	e.Int(req.Core)
	e.Bool(req.SWPrefetch)
	e.I64(int64(req.Created))
	e.I64(int64(req.Arrived))
	e.I64(int64(req.Done))
	e.Bool(req.AMBHit)
	e.I64(int64(req.T.Issued))
	e.I64(int64(req.T.CmdAt))
	e.I64(int64(req.T.Service))
}

// restoreReq decodes one transaction written by snapshotReq. Loc is never
// serialized: it is re-derived from Addr exactly as Enqueue derived it.
func (c *Controller) restoreReq(d *snapshot.Decoder) *memreq.Request {
	req := &memreq.Request{
		ID:         d.I64(),
		Addr:       d.I64(),
		Kind:       memreq.Kind(d.Int()),
		Core:       d.Int(),
		SWPrefetch: d.Bool(),
		Created:    clock.Time(d.I64()),
		Arrived:    clock.Time(d.I64()),
		Done:       clock.Time(d.I64()),
		AMBHit:     d.Bool(),
		T: memreq.Timing{
			Issued:  clock.Time(d.I64()),
			CmdAt:   clock.Time(d.I64()),
			Service: clock.Time(d.I64()),
		},
	}
	req.Loc = c.mapper.Map(req.Addr)
	return req
}
