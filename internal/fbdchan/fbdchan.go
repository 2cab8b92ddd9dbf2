// Package fbdchan models one logical FB-DIMM channel: the southbound link
// (three command slots, or one command plus 16 bytes of write data, per
// frame), the northbound link (32 bytes of read data per frame), the AMB
// daisy chain with its per-hop forwarding delay, the per-DIMM DDR2 buses
// between each AMB and its DRAM chips, and — when enabled — the AMB
// prefetching machinery of Section 3.2.
//
// A frame is two DRAM clocks (6 ns at 667 MT/s), which makes the northbound
// payload rate exactly one DDR2 channel's bandwidth and the southbound
// write-data rate half of it, as Section 3.1 requires. Channel ganging
// multiplies frame payloads and DIMM bus width.
//
// With the default configuration the model reproduces the paper's idle
// latency decomposition exactly: a read miss costs 12 ns controller
// overhead + 3 ns southbound command delay + 15 ns tRCD + 15 ns tCL + 6 ns
// data transfer + 4×3 ns AMB hops = 63 ns; an AMB-cache hit skips the two
// DRAM operations and costs 33 ns.
package fbdchan

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/ambcache"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/fault"
	"fbdsim/internal/memreq"
	"fbdsim/internal/resource"
)

// LinkStats tracks data actually moved over the channel links, the basis of
// the paper's "utilized bandwidth" metric.
type LinkStats struct {
	BytesNorth int64 // read data returned to the controller
	BytesSouth int64 // write data sent to the DIMMs
}

// Channel is one logical FB-DIMM channel (possibly a gang of physical
// channels operated in lockstep).
type Channel struct {
	cfg    *config.Mem
	mapper *addrmap.Mapper

	frame     clock.Time // FB-DIMM frame: 2 tCK
	cmdSlot   clock.Time // one of three command slots per frame
	northTime clock.Time // northbound occupancy (and transfer time) of one cacheline
	burst     clock.Time // per-line occupancy of a DIMM's DDR2 bus
	cmdDelay  clock.Time // fixed southbound command propagation

	south   *resource.Timeline
	north   *resource.Timeline
	dimmBus []*resource.Timeline
	dimms   []*dram.DIMM

	// AMB prefetching state (nil / empty when disabled).
	ambs []*ambcache.Cache
	// inflight maps a prefetched line to the time it lands in its AMB
	// cache; a demand read racing a prefetch waits for that instant
	// rather than re-accessing DRAM.
	inflight map[int64]clock.Time
	// group is scratch for the line addresses of one AMB group fetch,
	// reused so fetches allocate nothing; it is dead between calls.
	group []int64

	// Counters accumulates DRAM operations for the power model.
	Counters dram.Counters
	// Links accumulates channel traffic.
	Links LinkStats
	// BankConflicts counts activations delayed by bank-level timing
	// (tRC/precharge/tRRD) — the inefficiency source Section 5.2 blames
	// for idle channel cycles and AMB prefetching reduces.
	BankConflicts int64

	// lastCmdAt / lastServiceAt record the command-arrival and
	// service-start instants of the most recent Schedule* call; the
	// controller copies them into the request when tracing is enabled
	// (see LastTiming).
	lastCmdAt     clock.Time
	lastServiceAt clock.Time

	// inj is the optional fault injector. When nil (the default) fault
	// injection costs a single pointer comparison per link reservation;
	// every injector method is additionally nil-safe.
	inj *fault.Injector
}

// New builds the channel model. cfg must be validated; mapper must be built
// from the same cfg.
func New(cfg *config.Mem, mapper *addrmap.Mapper) *Channel {
	tck := cfg.DataRate.TCK()
	frame := 2 * tck
	gang := clock.Time(cfg.GangWidth)
	line := clock.Time(cfg.LineBytes)

	c := &Channel{
		cfg:      cfg,
		mapper:   mapper,
		frame:    frame,
		cmdSlot:  frame / 3,
		cmdDelay: 3 * clock.Nanosecond,
		south:    resource.NewQuantized(frame / 3),
		north:    resource.NewQuantized(0),
		inflight: make(map[int64]clock.Time),
	}
	// Northbound: 32 B per frame per physical channel.
	framesPerLine := (line + 32*gang - 1) / (32 * gang)
	c.northTime = framesPerLine * frame
	// DIMM DDR2 bus: 8 B per beat per physical channel, two beats per tCK.
	beats := (line + 8*gang - 1) / (8 * gang)
	c.burst = beats * tck / 2

	c.dimmBus = make([]*resource.Timeline, cfg.DIMMsPerChannel)
	c.dimms = make([]*dram.DIMM, cfg.DIMMsPerChannel)
	for i := range c.dimms {
		c.dimmBus[i] = resource.NewQuantized(0)
		c.dimms[i] = dram.NewDIMM(cfg.BanksPerDIMM, cfg.Timing)
		if cfg.RefreshEnabled {
			trefi, trfc := cfg.RefreshTimings()
			// Stagger DIMMs so the channel never loses all of them at once.
			c.dimms[i].SetRefresh(trefi, trfc, clock.Time(i)*trefi/clock.Time(cfg.DIMMsPerChannel))
		}
	}
	if cfg.AMBPrefetch {
		c.ambs = make([]*ambcache.Cache, cfg.DIMMsPerChannel)
		for i := range c.ambs {
			c.ambs[i] = ambcache.New(cfg.AMBCacheLines, cfg.AMBCacheAssoc,
				cfg.AMBReplacement)
		}
	}
	return c
}

// SetInjector attaches (or, with nil, detaches) a fault injector. Call
// before simulation starts.
func (c *Channel) SetInjector(inj *fault.Injector) { c.inj = inj }

// DegradeDIMMBus puts one DIMM's DDR2 bus into degraded mode: every burst
// occupies factor× its nominal bus time.
func (c *Channel) DegradeDIMMBus(dimm, factor int) {
	c.dimms[dimm].SetDegradedBus(factor)
}

// burstFor returns the per-line DDR2 bus occupancy on dimm, scaled up when
// the DIMM runs degraded.
func (c *Channel) burstFor(dimm int) clock.Time {
	if s := c.dimms[dimm].BusScale(); s > 1 {
		return c.burst * clock.Time(s)
	}
	return c.burst
}

// northStart returns when the northbound transfer of a read served by dimm
// may begin, given its DRAM burst starts at burstStart. A healthy DIMM bus
// is rate-matched with the northbound link, so the AMB cuts the data
// through; a degraded (slower) bus cannot sustain the link rate, so the AMB
// buffers the full line before forwarding it.
func (c *Channel) northStart(dimm int, burstStart clock.Time) clock.Time {
	if b := c.burstFor(dimm); b > c.burst {
		return burstStart + b
	}
	return burstStart
}

// reserveWithRetry books dur on a link timeline, then — when fault
// injection is on — replays CRC-corrupted transfers: each error waits out
// the detect/turnaround delay and re-arbitrates for a fresh slot, consuming
// real link bandwidth exactly like the FB-DIMM retry protocol. Replays are
// capped at the injector's MaxRetries.
func (c *Channel) reserveWithRetry(tl *resource.Timeline, ready, dur clock.Time, class fault.Class) clock.Time {
	slot := tl.Reserve(ready, dur)
	if c.inj == nil {
		return slot
	}
	for n := 0; n < c.inj.MaxRetries(); n++ {
		if !c.inj.FrameError(class) {
			break
		}
		replay := tl.Reserve(slot+dur+c.inj.RetryDelay(), dur)
		c.inj.NoteRetry(replay - slot)
		slot = replay
	}
	return slot
}

// hop returns the total AMB forwarding delay a request to dimm pays.
// Without VRL every request pays the full chain (the fixed farthest-DIMM
// latency); with VRL only the hops up to its own DIMM.
func (c *Channel) hop(dimm int) clock.Time {
	n := c.cfg.DIMMsPerChannel
	if c.cfg.VRL {
		n = dimm + 1
	}
	return clock.Time(n) * c.cfg.AMBHopDelay
}

// IsFastRead reports whether a queued read would be served without a full
// DRAM access — an AMB-cache hit (or in-flight prefetch), or an open-row
// hit under open-page mode. The controller's hit-first scheduler
// prioritizes these.
func (c *Channel) IsFastRead(req *memreq.Request) bool {
	loc := req.Loc
	line := c.mapper.LineAddr(req.Addr)
	if c.cfg.AMBPrefetch {
		if c.ambs[loc.DIMM].Contains(line, c.mapper.LocalLineID(line)) {
			return true
		}
		if _, ok := c.inflight[line]; ok {
			return true
		}
	}
	if c.cfg.PageMode == config.OpenPage {
		return c.dimms[loc.DIMM].Banks[loc.Bank].OpenRow() == loc.Row
	}
	return false
}

// AMBStats returns the aggregated prefetch statistics of every AMB cache on
// the channel (zero value when prefetching is disabled).
func (c *Channel) AMBStats() ambcache.Stats {
	var s ambcache.Stats
	for _, a := range c.ambs {
		s.Add(a.Stats)
	}
	return s
}

// ScheduleRead books every resource a queued demand read needs, starting no
// earlier than ready (the time the controller finished its own pipeline),
// and returns the time the full cacheline is back at the controller plus
// whether the AMB cache served it.
func (c *Channel) ScheduleRead(req *memreq.Request, ready clock.Time) (dataAt clock.Time, ambHit bool) {
	loc := req.Loc
	line := c.mapper.LineAddr(req.Addr)
	c.Links.BytesNorth += int64(c.cfg.LineBytes)

	if c.cfg.AMBPrefetch {
		if avail, hit := c.lookupAMB(loc.DIMM, line); hit {
			return c.scheduleAMBHit(loc, ready, avail), true
		}
		return c.scheduleGroupFetch(loc, req.Addr, ready), false
	}
	// Plain FB-DIMM: single-line DRAM access. The AMB cuts the read data
	// through to the northbound link as the DDR2 burst streams in (the
	// two buses are rate-matched), so the northbound transfer begins when
	// the DRAM burst begins.
	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	cmdArrive := sSlot + c.cmdDelay
	burstStart := c.bankRead(loc, cmdArrive, 1)
	c.lastCmdAt, c.lastServiceAt = cmdArrive, burstStart
	nSlot := c.reserveWithRetry(c.north, c.northStart(loc.DIMM, burstStart), c.northTime, fault.NorthFrame)
	return nSlot + c.northTime + c.hop(loc.DIMM), false
}

// lookupAMB consults the controller-side tag table. It returns the time the
// line is (or will be) available at the AMB and whether that counts as a
// prefetch hit.
func (c *Channel) lookupAMB(dimm int, line int64) (clock.Time, bool) {
	amb := c.ambs[dimm]
	local := c.mapper.LocalLineID(line)
	// Soft-error injection: a resident line may be found poisoned on
	// access. The controller scrubs its tag (keeping MC tags and AMB
	// contents coherent) and the access falls through to a demand miss.
	// The residency check precedes LookupRead so hit statistics never
	// count a line the scrub just destroyed.
	if c.inj != nil && amb.Contains(line, local) && c.inj.AMBSoftError() {
		amb.Scrub(line, local)
		delete(c.inflight, line)
	}
	if amb.LookupRead(line, local) {
		if avail, ok := c.inflight[line]; ok {
			return avail, true
		}
		return 0, true
	}
	return 0, false
}

// scheduleAMBHit returns data from the AMB cache: southbound fetch command,
// then a northbound transfer — no DRAM operations. Under FullLatencyHits
// (the FBD-APFL decomposition arm of Figure 9) the hit additionally waits
// out the tRCD+tCL it would have spent in the DRAM, isolating the
// bank-conflict benefit from the latency benefit.
func (c *Channel) scheduleAMBHit(loc addrmap.Location, ready, avail clock.Time) clock.Time {
	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	ambReady := maxTime(sSlot+c.cmdDelay, avail)
	if c.cfg.FullLatencyHits {
		ambReady += c.cfg.Timing.TRCD + c.cfg.Timing.TCL
	}
	c.lastCmdAt, c.lastServiceAt = sSlot+c.cmdDelay, ambReady
	nSlot := c.reserveWithRetry(c.north, ambReady, c.northTime, fault.NorthFrame)
	return nSlot + c.northTime + c.hop(loc.DIMM)
}

// scheduleGroupFetch performs the AMB-prefetch miss path: one southbound
// command makes the AMB issue K pipelined column reads; the demanded line
// (fetched first) crosses the northbound link while the other K-1 lines are
// stored in the AMB cache without touching the channel.
func (c *Channel) scheduleGroupFetch(loc addrmap.Location, addr int64, ready clock.Time) clock.Time {
	c.group = c.mapper.Group(c.group[:0], addr)
	group := c.group
	k := len(group)

	sSlot := c.reserveWithRetry(c.south, ready, c.cmdSlot, fault.SouthFrame)
	cmdArrive := sSlot + c.cmdDelay
	burstStart := c.bankRead(loc, cmdArrive, k)
	c.lastCmdAt, c.lastServiceAt = cmdArrive, burstStart

	nSlot := c.reserveWithRetry(c.north, c.northStart(loc.DIMM, burstStart), c.northTime, fault.NorthFrame)
	dataAt := nSlot + c.northTime + c.hop(loc.DIMM)

	// The prefetched lines land in the AMB cache one DDR2 burst after
	// another (line i is fully received (i+1) bursts after the train
	// starts; the demanded line goes first).
	amb := c.ambs[loc.DIMM]
	burst := c.burstFor(loc.DIMM)
	for i, la := range group[1:] {
		fillAt := burstStart + clock.Time(i+2)*burst
		if evicted, was := amb.InsertPrefetch(la, c.mapper.LocalLineID(la)); was {
			delete(c.inflight, evicted)
		}
		c.inflight[la] = fillAt
	}
	return dataAt
}

// bankRead performs the DRAM side of a read of n pipelined column accesses
// (n > 1 only for AMB group fetches) and returns the time the first line's
// burst starts on the DIMM's DDR2 bus. cmdArrive is when the command
// reaches the AMB.
func (c *Channel) bankRead(loc addrmap.Location, cmdArrive clock.Time, n int) clock.Time {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	rowReady := cmdArrive
	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		// Row hit: column access may issue immediately.
	} else {
		if bank.OpenRow() != dram.NoRow {
			// Row conflict under open-page mode: precharge first.
			preAt := bank.EarliestPRE(cmdArrive)
			bank.Precharge(preAt, &c.Counters)
			rowReady = preAt
		}
		actAt := dimm.EarliestACT(loc.Bank, rowReady)
		if actAt > rowReady {
			c.BankConflicts++
		}
		dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
	}

	burst := c.burstFor(loc.DIMM)
	rdMin := bank.EarliestRead(cmdArrive)
	busAt := c.dimmBus[loc.DIMM].Reserve(rdMin+t.TCL, clock.Time(n)*burst)
	rdAt := busAt - t.TCL
	bank.Read(rdAt, clock.Time(n)*burst, &c.Counters)
	c.Counters.ColRead += int64(n - 1) // remaining pipelined column accesses

	if c.cfg.PageMode == config.ClosePage {
		// Auto-precharge once the burst train and tRAS allow it.
		lastRd := rdAt + clock.Time(n-1)*burst
		preAt := bank.EarliestPRE(lastRd + t.TRPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt
}

// ScheduleWrite books a batch of queued cacheline writebacks that share one
// DRAM row (the controller batches same-region writes, its hit-first policy
// applied to the write stream): command + data cross the southbound link,
// then one activation serves n pipelined column writes. It returns the time
// the last write's data is in the DRAM array.
func (c *Channel) ScheduleWrite(batch []*memreq.Request, ready clock.Time) clock.Time {
	loc := batch[0].Loc
	n := len(batch)
	c.Links.BytesSouth += int64(n * c.cfg.LineBytes)

	if c.cfg.AMBPrefetch && !c.cfg.AMBWriteUpdate {
		// The design invalidates cached copies so the AMB never serves
		// stale data. (Write-update is the ablation alternative: the AMB
		// snoops the write data as it passes through.)
		for _, req := range batch {
			line := c.mapper.LineAddr(req.Addr)
			c.ambs[loc.DIMM].Invalidate(line, c.mapper.LocalLineID(line))
			delete(c.inflight, line)
		}
	}

	// Southbound: one command slot per line plus the write data. Each
	// frame moves 16 B × gang while still carrying one command, so data
	// consumes two of the three slots per frame it occupies.
	chunks := (c.cfg.LineBytes + 16*c.cfg.GangWidth - 1) / (16 * c.cfg.GangWidth)
	dur := c.cmdSlot * clock.Time(n+2*n*chunks)
	// A CRC error anywhere in the command+data frame sequence replays the
	// whole transfer (one injector draw per transfer attempt).
	sSlot := c.reserveWithRetry(c.south, ready, dur, fault.SouthFrame)
	cmdArrive := sSlot + dur + c.cmdDelay

	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		// Row hit.
	} else {
		rowReady := cmdArrive
		if bank.OpenRow() != dram.NoRow {
			preAt := bank.EarliestPRE(cmdArrive)
			bank.Precharge(preAt, &c.Counters)
			rowReady = preAt
		}
		actAt := dimm.EarliestACT(loc.Bank, rowReady)
		if actAt > rowReady {
			c.BankConflicts++
		}
		dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
	}

	burst := c.burstFor(loc.DIMM)
	wrMin := bank.EarliestWrite(cmdArrive)
	busAt := c.dimmBus[loc.DIMM].Reserve(wrMin+t.TWL, clock.Time(n)*burst)
	wrAt := busAt - t.TWL
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busAt
	dataStart := bank.Write(wrAt, clock.Time(n)*burst, &c.Counters)
	c.Counters.ColWrit += int64(n - 1)
	lastWr := wrAt + clock.Time(n-1)*burst

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(lastWr + t.TWPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return dataStart + clock.Time(n)*burst
}

// Housekeep prunes reservation history older than the horizon and drops
// in-flight records that have already landed. The controller calls it
// periodically; horizon must not exceed the earliest future "ready" time it
// will ever pass to Schedule*.
func (c *Channel) Housekeep(horizon clock.Time) {
	c.south.Prune(horizon)
	c.north.Prune(horizon)
	for _, b := range c.dimmBus {
		b.Prune(horizon)
	}
	for line, t := range c.inflight {
		if t <= horizon {
			delete(c.inflight, line)
		}
	}
}

// LinkBusy reports the cumulative reserved time of the northbound and
// southbound links (utilization numerators).
func (c *Channel) LinkBusy() (north, south clock.Time) {
	return c.north.TotalReserved(), c.south.TotalReserved()
}

// LastTiming returns the command-arrival and service-start times of the
// most recent ScheduleRead/ScheduleWrite call. The memtrace recorder uses
// it to stamp per-stage timestamps; it is meaningless between calls.
func (c *Channel) LastTiming() (cmdAt, serviceAt clock.Time) {
	return c.lastCmdAt, c.lastServiceAt
}

// DIMMBusBusy reports the cumulative reserved time across the channel's
// per-DIMM DDR2 data buses (the numerator of DIMM-bus utilization).
func (c *Channel) DIMMBusBusy() clock.Time {
	var total clock.Time
	for _, b := range c.dimmBus {
		total += b.TotalReserved()
	}
	return total
}

func maxTime(a, b clock.Time) clock.Time {
	if a > b {
		return a
	}
	return b
}
