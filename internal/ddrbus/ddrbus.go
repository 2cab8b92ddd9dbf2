// Package ddrbus models a conventional DDR2 memory channel — the baseline
// the paper compares FB-DIMM against. Unlike FB-DIMM's two independent
// unidirectional links, a DDR2 channel has one shared command/address bus
// and one shared bidirectional data bus; reads and writes contend for the
// same data wires, which is why FB-DIMM's aggregate bandwidth is higher at
// equal data rates.
//
// With the default (ganged-pair) configuration the idle read latency is
// 12 ns controller overhead + 3 ns propagation + 9 ns stub-bus command
// overhead (registered-DIMM latch plus 2T command timing, needed for signal
// integrity on the multi-drop bus) + 15 ns tRCD + 15 ns tCL + 6 ns data
// burst = 60 ns, just below FB-DIMM's 63 ns — matching the measured idle
// latencies the paper reports in Figure 5 (60 ns DDR2 vs 62 ns FB-DIMM for
// single-core workloads) and its observation that FB-DIMM trades a little
// idle latency for bandwidth.
package ddrbus

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/dram"
	"fbdsim/internal/fbdchan"
	"fbdsim/internal/memreq"
	"fbdsim/internal/resource"
)

// Channel is one logical DDR2 channel (a gang of physical channels in
// lockstep), with its DIMMs attached as ranks on the shared buses.
type Channel struct {
	cfg *config.Mem

	tck      clock.Time
	burst    clock.Time // data-bus occupancy of one cacheline
	cmdDelay clock.Time

	cmdBus  *resource.Timeline
	dataBus *resource.Timeline
	dimms   []*dram.DIMM

	// Counters accumulates DRAM operations for the power model.
	Counters dram.Counters
	// Links accumulates channel traffic for utilized-bandwidth stats.
	Links fbdchan.LinkStats
	// BankConflicts counts activations delayed by bank-level timing.
	BankConflicts int64

	// lastCmdAt / lastServiceAt mirror fbdchan.Channel's fields: the
	// command-arrival and data-bus start of the most recent Schedule* call,
	// surfaced through LastTiming for the memtrace recorder.
	lastCmdAt     clock.Time
	lastServiceAt clock.Time
}

// New builds the channel model from a validated configuration.
func New(cfg *config.Mem) *Channel {
	tck := cfg.DataRate.TCK()
	gang := clock.Time(cfg.GangWidth)
	line := clock.Time(cfg.LineBytes)
	beats := (line + 8*gang - 1) / (8 * gang)

	c := &Channel{
		cfg:   cfg,
		tck:   tck,
		burst: beats * tck / 2,
		// Propagation plus the stub-bus overhead of a registered, multi-
		// drop DDR2 channel: one clock in the DIMM register and 2T command
		// timing (three clocks total at the configured data rate).
		cmdDelay: 3*clock.Nanosecond + 3*tck,
		cmdBus:   resource.NewQuantized(tck),
		dataBus:  resource.NewQuantized(0),
		dimms:    make([]*dram.DIMM, cfg.DIMMsPerChannel),
	}
	for i := range c.dimms {
		c.dimms[i] = dram.NewDIMM(cfg.BanksPerDIMM, cfg.Timing)
		if cfg.RefreshEnabled {
			trefi, trfc := cfg.RefreshTimings()
			c.dimms[i].SetRefresh(trefi, trfc, clock.Time(i)*trefi/clock.Time(cfg.DIMMsPerChannel))
		}
	}
	return c
}

// IsFastRead reports an open-row hit opportunity (only meaningful under
// open-page mode; the DDR2 baseline defaults to close-page cacheline
// interleaving where it is always false).
func (c *Channel) IsFastRead(req *memreq.Request) bool {
	if c.cfg.PageMode != config.OpenPage {
		return false
	}
	loc := req.Loc
	return c.dimms[loc.DIMM].Banks[loc.Bank].OpenRow() == loc.Row
}

// ScheduleRead books command bus, bank, and data bus for a queued demand
// read starting no earlier than ready and returns when the cacheline is
// back at the controller. The second return mirrors the FB-DIMM interface
// and is always false (no AMB cache on DDR2).
func (c *Channel) ScheduleRead(req *memreq.Request, ready clock.Time) (dataAt clock.Time, ambHit bool) {
	loc := req.Loc
	c.Links.BytesNorth += int64(c.cfg.LineBytes)

	// One reservation covers the ACT+RD command pair.
	slot := c.cmdBus.Reserve(ready, 2*c.tck)
	cmdArrive := slot + c.cmdDelay
	busStart := c.bankRead(loc, cmdArrive)
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busStart
	return busStart + c.burst, false
}

func (c *Channel) bankRead(loc addrmap.Location, cmdArrive clock.Time) clock.Time {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	c.openRow(loc, cmdArrive)

	rdMin := bank.EarliestRead(cmdArrive)
	busAt := c.dataBus.Reserve(rdMin+t.TCL, c.burst)
	rdAt := busAt - t.TCL
	bank.Read(rdAt, c.burst, &c.Counters)

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(rdAt + t.TRPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return busAt
}

// openRow brings loc.Row into the row buffer if it is not already there,
// issuing PRE/ACT as needed.
func (c *Channel) openRow(loc addrmap.Location, from clock.Time) {
	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	if c.cfg.PageMode == config.OpenPage && bank.OpenRow() == loc.Row {
		return
	}
	rowReady := from
	if bank.OpenRow() != dram.NoRow {
		preAt := bank.EarliestPRE(from)
		bank.Precharge(preAt, &c.Counters)
		rowReady = preAt
	}
	actAt := dimm.EarliestACT(loc.Bank, rowReady)
	if actAt > rowReady {
		c.BankConflicts++
	}
	dimm.Activate(loc.Bank, actAt, loc.Row, &c.Counters)
}

// ScheduleWrite books a batch of queued writebacks sharing one DRAM row (one
// activation, n pipelined column writes) and returns when the last line's
// data is in the DRAM array. Write data shares the one data bus with reads.
// Under the baseline's cacheline interleaving, regions are single lines and
// every group has length one.
func (c *Channel) ScheduleWrite(batch []*memreq.Request, ready clock.Time) clock.Time {
	loc := batch[0].Loc
	n := len(batch)
	c.Links.BytesSouth += int64(n * c.cfg.LineBytes)

	slot := c.cmdBus.Reserve(ready, clock.Time(1+n)*c.tck)
	cmdArrive := slot + c.cmdDelay

	dimm := c.dimms[loc.DIMM]
	bank := dimm.Banks[loc.Bank]
	t := c.cfg.Timing

	c.openRow(loc, cmdArrive)

	wrMin := bank.EarliestWrite(cmdArrive)
	busAt := c.dataBus.Reserve(wrMin+t.TWL, clock.Time(n)*c.burst)
	wrAt := busAt - t.TWL
	c.lastCmdAt, c.lastServiceAt = cmdArrive, busAt
	dataStart := bank.Write(wrAt, clock.Time(n)*c.burst, &c.Counters)
	c.Counters.ColWrit += int64(n - 1)
	lastWr := wrAt + clock.Time(n-1)*c.burst

	if c.cfg.PageMode == config.ClosePage {
		preAt := bank.EarliestPRE(lastWr + t.TWPD)
		bank.Precharge(preAt, &c.Counters)
	}
	return dataStart + clock.Time(n)*c.burst
}

// LinkBusy reports the cumulative reserved time of the shared data bus
// (returned as "north"; the command bus as "south") for utilization stats.
func (c *Channel) LinkBusy() (north, south clock.Time) {
	return c.dataBus.TotalReserved(), c.cmdBus.TotalReserved()
}

// LastTiming returns the command-arrival and service-start times of the
// most recent ScheduleRead/ScheduleWrite call (see fbdchan.Channel.LastTiming).
func (c *Channel) LastTiming() (cmdAt, serviceAt clock.Time) {
	return c.lastCmdAt, c.lastServiceAt
}

// DIMMBusBusy reports the cumulative reserved time of the shared data bus.
// On DDR2 the "DIMM bus" and the channel data bus are the same wires.
func (c *Channel) DIMMBusBusy() clock.Time {
	return c.dataBus.TotalReserved()
}

// Housekeep prunes reservation history older than horizon.
func (c *Channel) Housekeep(horizon clock.Time) {
	c.cmdBus.Prune(horizon)
	c.dataBus.Prune(horizon)
}
