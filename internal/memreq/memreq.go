// Package memreq defines the memory transaction types exchanged between the
// cache hierarchy, the memory controller, and the channel models.
package memreq

import (
	"fbdsim/internal/addrmap"
	"fbdsim/internal/clock"
)

// Kind distinguishes transaction types at the memory controller.
type Kind int

const (
	// Read is a demand (or software-prefetch) cacheline read.
	Read Kind = iota
	// Write is a cacheline writeback.
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Timing carries the optional per-stage schedule timestamps used by the
// memtrace recorder. The fields are only populated while tracing is
// enabled; they never influence simulation behaviour.
type Timing struct {
	// Issued is when the controller picked the request off its queue and
	// handed it to the channel model.
	Issued clock.Time
	// CmdAt is when the command reached the DIMM (southbound frame
	// arrival on FB-DIMM, command-bus arrival on DDR2).
	CmdAt clock.Time
	// Service is when DIMM-side service began: the DDR data burst start
	// for DRAM accesses, or the AMB lookup completion for AMB-cache hits.
	Service clock.Time
}

// Request is one cacheline transaction presented to the memory system.
type Request struct {
	ID   int64
	Addr int64 // line-aligned physical address
	Kind Kind
	Core int

	// Loc is Addr's DRAM location, set by the controller when the request
	// enters its queue.
	Loc addrmap.Location

	// SWPrefetch marks reads generated by software prefetch instructions;
	// the memory system treats them as ordinary reads, but statistics
	// distinguish them.
	SWPrefetch bool

	// Created is when the miss was first exposed to the memory system
	// (MSHR allocation), which may precede Arrived when the controller
	// queue was full. Zero means "same as Arrived".
	Created clock.Time
	// Arrived is when the request entered the controller queue.
	Arrived clock.Time
	// Done is when read data returned to the controller (or write data
	// was accepted by the DRAM); set by the memory system.
	Done clock.Time

	// AMBHit records whether an enabled AMB cache served this read.
	AMBHit bool

	// T holds per-stage schedule timestamps, populated only when the
	// memtrace recorder is enabled.
	T Timing

	// OnDone, if non-nil, is invoked exactly once when the request
	// completes.
	OnDone func(*Request)
}

// Pool is a single-owner free list of Requests. The cache hierarchy
// allocates every memory transaction from one and returns it in the
// completion callback, so steady-state simulation creates no per-request
// garbage. Like the simulator that uses it, a Pool is not goroutine-safe;
// each System owns its own.
type Pool struct {
	free []*Request
}

// Get returns a zeroed Request, reusing a previously Put one when
// available.
func (p *Pool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return &Request{}
}

// Put recycles r. The caller must not retain any reference to r afterwards:
// the next Get may hand it out again. r is zeroed here so stale timestamps
// or callbacks can never leak into a reused transaction.
func (p *Pool) Put(r *Request) {
	*r = Request{}
	p.free = append(p.free, r)
}

// Len reports the number of idle pooled requests (tests and diagnostics).
func (p *Pool) Len() int { return len(p.free) }
