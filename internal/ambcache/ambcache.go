// Package ambcache implements the AMB prefetch buffer of Section 3.2: a
// small SRAM cache attached to each Advanced Memory Buffer, whose tags and
// status bits live in a "prefetch information table" at the memory
// controller. The default configuration holds 64 cachelines of 64 bytes
// (4 KB), fully associative, with FIFO replacement — LRU is unsuitable
// because a block that hits is now resident in the processor cache and will
// not be re-referenced soon.
package ambcache

import (
	"fmt"

	"fbdsim/internal/config"
)

type entry struct {
	addr  int64 // line-aligned address
	valid bool
	seq   int64 // insertion order (FIFO) — never updated on hit
	use   int64 // last-touch order (LRU)
}

// Stats counts the events that define prefetch coverage and efficiency
// (Figure 8): coverage = hits/reads, efficiency = hits/prefetched blocks.
type Stats struct {
	// Reads is the number of demand reads presented to the tag table.
	Reads int64
	// Hits is the number of demand reads served from the AMB cache.
	Hits int64
	// Prefetched is the number of non-demanded blocks stored in the cache.
	Prefetched int64
	// Evictions counts FIFO/LRU replacements of valid entries.
	Evictions int64
	// Invalidations counts entries dropped because of writes.
	Invalidations int64
	// Scrubs counts entries dropped because a soft error poisoned them
	// (fault injection); the demand access proceeds as a miss.
	Scrubs int64
}

// Coverage returns hits/reads, or 0 when no reads occurred.
func (s Stats) Coverage() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads)
}

// Efficiency returns hits/prefetched, or 0 when nothing was prefetched.
func (s Stats) Efficiency() float64 {
	if s.Prefetched == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Prefetched)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Hits += other.Hits
	s.Prefetched += other.Prefetched
	s.Evictions += other.Evictions
	s.Invalidations += other.Invalidations
	s.Scrubs += other.Scrubs
}

// Cache models one AMB's prefetch buffer. The simulator keeps the instance
// at the memory controller, mirroring the paper's split where the
// controller holds tags and the AMB holds data; the AMB-side data array has
// no independent behaviour to model.
type Cache struct {
	sets int
	ways int
	repl config.Replacement
	data []entry // sets×ways frames, set-major
	tick int64

	// Stats are exported for the experiment harness.
	Stats Stats
}

// New builds an AMB cache of capacity lines with the given associativity
// (config.FullAssoc for fully associative) and replacement policy.
func New(lines, assoc int, repl config.Replacement) *Cache {
	if lines < 1 {
		panic("ambcache: capacity must be at least one line")
	}
	ways := assoc
	if assoc == config.FullAssoc || assoc >= lines {
		ways = lines
	}
	if lines%ways != 0 {
		panic(fmt.Sprintf("ambcache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("ambcache: set count %d not a power of two", sets))
	}
	c := &Cache{
		sets: sets,
		ways: ways,
		repl: repl,
		data: make([]entry, sets*ways),
	}
	return c
}

// set returns the frames of the set a caller-provided index key maps to.
// The key must be the DIMM-local line ID (addrmap.Mapper.LocalLineID), not
// the raw address: interleaving makes the channel/DIMM bits of raw
// addresses constant per AMB, which would alias every entry into a
// fraction of the sets.
func (c *Cache) set(localID int64) []entry {
	i := int(localID & int64(c.sets-1))
	return c.data[i*c.ways : (i+1)*c.ways]
}

// find returns the frame of set holding lineAddr, or -1.
func find(set []entry, lineAddr int64) int {
	for i := range set {
		if set[i].valid && set[i].addr == lineAddr {
			return i
		}
	}
	return -1
}

// Lines returns the total capacity in cachelines.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Ways returns the associativity actually in effect.
func (c *Cache) Ways() int { return c.ways }

// LookupRead checks the tag table for a demand read and counts it toward
// coverage statistics. On a hit, FIFO keeps the insertion order (the block
// stays until replaced); LRU refreshes recency.
func (c *Cache) LookupRead(lineAddr, localID int64) bool {
	c.Stats.Reads++
	if c.touch(lineAddr, localID) {
		c.Stats.Hits++
		return true
	}
	return false
}

// Contains reports residency without touching statistics or recency.
func (c *Cache) Contains(lineAddr, localID int64) bool {
	return find(c.set(localID), lineAddr) >= 0
}

func (c *Cache) touch(lineAddr, localID int64) bool {
	set := c.set(localID)
	i := find(set, lineAddr)
	if i < 0 {
		return false
	}
	c.tick++
	set[i].use = c.tick
	return true
}

// InsertPrefetch stores a prefetched (non-demanded) block, evicting by the
// configured policy if the set is full. It returns the evicted line address
// and whether an eviction occurred. Inserting an already-resident line is a
// no-op refresh.
func (c *Cache) InsertPrefetch(lineAddr, localID int64) (evicted int64, wasEvicted bool) {
	c.Stats.Prefetched++
	return c.insert(lineAddr, localID)
}

// insert finds, in one pass over the set, the resident copy of lineAddr,
// the first free frame and the oldest frame by policy (first on ties).
func (c *Cache) insert(lineAddr, localID int64) (evicted int64, wasEvicted bool) {
	set := c.set(localID)
	c.tick++
	free, victim := -1, 0
	for i := range set {
		switch {
		case !set[i].valid:
			if free < 0 {
				free = i
			}
		case set[i].addr == lineAddr:
			set[i].use = c.tick // already resident: refresh only
			return 0, false
		case c.older(set[i], set[victim]):
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	} else {
		evicted, wasEvicted = set[victim].addr, true
		c.Stats.Evictions++
	}
	set[victim] = entry{addr: lineAddr, valid: true, seq: c.tick, use: c.tick}
	return evicted, wasEvicted
}

func (c *Cache) older(a, b entry) bool {
	if c.repl == config.LRU {
		return a.use < b.use
	}
	return a.seq < b.seq
}

// Invalidate drops the line if present (the design invalidates on writes so
// the AMB never serves stale data). It reports whether the line was
// resident.
func (c *Cache) Invalidate(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Invalidations++
	return true
}

// Scrub drops the line because a soft error poisoned it: the controller
// discards its tag so the demand access refetches from DRAM. Distinct from
// Invalidate only in accounting — scrubs measure fault-induced losses, not
// coherence traffic. It reports whether the line was resident.
func (c *Cache) Scrub(lineAddr, localID int64) bool {
	if !c.drop(lineAddr, localID) {
		return false
	}
	c.Stats.Scrubs++
	return true
}

// drop invalidates the line if resident and reports whether it was.
func (c *Cache) drop(lineAddr, localID int64) bool {
	set := c.set(localID)
	i := find(set, lineAddr)
	if i >= 0 {
		set[i].valid = false
	}
	return i >= 0
}

// Occupancy returns the number of valid entries (useful for tests and
// debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for _, e := range c.data {
		if e.valid {
			n++
		}
	}
	return n
}

// Reset clears all entries and statistics.
func (c *Cache) Reset() {
	clear(c.data)
	c.tick = 0
	c.Stats = Stats{}
}
