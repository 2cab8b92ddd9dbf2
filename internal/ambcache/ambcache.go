// Package ambcache implements the AMB prefetch buffer of Section 3.2: a
// small SRAM cache attached to each Advanced Memory Buffer, whose tags and
// status bits live in a "prefetch information table" at the memory
// controller. Each table entry holds a line's tag together with its pending
// status — the time an in-flight prefetch lands in the AMB — so a demand
// read racing a prefetch waits for that instant instead of re-accessing
// DRAM. The default configuration holds 64 cachelines of 64 bytes (4 KB),
// fully associative, with FIFO replacement — LRU is unsuitable because a
// block that hits is now resident in the processor cache and will not be
// re-referenced soon.
//
// The table is indexed, so every operation takes O(1) expected time at any
// associativity: a line→frame hash index answers lookups, a per-set bitmap
// names the lowest free frame, and a per-set queue of frames in key order
// (insertion under FIFO, last touch under LRU) names the oldest one.
package ambcache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"fbdsim/internal/clock"
	"fbdsim/internal/config"
	"fbdsim/internal/lineindex"
)

type entry struct {
	addr    int64 // line-aligned address
	valid   bool
	seq     int64      // insertion order (FIFO) — never updated on hit
	use     int64      // last-touch order (LRU)
	landing clock.Time // when an in-flight prefetch lands; 0 once landed
}

// orderRef is one replacement-order queue element: frame held key (seq
// under FIFO, use under LRU) when it was queued. It is stale once the frame
// is invalid or its key has moved on; stale elements are skipped when the
// oldest frame is taken and dropped when a set's queue region fills.
type orderRef struct {
	frame int32
	key   int64
}

// window is the live span [lo, hi) of one set's order-queue region. Keys
// ascend along it, since each is a fresh tick when queued.
type window struct{ lo, hi int32 }

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
//
// The frames are the whole state; the index, free bitmaps and order queues
// are derived from them (rebuild), which is why a snapshot writes only the
// frames.
type Cache struct {
	sets int
	ways int
	repl config.Replacement
	data []entry // sets×ways frames, set-major
	tick int64

	index lineindex.Map[int32] // resident line → frame
	words int                  // bitmap words per set
	free  []uint64             // per set, bit i set when frame i is free
	order []orderRef           // per set, a region of 2×ways queue slots
	win   []window             // per set, the live span of its region

	// Stats are exported for the experiment harness.
	Stats Stats
}

// InFlight is one prefetch still on its way into the AMB: the line and the
// time it lands.
type InFlight struct {
	Line    int64
	Landing clock.Time
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
	words := (ways + 63) / 64
	c := &Cache{
		sets: sets,
		ways: ways,
		repl: repl,
		data: make([]entry, lines),
		// Room for twice the capacity keeps the table at most a quarter
		// full, so probe runs stay short: the hit-first scheduler's
		// residency checks mostly miss, and a miss probes to an empty slot.
		index: lineindex.New[int32](2 * lines),
		words: words,
		free:  make([]uint64, sets*words),
		order: make([]orderRef, 2*lines),
		win:   make([]window, sets),
	}
	c.rebuild()
	return c
}

// rebuild derives the index, the free bitmaps and the order queues from
// the frames.
func (c *Cache) rebuild() {
	c.index.Clear()
	clear(c.free)
	for s := range c.win {
		base := s * c.ways
		q := c.queue(s)[:0]
		for i := base; i < base+c.ways; i++ {
			if e := &c.data[i]; e.valid {
				c.index.Put(e.addr, int32(i))
				q = append(q, orderRef{frame: int32(i), key: c.key(e)})
			} else {
				c.markFree(i)
			}
		}
		// Stable, so equal keys keep frame order: the oldest-frame rule
		// picks the first frame on ties.
		slices.SortStableFunc(q, func(a, b orderRef) int { return cmp.Compare(a.key, b.key) })
		c.win[s] = window{hi: int32(len(q))}
	}
}

// setOf returns the set a caller-provided index key maps to. The key must
// be the DIMM-local line ID (addrmap.Mapper.LocalLineID), not the raw
// address: interleaving makes the channel/DIMM bits of raw addresses
// constant per AMB, which would alias every entry into a fraction of the
// sets.
func (c *Cache) setOf(localID int64) int { return int(localID & int64(c.sets-1)) }

// key returns the replacement-order key of e under the cache's policy.
func (c *Cache) key(e *entry) int64 {
	if c.repl == config.LRU {
		return e.use
	}
	return e.seq
}

// queue returns set s's order-queue region.
func (c *Cache) queue(s int) []orderRef {
	return c.order[2*s*c.ways : 2*(s+1)*c.ways]
}

// live reports whether r still describes its frame.
func (c *Cache) live(r orderRef) bool {
	e := &c.data[r.frame]
	return e.valid && c.key(e) == r.key
}

// enqueue appends frame f, whose key was just assigned, to its set's order
// queue. A full region is first compacted to its live elements — at most
// one per other valid frame, so at least ways slots come free and the
// compaction cost is amortized over as many appends.
func (c *Cache) enqueue(f int) {
	s := f / c.ways
	q, w := c.queue(s), &c.win[s]
	if int(w.hi) == len(q) {
		n := 0
		for _, r := range q[w.lo:w.hi] {
			if c.live(r) {
				q[n] = r
				n++
			}
		}
		*w = window{hi: int32(n)}
	}
	q[w.hi] = orderRef{frame: int32(f), key: c.key(&c.data[f])}
	w.hi++
}

// oldest removes and returns the oldest valid frame of set s, which must
// be full: every valid frame has a live element in the queue, and keys
// ascend along it.
func (c *Cache) oldest(s int) int {
	q, w := c.queue(s), &c.win[s]
	for {
		r := q[w.lo]
		w.lo++
		if c.live(r) {
			return int(r.frame)
		}
	}
}

// takeFree claims and returns the lowest free frame of set s, or -1.
func (c *Cache) takeFree(s int) int {
	words := c.free[s*c.words : (s+1)*c.words]
	for w, m := range words {
		if m != 0 {
			b := bits.TrailingZeros64(m)
			words[w] = m &^ (1 << b)
			return s*c.ways + w*64 + b
		}
	}
	return -1
}

// markFree returns frame f to its set's free bitmap.
func (c *Cache) markFree(f int) {
	s, i := f/c.ways, f%c.ways
	c.free[s*c.words+i/64] |= 1 << (i % 64)
}

// Lines returns the total capacity in cachelines.
func (c *Cache) Lines() int { return c.sets * c.ways }

// Ways returns the associativity actually in effect.
func (c *Cache) Ways() int { return c.ways }

// LookupRead checks the tag table for a demand read and counts it toward
// coverage statistics. On a hit it returns the time the line lands in the
// AMB (0 when it already has). On a hit, FIFO keeps the insertion order
// (the block stays until replaced); LRU refreshes recency.
func (c *Cache) LookupRead(lineAddr int64) (avail clock.Time, hit bool) {
	c.Stats.Reads++
	f, ok := c.index.Get(lineAddr)
	if !ok {
		return 0, false
	}
	c.Stats.Hits++
	c.touch(int(f))
	return c.data[f].landing, true
}

// Contains reports residency without touching statistics or recency.
func (c *Cache) Contains(lineAddr int64) bool {
	_, ok := c.index.Get(lineAddr)
	return ok
}

// touch records a use of frame f.
func (c *Cache) touch(f int) {
	c.tick++
	c.data[f].use = c.tick
	if c.repl == config.LRU {
		c.enqueue(f)
	}
}

// InsertPrefetch stores a prefetched (non-demanded) block that lands in
// the AMB at landing (0 when it is there already), evicting by the
// configured policy if the set is full. It returns the evicted line address
// and whether an eviction occurred. Inserting an already-resident line
// refreshes its recency and landing time and evicts nothing.
func (c *Cache) InsertPrefetch(lineAddr, localID int64, landing clock.Time) (evicted int64, wasEvicted bool) {
	c.Stats.Prefetched++
	if f, ok := c.index.Get(lineAddr); ok {
		c.touch(int(f))
		c.data[f].landing = landing
		return 0, false
	}
	c.tick++
	s := c.setOf(localID)
	f := c.takeFree(s)
	if f < 0 {
		f = c.oldest(s)
		evicted, wasEvicted = c.data[f].addr, true
		c.index.Delete(evicted)
		c.Stats.Evictions++
	}
	c.data[f] = entry{addr: lineAddr, valid: true, seq: c.tick, use: c.tick, landing: landing}
	c.index.Put(lineAddr, int32(f))
	c.enqueue(f)
	return evicted, wasEvicted
}

// Invalidate drops the line if present (the design invalidates on writes so
// the AMB never serves stale data). It reports whether the line was
// resident.
func (c *Cache) Invalidate(lineAddr int64) bool {
	if !c.drop(lineAddr) {
		return false
	}
	c.Stats.Invalidations++
	return true
}

// Scrub drops the line because a soft error poisoned it: the controller
// discards its tag so the demand access refetches from DRAM. Distinct from
// Invalidate only in accounting — scrubs measure fault-induced losses, not
// coherence traffic. It reports whether the line was resident.
func (c *Cache) Scrub(lineAddr int64) bool {
	if !c.drop(lineAddr) {
		return false
	}
	c.Stats.Scrubs++
	return true
}

// drop invalidates the line if resident and reports whether it was. The
// frame keeps its tag and order keys (a snapshot writes them); its order
// queue element goes stale.
func (c *Cache) drop(lineAddr int64) bool {
	f, ok := c.index.Delete(lineAddr)
	if ok {
		c.data[f].valid = false
		c.data[f].landing = 0
		c.markFree(int(f))
	}
	return ok
}

// Land marks every prefetch that has landed by horizon as landed, so only
// prefetches still in flight keep a landing time.
func (c *Cache) Land(horizon clock.Time) {
	for i := range c.data {
		if e := &c.data[i]; e.landing != 0 && e.landing <= horizon {
			e.landing = 0
		}
	}
}

// AppendInFlight appends every prefetch still in flight, in frame order,
// to dst.
func (c *Cache) AppendInFlight(dst []InFlight) []InFlight {
	for _, e := range c.data {
		if e.landing != 0 {
			dst = append(dst, InFlight{Line: e.addr, Landing: e.landing})
		}
	}
	return dst
}

// SetLanding sets the landing time of a resident line and reports whether
// the line was resident.
func (c *Cache) SetLanding(lineAddr int64, landing clock.Time) bool {
	f, ok := c.index.Get(lineAddr)
	if ok {
		c.data[f].landing = landing
	}
	return ok
}

// Occupancy returns the number of valid entries (useful for tests and
// debugging).
func (c *Cache) Occupancy() int { return c.index.Len() }

// Reset clears all entries and statistics.
func (c *Cache) Reset() {
	clear(c.data)
	c.tick = 0
	c.Stats = Stats{}
	c.rebuild()
}
