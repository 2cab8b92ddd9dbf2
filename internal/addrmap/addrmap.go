// Package addrmap implements the DRAM interleaving schemes of Section 3.2:
// conventional cacheline interleaving, page interleaving, and the
// multi-cacheline (K-line region) interleaving that AMB prefetching
// requires. A Mapper decomposes a physical address into the channel, DIMM,
// bank, row and column that serve it, and can enumerate the prefetch group
// of a demanded block.
package addrmap

import (
	"fmt"
	"math/bits"

	"fbdsim/internal/config"
)

// Location identifies the DRAM resources serving one memory block.
type Location struct {
	Channel int // logical channel
	DIMM    int // DIMM on the channel
	Bank    int // logical bank on the DIMM
	Row     int64
	Col     int // cacheline index within the row
}

// BankID returns a dense global index for the (channel, DIMM, bank) triple,
// suitable for array indexing across the whole memory system.
func (l Location) BankID(cfg *config.Mem) int {
	return (l.Channel*cfg.DIMMsPerChannel+l.DIMM)*cfg.BanksPerDIMM + l.Bank
}

func (l Location) String() string {
	return fmt.Sprintf("ch%d/dimm%d/bank%d/row%d/col%d", l.Channel, l.DIMM, l.Bank, l.Row, l.Col)
}

// Mapper translates physical addresses to DRAM locations under one
// interleaving scheme.
type Mapper struct {
	cfg config.Mem

	lineShift   uint
	linesPerRow int64
	channels    int64
	dimms       int64
	banks       int64
	regionLines int64
	// unitLines is the interleave unit in cachelines: one line under
	// cacheline interleaving, the K-line region under multi-cacheline
	// interleaving, a whole row (page) under page interleaving.
	unitLines int64
	// Every geometry value is a power of two (config.Validate), so the
	// decode is shifts and masks. These are log2 of the unit size, the
	// channel, DIMM and bank counts, and the units per row.
	unitShift, chanShift, dimmShift, bankShift, rowShift uint

	// Bank sparing (degraded-DIMM fault mode): accesses to one dead
	// (channel, DIMM, bank) triple are steered onto the next bank of the
	// same DIMM. Off by default.
	spareOn   bool
	spareCh   int
	spareDIMM int
	spareBank int
}

// New builds a Mapper for the memory configuration. The configuration must
// already be validated.
func New(cfg *config.Mem) *Mapper {
	m := &Mapper{
		cfg:         *cfg,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		linesPerRow: int64(cfg.RowBytes / cfg.LineBytes),
		channels:    int64(cfg.LogicalChannels),
		dimms:       int64(cfg.DIMMsPerChannel),
		banks:       int64(cfg.BanksPerDIMM),
		regionLines: 1,
	}
	switch cfg.Interleave {
	case config.CachelineInterleave:
		m.unitLines = 1
	case config.MultiCachelineInterleave:
		m.regionLines = int64(cfg.RegionLines)
		m.unitLines = m.regionLines
	case config.PageInterleave:
		m.unitLines = m.linesPerRow
	default:
		panic(fmt.Sprintf("addrmap: unknown interleave %v", cfg.Interleave))
	}
	m.unitShift, m.chanShift = log2(m.unitLines), log2(m.channels)
	m.dimmShift, m.bankShift = log2(m.dimms), log2(m.banks)
	m.rowShift = log2(m.linesPerRow / m.unitLines)
	return m
}

func log2(v int64) uint { return uint(bits.TrailingZeros64(uint64(v))) }

// LineAddr returns the cacheline-aligned address containing addr.
func (m *Mapper) LineAddr(addr int64) int64 {
	return addr &^ (int64(m.cfg.LineBytes) - 1)
}

// lineIndex returns the global cacheline index of addr.
func (m *Mapper) lineIndex(addr int64) int64 { return addr >> m.lineShift }

// Map decomposes a physical address into its DRAM location, applying the
// bank-sparing remap when one is configured.
func (m *Mapper) Map(addr int64) Location {
	loc := m.mapRaw(addr)
	if m.spareOn && loc.Channel == m.spareCh && loc.DIMM == m.spareDIMM && loc.Bank == m.spareBank {
		loc.Bank = (loc.Bank + 1) % int(m.banks)
	}
	return loc
}

// Channel returns Map(addr).Channel without decoding bank, row and column.
// Neither bank permutation nor bank sparing moves an access to another
// channel, so the two always agree.
func (m *Mapper) Channel(addr int64) int {
	return int(m.lineIndex(addr) >> m.unitShift & (m.channels - 1))
}

// mapRaw is the interleaving decomposition before bank sparing. Interleave
// units go to channel, DIMM and bank round-robin with channel varying
// fastest (maximizing channel-level concurrency), then DIMM, then bank —
// the wraparound order of Figure 2. Each bank's units then pack into
// columns and rows.
func (m *Mapper) mapRaw(addr int64) Location {
	line := m.lineIndex(addr)
	unit := line >> m.unitShift
	idx := unit >> (m.chanShift + m.dimmShift + m.bankShift) // unit sequence number within its bank
	loc := Location{
		Channel: int(unit & (m.channels - 1)),
		DIMM:    int(unit >> m.chanShift & (m.dimms - 1)),
		Bank:    int(unit >> (m.chanShift + m.dimmShift) & (m.banks - 1)),
		Row:     idx >> m.rowShift,
		Col:     int(idx&(1<<m.rowShift-1)<<m.unitShift | line&(m.unitLines-1)),
	}
	if m.cfg.PermuteBanks {
		// Permutation-based interleaving [26]: XOR the bank index with
		// the row's low bits. For any fixed (channel, DIMM, row) this is
		// a bijection on banks, so the mapping stays injective while
		// same-bank row conflicts scatter across banks.
		loc.Bank ^= int(loc.Row) & (m.cfg.BanksPerDIMM - 1)
	}
	return loc
}

// SetBankSpare maps out one bank: every access the interleaving would send
// to (channel, dimm, bank) is steered onto the next bank of the same DIMM
// instead. This is the degraded-DIMM graceful-degradation mode — the
// simulator carries timing, not data, so the resulting double load on the
// spare bank is the modelled effect and row/column aliasing between the two
// banks' address ranges is immaterial. Requires at least two banks per DIMM.
func (m *Mapper) SetBankSpare(channel, dimm, bank int) {
	if m.banks < 2 {
		panic("addrmap: bank sparing requires at least two banks per DIMM")
	}
	if channel < 0 || int64(channel) >= m.channels ||
		dimm < 0 || int64(dimm) >= m.dimms ||
		bank < 0 || int64(bank) >= m.banks {
		panic(fmt.Sprintf("addrmap: spare target ch%d/dimm%d/bank%d out of range", channel, dimm, bank))
	}
	m.spareOn = true
	m.spareCh, m.spareDIMM, m.spareBank = channel, dimm, bank
}

// Remapped reports whether addr's access is being steered away from a dead
// bank by the configured spare (always false without one).
func (m *Mapper) Remapped(addr int64) bool {
	if !m.spareOn {
		return false
	}
	loc := m.mapRaw(addr)
	return loc.Channel == m.spareCh && loc.DIMM == m.spareDIMM && loc.Bank == m.spareBank
}

// RegionLines is the prefetch group size K under the current scheme
// (1 when the scheme does not define regions).
func (m *Mapper) RegionLines() int { return int(m.regionLines) }

// RegionID returns a unique identifier of the prefetch group containing
// addr. Addresses in the same group share DRAM row and bank.
func (m *Mapper) RegionID(addr int64) int64 {
	return m.lineIndex(addr) >> m.unitShift
}

// Group appends to dst the line addresses the AMB fetches for a demand
// access to addr, demanded line first, and returns the extended slice.
//
// Under multi-cacheline interleaving this is the full K-line region
// (Figure 2: demand on block 6 fetches blocks 6, 4, 5, 7). Under page
// interleaving it is the K-line window [N-1, N+2] clipped to the page, as
// Section 3.2 describes. Under cacheline interleaving it is the demanded
// line alone.
func (m *Mapper) Group(dst []int64, addr int64) []int64 {
	demanded := m.LineAddr(addr)
	dst = append(dst, demanded)
	lb := int64(m.cfg.LineBytes)
	switch m.cfg.Interleave {
	case config.MultiCachelineInterleave:
		base := demanded &^ (m.regionLines*lb - 1)
		for i := int64(0); i < m.regionLines; i++ {
			if a := base + i*lb; a != demanded {
				dst = append(dst, a)
			}
		}
	case config.PageInterleave:
		k := max(int64(m.cfg.RegionLines), 1)
		pageBytes := m.linesPerRow * lb
		pageBase := demanded &^ (pageBytes - 1)
		start := demanded - lb // block N-1 first, then N+1, N+2, ...
		if start < pageBase {
			start = demanded
		}
		for a, n := start, int64(1); n < k; a += lb {
			if a == demanded {
				continue
			}
			if a < pageBase || a >= pageBase+pageBytes {
				break
			}
			dst = append(dst, a)
			n++
		}
	}
	return dst
}

// LocalLineID returns a dense identifier of addr's cacheline *within its
// DIMM*: consecutive lines stored on one DIMM get consecutive IDs. The AMB
// cache must index its sets with this, not the raw line address — after
// interleaving strips lines across channels and DIMMs, the channel/DIMM
// bits of the raw address are constant for any one AMB and would alias
// every entry into a fraction of the sets.
func (m *Mapper) LocalLineID(addr int64) int64 {
	line := m.lineIndex(addr)
	return line>>(m.unitShift+m.chanShift+m.dimmShift)<<m.unitShift | line&(m.unitLines-1)
}

// SameRow reports whether two addresses map to the same row of the same
// bank (a row-buffer hit opportunity under open-page mode).
func (m *Mapper) SameRow(a, b int64) bool {
	la, lb := m.Map(a), m.Map(b)
	return la.Channel == lb.Channel && la.DIMM == lb.DIMM && la.Bank == lb.Bank && la.Row == lb.Row
}
