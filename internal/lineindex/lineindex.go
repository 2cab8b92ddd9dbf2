// Package lineindex maps cacheline addresses to per-line records in O(1)
// expected time. It is the one mechanism behind the simulator's per-line
// lookups on the request path: the AMB prefetch information table's
// line→frame index and the L2 MSHR file.
//
// The table is open addressing with linear probing, kept at most half full,
// and deletes by backward shift: the entries after a removed one slide back
// over the hole, so no tombstones accumulate and probe sequences stay short
// however long a simulation runs.
package lineindex

// slot is one table position; used distinguishes an empty slot from a key
// of zero.
type slot[V any] struct {
	key  int64
	val  V
	used bool
}

// Map is a hash map from int64 keys to V. The zero value is an empty map
// ready to use. It is not safe for concurrent use.
type Map[V any] struct {
	slots []slot[V]
	shift uint // 64 - log2(len(slots))
	n     int
}

// New returns a map sized to hold hint keys without growing.
func New[V any](hint int) Map[V] {
	var m Map[V]
	m.alloc(max(8, 2*hint))
	return m
}

// alloc installs an empty table of at least size slots (a power of two).
func (m *Map[V]) alloc(size int) {
	n, log := 1, uint(0)
	for n < size {
		n <<= 1
		log++
	}
	m.slots = make([]slot[V], n)
	m.shift = 64 - log
	m.n = 0
}

// home is key's preferred slot: Fibonacci hashing spreads line addresses,
// whose low bits are constant, over the whole table.
func (m *Map[V]) home(key int64) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> m.shift)
}

// find returns the slot holding key, or -1.
func (m *Map[V]) find(key int64) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.n }

// Get returns key's value and whether key is present.
func (m *Map[V]) Get(key int64) (V, bool) {
	if i := m.find(key); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put sets key's value, adding key if absent.
func (m *Map[V]) Put(key int64, val V) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	i := m.home(key)
	for ; m.slots[i].used; i = (i + 1) & mask {
		if m.slots[i].key == key {
			m.slots[i].val = val
			return
		}
	}
	m.slots[i] = slot[V]{key: key, val: val, used: true}
	m.n++
}

// grow doubles the table (or allocates the first one) and reinserts every
// key.
func (m *Map[V]) grow() {
	old := m.slots
	m.alloc(max(8, 2*len(old)))
	for _, s := range old {
		if s.used {
			m.Put(s.key, s.val)
		}
	}
}

// Delete removes key, returning its value and whether it was present.
// Each entry of the probe run after the hole moves back into it unless its
// home slot lies cyclically after the hole, which would put it before its
// home.
func (m *Map[V]) Delete(key int64) (V, bool) {
	hole := m.find(key)
	if hole < 0 {
		var zero V
		return zero, false
	}
	val := m.slots[hole].val
	mask := len(m.slots) - 1
	for j := (hole + 1) & mask; m.slots[j].used; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = slot[V]{}
	m.n--
	return val, true
}

// Clear removes every key, keeping the table's capacity.
func (m *Map[V]) Clear() {
	clear(m.slots)
	m.n = 0
}

// AppendKeys appends every key, in table order, to dst.
func (m *Map[V]) AppendKeys(dst []int64) []int64 {
	for _, s := range m.slots {
		if s.used {
			dst = append(dst, s.key)
		}
	}
	return dst
}
