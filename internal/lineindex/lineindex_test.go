package lineindex

import (
	"math/rand"
	"slices"
	"testing"
)

// keysHomedAt returns n distinct line addresses whose home slot in m is h.
func keysHomedAt(m *Map[int], h, n int) []int64 {
	var keys []int64
	for k := int64(0); len(keys) < n; k += 64 {
		if m.home(k) == h {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkProbeRuns fails t unless every key sits in the probe run that starts
// at its home slot: no empty slot lies between the two. A delete that left
// a hole inside a run would make the keys after it unreachable.
func checkProbeRuns(t *testing.T, m *Map[int]) {
	t.Helper()
	mask := len(m.slots) - 1
	n := 0
	for i, s := range m.slots {
		if !s.used {
			continue
		}
		n++
		for j := m.home(s.key); j != i; j = (j + 1) & mask {
			if !m.slots[j].used {
				t.Fatalf("key %#x in slot %d is cut off from its home %d by empty slot %d", s.key, i, m.home(s.key), j)
			}
		}
	}
	if n != m.Len() {
		t.Fatalf("%d used slots, Len %d", n, m.Len())
	}
}

func TestCollidingKeys(t *testing.T) {
	m := New[int](4)
	keys := keysHomedAt(&m, 3, 4)
	for i, k := range keys {
		m.Put(k, i)
	}
	checkProbeRuns(t, &m)
	if _, ok := m.Delete(keys[1]); !ok {
		t.Fatal("delete of a present key reported absent")
	}
	if _, ok := m.Get(keys[1]); ok {
		t.Fatal("deleted key still present")
	}
	for i, k := range keys {
		if i == 1 {
			continue
		}
		if v, ok := m.Get(k); !ok || v != i {
			t.Errorf("key %#x = (%d, %v), want (%d, true)", k, v, ok, i)
		}
	}
	checkProbeRuns(t, &m)
	m.Put(keys[2], 20) // overwrite, not a second copy
	if v, _ := m.Get(keys[2]); v != 20 || m.Len() != 3 {
		t.Errorf("overwrite: value %d, Len %d; want 20, 3", v, m.Len())
	}
}

// TestDeleteShiftsAcrossWrap: a probe run that wraps from the last slot to
// the first closes up when its head is deleted. Every entry that may move
// back does, including one homed at slot 0; an entry already at its home
// slot stays, and the hole ends up in front of it.
func TestDeleteShiftsAcrossWrap(t *testing.T) {
	m := New[int](8) // 16 slots: the six keys below fit without growing
	last := len(m.slots) - 1
	wrap := keysHomedAt(&m, last, 3) // slots 15, 0, 1
	zero := keysHomedAt(&m, 0, 1)[0] // slot 2
	two := keysHomedAt(&m, 2, 1)[0]  // slot 3
	four := keysHomedAt(&m, 4, 1)[0] // slot 4, its home
	for i, k := range append(wrap, zero, two, four) {
		m.Put(k, i)
	}
	m.Delete(wrap[0])
	checkProbeRuns(t, &m)
	want := map[int]int64{last: wrap[1], 0: wrap[2], 1: zero, 2: two, 4: four}
	for slot, k := range want {
		if s := m.slots[slot]; !s.used || s.key != k {
			t.Errorf("slot %d holds %#x (used %v), want %#x", slot, s.key, s.used, k)
		}
	}
	if m.slots[3].used {
		t.Errorf("slot 3 still used after the run closed up")
	}
	for _, k := range append(wrap[1:], zero, two, four) {
		if _, ok := m.Get(k); !ok {
			t.Errorf("key %#x lost", k)
		}
	}
}

func TestGrowth(t *testing.T) {
	var m Map[int] // zero value: grows from nothing
	const n = 10_000
	for i := 0; i < n; i++ {
		m.Put(int64(i)*64, i)
	}
	if m.Len() != n || 2*m.Len() > len(m.slots) {
		t.Fatalf("Len %d in %d slots, want %d at most half full", m.Len(), len(m.slots), n)
	}
	for i := 0; i < n; i += 2 {
		m.Delete(int64(i) * 64)
	}
	checkProbeRuns(t, &m)
	for i := 0; i < n; i++ {
		v, ok := m.Get(int64(i) * 64)
		if want := i%2 == 1; ok != want || (ok && v != i) {
			t.Fatalf("key %d = (%d, %v) after deleting the even keys", i, v, ok)
		}
	}
	keys := m.AppendKeys(nil)
	slices.Sort(keys)
	if len(keys) != n/2 || keys[0] != 64 || keys[len(keys)-1] != (n-1)*64 {
		t.Errorf("AppendKeys returned %d keys from %d to %d", len(keys), keys[0], keys[len(keys)-1])
	}
	m.Clear()
	if _, ok := m.Get(64); ok || m.Len() != 0 {
		t.Error("Clear left keys behind")
	}
}

// TestMatchesBuiltinMap runs random puts, deletes and gets against a Go map
// over a key space small enough to force long probe runs, zero and
// negative keys included.
func TestMatchesBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New[int](16)
	ref := map[int64]int{}
	for step := 0; step < 200_000; step++ {
		k := (rng.Int63n(96) - 32) * 64
		switch rng.Intn(3) {
		case 0:
			m.Put(k, step)
			ref[k] = step
		case 1:
			gv, gok := m.Delete(k)
			wv, wok := ref[k]
			delete(ref, k)
			if gv != wv || gok != wok {
				t.Fatalf("step %d: Delete(%d) = (%d, %v), want (%d, %v)", step, k, gv, gok, wv, wok)
			}
		default:
			gv, gok := m.Get(k)
			if wv, wok := ref[k]; gv != wv || gok != wok {
				t.Fatalf("step %d: Get(%d) = (%d, %v), want (%d, %v)", step, k, gv, gok, wv, wok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(ref))
		}
	}
	checkProbeRuns(t, &m)
}
